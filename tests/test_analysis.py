"""Tests for threshold bisection and table generation."""

import pytest

import smpdec.analysis
from smpdec import __version__
from smpdec.analysis import ThresholdResult, find_threshold, table_report
from smpdec.channel import shannon_limit
from smpdec.cli import TABLE_COLUMNS, _render
from smpdec.de import DeTrace


def test_threshold_3_5_q4_matches_reference_value():
    res = find_threshold(3, 5, 4)
    assert res.eps_star_lower == pytest.approx(0.123, abs=1e-3)
    assert res.eps_star_upper == pytest.approx(0.123, abs=1e-3)
    # a dv = 3 xi interval is a point, so both trajectories are the same
    # and the two bisections follow one probe path: one search's runs
    assert res.eps_star_lower == res.eps_star_upper
    assert res.evaluations == 13


def test_threshold_exact_mode_rate_half_dv6():
    # the paper's (6,12) GF(4) entry; exact steps here sum to just above 1
    res = find_threshold(6, 12, 4, mode="exact")
    assert res.eps_star_lower == pytest.approx(0.074, abs=1e-3)


def test_threshold_zero_for_degree_two():
    res = find_threshold(2, 4, 4)
    assert res.eps_star_upper < 5e-3


def test_threshold_q2_uses_exact_mode():
    res = find_threshold(3, 6, 2)
    assert res.mode == "exact"
    assert res.eps_star_lower == res.eps_star_upper
    assert res.eps_star_lower == pytest.approx(0.040, abs=1e-3)
    # the second search answers every probe from the first one's runs
    assert res.evaluations == 13


def test_threshold_searches_split_where_trajectories_disagree(monkeypatch):
    # a stand-in evolution whose optimistic trajectory converges over a
    # wider epsilon range than the pessimistic one; the searches share
    # the probes before the first where they disagree and then part,
    # each with its own runs, so the bracket opens
    def de_run(dv, dc, q, eps, mode, l_max):
        return DeTrace(mode=mode, converged=eps < 0.10,
                       converged_upper=eps < 0.12)

    monkeypatch.setattr(smpdec.analysis, "de_run", de_run)
    res = find_threshold(7, 14, 32)
    assert res.eps_star_lower < res.eps_star_upper
    assert res.eps_star_lower == pytest.approx(0.10, abs=1e-4)
    assert res.eps_star_upper == pytest.approx(0.12, abs=1e-4)
    assert 14 < res.evaluations < 28


def test_threshold_nondecreasing_in_field_order():
    vals = [find_threshold(3, 5, q).eps_star_lower for q in (2, 4, 8)]
    assert vals == sorted(vals)
    for got, want in zip(vals, (0.061, 0.123, 0.134)):
        assert got == pytest.approx(want, abs=1e-3)


def test_threshold_rejects_too_fine_tolerance():
    # a tolerance at or above the channel ceiling 0.75, or NaN, would
    # also end the bisection before its first density-evolution run
    for tol in (1e-6, 0.75, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="bisect_tol"):
            find_threshold(3, 5, 4, bisect_tol=tol)


def test_threshold_result_validates_interval():
    with pytest.raises(ValueError):
        ThresholdResult(q=4, eps_star_lower=0.2, eps_star_upper=0.1,
                        evaluations=1, mode="bounded")


def test_table_report_rows_and_shannon():
    rows = table_report(3, 5, [2, 4])
    assert len(rows) == 2
    for row, q in zip(rows, (2, 4)):
        assert row["dv"] == 3 and row["dc"] == 5 and row["q"] == q
        assert row["eps_shannon"] == pytest.approx(shannon_limit(q, 0.4),
                                                   abs=1e-9)
        assert row["eps_star_lower"] <= row["eps_star_upper"]
    assert rows[0]["eps_star_lower"] == pytest.approx(0.061, abs=1e-3)


def test_table_report_empty_field_list():
    assert table_report(3, 5, []) == []


def test_table_rows_render_as_csv():
    rows = [{"dv": 3, "dc": 5, "q": 4, "eps_star_lower": 0.123,
             "eps_star_upper": 0.1234, "eps_shannon": 0.248}]
    config = {"command": "threshold", "version": __version__, "options": {}}
    text = _render(config, "csv", rows, TABLE_COLUMNS)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "dv,dc,q,eps_star_lower,eps_star_upper,eps_shannon"
    cells = lines[1].split(",")
    assert cells[:3] == ["3", "5", "4"]
    assert float(cells[3]) == 0.123
