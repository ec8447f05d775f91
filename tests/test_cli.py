"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smpdec
from oracles import labeled_alist
from smpdec import __version__
from smpdec.channel import capacity, shannon_limit
from smpdec.cli import DE_COLUMNS, main
from smpdec.code import sample_code
from smpdec.de import de_run
from smpdec.galois import build_field


def test_capacity_json_output(tmp_path):
    out = tmp_path / "cap.json"
    rc = main(["capacity", "--q", "4", "--eps", "0.1",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["command"] == "capacity"
    assert data["config"]["version"] == __version__
    assert data["config"]["options"]["eps"] == 0.1
    assert data["results"]["capacity"] == pytest.approx(capacity(4, 0.1))


def test_shannon_csv_stdout(capsys):
    rc = main(["shannon", "--dv", "3", "--dc", "5", "--q", "2,4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# smpdec")
    assert lines[1].startswith("# config:")
    assert lines[2] == "q,rate,eps_shannon"
    rows = [line.split(",") for line in lines[3:]]
    assert [int(r[0]) for r in rows] == [2, 4]
    for row, q in zip(rows, (2, 4)):
        assert float(row[1]) == pytest.approx(0.4)
        assert float(row[2]) == pytest.approx(shannon_limit(q, 0.4),
                                              abs=1e-12)


def test_de_csv_trace(capsys):
    rc = main(["de", "--dv", "3", "--dc", "6", "--q", "4",
               "--eps", "0.05", "--iters", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "iteration,p0_lower,p0_upper,xi_lower,xi_upper"
    first = lines[3].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(1.0 - 0.05)


def test_de_json_trace(tmp_path):
    out = tmp_path / "trace.json"
    rc = main(["de", "--dv", "3", "--dc", "6", "--q", "4",
               "--eps", "0.05", "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["results"]["converged"] is True
    assert data["results"]["records"]


@pytest.mark.parametrize("q, mode", [(2, "exact"), (4, "bounded")])
def test_de_json_report(capsys, q, mode):
    # the document `smpdec de --format json` prints, in key order
    assert main(["de", "--dv", "3", "--dc", "5", "--q", str(q), "--eps",
                 "0.1", "--iters", "30", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["results"]
    trace = de_run(3, 5, q, 0.1, l_max=30)
    want = {
        "dv": 3, "dc": 5, "q": q, "epsilon": 0.1, "mode": mode,
        "converged": trace.converged,
        "converged_upper": trace.converged_upper,
        "iterations_run": trace.iterations_run,
        "records": [{"p0": [r.p0.lower, r.p0.upper],
                     "xi": [r.xi.lower, r.xi.upper]} for r in trace.records],
    }
    assert data == want
    assert list(data) == list(want)
    assert len(data["records"]) == trace.iterations_run + 1


SIMULATE = ["simulate", "--dv", "3", "--dc", "6", "--q", "4", "--n", "120",
            "--eps-grid", "0.05,0.15", "--iters", "10", "--seed", "6",
            "--max-frames", "2"]


def _csv_and_json(argv, capsys):
    """CSV header, CSV rows and JSON results of one report command."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert main(argv + ["--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    return lines[2].split(","), [line.split(",") for line in lines[3:]], \
        results


def test_threshold_json_matches_table(tmp_path, capsys):
    out = tmp_path / "thr.json"
    rc = main(["threshold", "--dv", "3", "--dc", "5", "--q", "4",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 1
    assert rows[0]["eps_star_lower"] == pytest.approx(0.123, abs=1e-3)
    assert rows[0]["eps_shannon"] == pytest.approx(shannon_limit(4, 0.4),
                                                   abs=1e-9)
    # the CSV form carries the same row under a fixed header
    rc = main(["threshold", "--dv", "3", "--dc", "5", "--q", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "dv,dc,q,eps_star_lower,eps_star_upper,eps_shannon"
    assert lines[3].split(",") == [str(rows[0][col]) for col in (
        "dv", "dc", "q", "eps_star_lower", "eps_star_upper", "eps_shannon")]
    # every other report command: its CSV rows carry the JSON results'
    # values in column order
    for argv in (["capacity", "--q", "4", "--eps", "0.1"],
                 ["shannon", "--dv", "3", "--dc", "5", "--q", "2,4"],
                 SIMULATE):
        header, csv_rows, results = _csv_and_json(argv, capsys)
        if isinstance(results, dict):
            results = [results]
        assert csv_rows == [[str(r[col]) for col in header]
                            for r in results], argv
    header, csv_rows, trace = _csv_and_json(
        ["de", "--dv", "3", "--dc", "6", "--q", "4", "--eps", "0.05"], capsys)
    assert header == list(DE_COLUMNS)
    assert csv_rows == [[str(i), *map(str, rec["p0"] + rec["xi"])]
                        for i, rec in enumerate(trace["records"])]


def test_simulate_csv_grid(capsys):
    rc = main(SIMULATE)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# smpdec")
    assert lines[2] == "epsilon,frames,symbol_errors,ser,fer"
    assert len(lines) == 5
    assert int(lines[3].split(",")[1]) == 2


def test_simulate_json_row_key_order(capsys):
    assert main(SIMULATE + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [list(row) for row in rows] == [
        ["epsilon", "frames", "symbol_errors", "frame_errors", "ser", "fer",
         "wall_time"]] * 2


def test_simulate_plot_renders_file(tmp_path):
    png = tmp_path / "waterfall.png"
    out = tmp_path / "sweep.csv"
    rc = main(SIMULATE + ["--plot", str(png), "--out", str(out)])
    assert rc == 0
    assert png.stat().st_size > 0


def test_simulate_plot_without_matplotlib_is_refused(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    out = tmp_path / "sweep.csv"
    rc = main(SIMULATE + ["--plot", str(tmp_path / "waterfall.png"),
                          "--out", str(out)])
    assert rc == 1
    assert "matplotlib is required for --plot; install smpdec[plot]" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_requires_one_eps_source():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dv", "3", "--dc", "6", "--q", "4",
              "--n", "120", "--iters", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dv", "3", "--dc", "6", "--q", "4",
              "--n", "120", "--iters", "10", "--eps", "0.1",
              "--eps-grid", "0.1,0.2"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_runtime_error_exit_code(capsys):
    rc = main(["de", "--dv", "3", "--dc", "6", "--q", "4", "--eps", "0.9"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_codegen_writes_labeled_alist(tmp_path):
    out = tmp_path / "code.txt"
    rc = main(["codegen", "--n", "60", "--dv", "3", "--dc", "6",
               "--q", "4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines(keepends=True)
    assert lines[0] == f"# smpdec {__version__}\n"
    config = json.loads(lines[1].removeprefix("# config: "))
    assert config["command"] == "codegen"
    code = sample_code(60, 3, 6, build_field(2), seed=1)
    assert "".join(lines[2:]) == labeled_alist(code)


def test_rejects_non_power_of_two_field(capsys):
    for argv in (["capacity", "--q", "6", "--eps", "0.1"],
                 ["de", "--dv", "3", "--dc", "6", "--q", "6", "--eps", "0.1"],
                 ["threshold", "--dv", "3", "--dc", "6", "--q", "4,6"]):
        rc = main(argv)
        assert rc == 1, argv
        captured = capsys.readouterr()
        assert "power of two" in captured.err, argv
        assert captured.out == "", argv


def test_negative_seed_is_refused_with_one_message(capsys):
    # a codeword length below 1 is refused the same way
    seed = "seed must be nonnegative, got -1"
    for argv, message in (
            (["simulate", "--dv", "3", "--dc", "6", "--q", "4", "--n", "120",
              "--eps", "0.1", "--seed", "-1"], seed),
            (["codegen", "--n", "60", "--dv", "3", "--dc", "6", "--q", "4",
              "--seed", "-1"], seed),
            (["simulate", "--dv", "3", "--dc", "6", "--q", "4", "--n", "0",
              "--eps", "0.1"], "codeword length must be positive, got 0"),
            (["codegen", "--n", "-6", "--dv", "3", "--dc", "6", "--q", "4"],
             "codeword length must be positive, got -6")):
        rc = main(argv)
        assert rc == 1, argv
        captured = capsys.readouterr()
        assert message in captured.err, argv
        assert captured.out == "", argv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_threshold_refuses_non_finite_tolerance(capsys, tol, fmt):
    rc = main(["threshold", "--dv", "3", "--dc", "6", "--q", "4",
               "--tol", tol, "--format", fmt])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"bisect_tol must be in [1e-05, 0.75), got {tol}" in captured.err
    assert captured.out == ""


def test_negative_frame_error_target_is_refused(capsys):
    rc = main(["simulate", "--dv", "3", "--dc", "6", "--q", "4", "--n",
               "120", "--eps", "0.1", "--max-frames", "3",
               "--frame-errors", "-5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "target_frame_errors must be >= 1 or None, got -5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("eps", ["nan", "-0.1", "0.9"])
def test_capacity_refuses_epsilon_outside_its_domain(capsys, eps, fmt):
    rc = main(["capacity", "--q", "4", "--eps", eps, "--format", fmt])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"epsilon must be in [0, 0.75] for q=4, got {float(eps)}" \
        in captured.err
    assert captured.out == ""


def test_empty_list_is_refused(capsys):
    for argv in (["threshold", "--dv", "3", "--dc", "6", "--q", ","],
                 ["shannon", "--dv", "3", "--dc", "6", "--q", ","],
                 ["simulate", "--dv", "3", "--dc", "6", "--q", "4",
                  "--n", "120", "--eps-grid", ","]):
        rc = main(argv)
        assert rc == 1, argv
        captured = capsys.readouterr()
        assert "expected a comma-separated list with at least one entry, " \
            "got ','" in captured.err, argv
        assert captured.out == "", argv


def test_degrees_are_refused_with_one_message(capsys):
    # threshold refuses before its first density-evolution run
    for argv in (["de", "--dv", "3", "--dc", "2", "--q", "4", "--eps", "0.05"],
                 ["de", "--dv", "3", "--dc", "3", "--q", "4", "--eps", "0.05"],
                 ["shannon", "--dv", "3", "--dc", "3", "--q", "2"],
                 ["threshold", "--dv", "3", "--dc", "3", "--q", "64"],
                 ["threshold", "--dv", "3", "--dc", "0", "--q", "4"],
                 ["simulate", "--dv", "3", "--dc", "3", "--q", "4",
                  "--n", "120", "--eps", "0.1"],
                 ["codegen", "--n", "60", "--dv", "3", "--dc", "3",
                  "--q", "4"]):
        rc = main(argv)
        assert rc == 1, argv
        captured = capsys.readouterr()
        dc = argv[argv.index("--dc") + 1]
        assert "check node degree must exceed variable node degree, " \
            f"got dv=3, dc={dc}" in captured.err, argv
        assert captured.out == "", argv
    for argv in (["de", "--eps", "0.05"], ["shannon"], ["threshold"],
                 ["simulate", "--n", "60", "--eps", "0.1"],
                 ["codegen", "--n", "60"]):
        rc = main(argv + ["--dv", "1", "--dc", "3", "--q", "2"])
        assert rc == 1, argv
        captured = capsys.readouterr()
        assert "variable node degree must be at least 2, got 1" \
            in captured.err, argv
        assert captured.out == "", argv


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency; scipy serves tests only
    src = str(Path(smpdec.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    code = ("import sys, smpdec.cli, smpdec.analysis, smpdec.montecarlo, "
            "smpdec.smp; assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
