"""Per-layer metrics: which program functions the traced pass wraps,
and how the recorded spans and counts become the layer metrics.

The layers are the package modules. Each wrapped function is wrapped
where its caller looks it up, and its span is named after the layer that
defines it: ``smpdec.montecarlo.decode`` records ``smp.decode``,
``smpdec.analysis.de_run`` records ``de.de_run``.
"""

from __future__ import annotations

import numpy as np

import smpdec.analysis
import smpdec.channel
import smpdec.cli
import smpdec.code
import smpdec.de
import smpdec.galois
import smpdec.montecarlo
import smpdec.smp


def _edges(args, result):
    yield "edges", len(args[1])


def _vn_counts(args, result):
    yield "edges", len(args[1])
    if isinstance(result, tuple):
        yield "ties", result[1]


def _mul_counts(args, result):
    b = args[2]
    yield "elems", b.size
    yield "nonzero", int(np.count_nonzero(b))


def _symbols(args, result):
    yield "symbols", args[0].size


def _de_iterations(args, result):
    yield "iterations", result.iterations_run


#: (owner, attribute, span name, counter) for every wrapped function.
WRAPS = (
    (smpdec.galois, "build_field", "galois.build_field", None),
    (smpdec.galois.FieldSpec, "mul_vec", "galois.mul_vec", _mul_counts),
    (smpdec.galois.FieldSpec, "inv_vec", "galois.inv_vec", None),
    (smpdec.code, "sample_code", "code.sample_code", None),
    (smpdec.montecarlo, "default_schedule", "montecarlo.default_schedule",
     None),
    (smpdec.montecarlo, "simulate", "montecarlo.simulate", None),
    (smpdec.montecarlo, "transmit", "channel.transmit", _symbols),
    (smpdec.montecarlo, "decode", "smp.decode", None),
    (smpdec.montecarlo, "de_run", "de.de_run", _de_iterations),
    (smpdec.smp, "cn_update", "smp.cn_update", _edges),
    (smpdec.smp, "vn_update", "smp.vn_update", _vn_counts),
    (smpdec.de, "cn_step", "de.cn_step", None),
    (smpdec.de, "vn_step_exact", "de.vn_step_exact", None),
    (smpdec.de, "vn_step_bounded", "de.vn_step_bounded", None),
    (smpdec.analysis, "de_run", "de.de_run", _de_iterations),
    (smpdec.cli, "main", "cli.main", None),
    (smpdec.cli, "table_report", "analysis.table_report", None),
    (smpdec.channel, "shannon_limit", "channel.shannon_limit", None),
)

#: Spans that must occur on each kind of workload. A span lost to a
#: refactor fails the traced run instead of reading as zero time.
EXPECTED = {
    "decode": ("galois.build_field", "galois.mul_vec", "galois.inv_vec",
               "code.sample_code", "montecarlo.default_schedule",
               "montecarlo.simulate", "channel.transmit", "smp.decode",
               "smp.cn_update", "smp.vn_update", "de.de_run", "de.cn_step",
               "de.vn_step_bounded"),
    "grid": ("cli.main", "analysis.table_report", "channel.shannon_limit",
             "de.de_run", "de.cn_step", "de.vn_step_bounded",
             "de.vn_step_exact"),
}

#: Which end-to-end metric each layer metric should move, and where.
#: ops_per_s is frames per second on the decode workloads and cells
#: per second on the threshold grid. A metric whose layer does not run
#: on a workload reads 0 there.
_DECODE = "ops_per_s on both decode workloads"
_Q4 = "ops_per_s on decode-q4-n60k-below"
_Q256 = "ops_per_s on decode-q256-n480-above"
_GRID = "ops_per_s on threshold-grid"
MOVES = {
    "smp.vn_update.ns_per_edge": _DECODE,
    "smp.vn_update.share": _DECODE + "; caps the gain of any other "
                                     "decoder layer",
    "smp.vn_update.tie_rate": "none: a property of the workload",
    "smp.cn_update.ns_per_edge": _DECODE + ", mostly decode-q4-n60k-below",
    "smp.decode.iterations_per_frame": _Q4 + " (early exit); stays at "
                                       "l_max on decode-q256-n480-above",
    "smp.decode.self_ns_per_edge_iter": _Q256,
    "galois.mul_vec.ns_per_elem": _DECODE,
    "galois.mul_vec.nonzero_frac": "none: a property of the workload",
    "galois.inv_vec.calls_per_frame": _DECODE + " (an exact count)",
    "channel.transmit.ns_per_symbol": _Q256,
    "montecarlo.simulate.self_s_per_frame": _Q256,
    "montecarlo.error_free_frac": "none: the input property the early "
                                  "exit depends on",
    "code.sample_code_s": "setup_s on the decode workloads",
    "montecarlo.default_schedule_s": "setup_s on the decode workloads",
    "de.cn_step.us_per_call": _GRID,
    "de.cn_step.calls": _GRID,
    "de.vn_step_bounded.us_per_call": _GRID,
    "de.vn_step_bounded.calls": _GRID,
    "de.vn_step_exact.us_per_call": _GRID,
    "de.vn_step_exact.calls": _GRID,
    "de.de_run.iterations_per_run": _GRID,
    "analysis.de_runs_per_cell": _GRID,
    "channel.shannon_limit_s": _GRID + "; stays near 0",
    "cli.self_s": _GRID + "; stays near 0",
    "trace.overhead_pct": "none: the cost of tracing itself",
}


def install(tracer) -> None:
    for owner, attr, span, count in WRAPS:
        tracer.wrap(owner, attr, span, count)


def missing(summary: dict, kind: str) -> list[str]:
    return [name for name in EXPECTED[kind]
            if summary.get(name, {}).get("calls", 0) == 0]


def metrics(summary: dict, kind: str, rounds: int, error_free: float,
            overhead_pct: float) -> dict[str, float]:
    """Layer metrics from one traced set-up plus the traced rounds.

    DE call counts are per grid pass on the threshold grid and per
    set-up (the schedule's DE run) on the decode workloads.
    """
    empty = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}

    def span(name):
        return summary.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    vn, cn = span("smp.vn_update"), span("smp.cn_update")
    dec, sim = span("smp.decode"), span("montecarlo.simulate")
    mul, tx = span("galois.mul_vec"), span("channel.transmit")
    run, main = span("de.de_run"), span("cli.main")
    per_unit = rounds if kind == "grid" else 1
    out = {
        "smp.vn_update.ns_per_edge": ratio(vn["total_ns"], vn.get("edges")),
        "smp.vn_update.share": ratio(vn["total_ns"], sim["total_ns"]),
        "smp.vn_update.tie_rate": ratio(vn.get("ties", 0), vn.get("edges")),
        "smp.cn_update.ns_per_edge": ratio(cn["total_ns"], cn.get("edges")),
        "smp.decode.iterations_per_frame": ratio(cn["calls"], dec["calls"]),
        "smp.decode.self_ns_per_edge_iter": ratio(dec["self_ns"],
                                                  cn.get("edges")),
        "galois.mul_vec.ns_per_elem": ratio(mul["total_ns"], mul.get("elems")),
        "galois.mul_vec.nonzero_frac": ratio(mul.get("nonzero", 0),
                                             mul.get("elems")),
        "galois.inv_vec.calls_per_frame": ratio(span("galois.inv_vec")["calls"],
                                                sim["calls"]),
        "channel.transmit.ns_per_symbol": ratio(tx["total_ns"],
                                                tx.get("symbols")),
        "montecarlo.simulate.self_s_per_frame": ratio(sim["self_ns"],
                                                      sim["calls"]) / 1e9,
        "montecarlo.error_free_frac": error_free,
        "code.sample_code_s": span("code.sample_code")["total_ns"] / 1e9,
        "montecarlo.default_schedule_s":
            span("montecarlo.default_schedule")["total_ns"] / 1e9,
        "de.de_run.iterations_per_run": ratio(run.get("iterations", 0),
                                              run["calls"]),
        "analysis.de_runs_per_cell": ratio(run["calls"], main["calls"]),
        "channel.shannon_limit_s": ratio(
            span("channel.shannon_limit")["total_ns"], main["calls"]) / 1e9,
        "cli.self_s": ratio(main["self_ns"], main["calls"]) / 1e9,
        "trace.overhead_pct": overhead_pct,
    }
    for step in ("cn_step", "vn_step_bounded", "vn_step_exact"):
        s = span(f"de.{step}")
        out[f"de.{step}.us_per_call"] = ratio(s["total_ns"], s["calls"]) / 1e3
        out[f"de.{step}.calls"] = s["calls"] / per_unit
    return out
