"""Command-line interface.

Every report command emits CSV (default) or JSON.  Both formats embed
the full run configuration: JSON output nests it under a ``config``
key, CSV output carries it in leading ``#`` comment lines, and codegen
prepends the same comments to the graph file.  CSV is the intended
interface for external plotting; ``simulate --plot`` can additionally
render the waterfall directly, importing matplotlib only when asked.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .analysis import table_report
from .channel import capacity, shannon_limit
from .code import check_degrees, sample_code, save_code
from .de import de_run
from .galois import build_field
from .montecarlo import StopRule, simulate

#: CSV column order of each report; the README lists the JSON keys too.
DE_COLUMNS = ("iteration", "p0_lower", "p0_upper", "xi_lower", "xi_upper")
TABLE_COLUMNS = ("dv", "dc", "q", "eps_star_lower", "eps_star_upper",
                 "eps_shannon")
RESULT_COLUMNS = ("epsilon", "frames", "symbol_errors", "ser", "fer")


def _config_for(args: argparse.Namespace) -> dict:
    """Provenance block embedded in every output."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "func")}
    return {"command": args.command, "version": __version__,
            "options": options}


def _field_order(q: int) -> int:
    """Degree m of the field GF(2^m) of order q; other orders are refused."""
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise ValueError(f"field order must be a power of two >= 2, got {q}")
    return m


def _tokens(text: str) -> list[str]:
    """Entries of a comma-separated list, which must name at least one."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"expected a comma-separated list with at least "
                         f"one entry, got {text!r}")
    return tokens


def _field_orders(text: str) -> list[int]:
    """Entries of a comma-separated list, each checked by _field_order."""
    orders = [int(tok) for tok in _tokens(text)]
    for q in orders:
        _field_order(q)
    return orders


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in _tokens(text)]


def _comment_block(config: dict) -> str:
    return (f"# smpdec {config['version']}\n"
            f"# config: {json.dumps(config, sort_keys=True)}\n")


def _render(config: dict, fmt: str, rows, columns) -> str:
    """Rows as CSV with comment header, or as a JSON document."""
    if fmt == "json":
        return json.dumps({"config": config, "results": rows},
                          indent=2) + "\n"
    buf = io.StringIO()
    buf.write(_comment_block(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    if isinstance(rows, dict):
        rows = [rows]
    for row in rows:
        writer.writerow([row[col] for col in columns])
    return buf.getvalue()


def _cmd_capacity(args: argparse.Namespace) -> str:
    _field_order(args.q)
    result = {"q": args.q, "epsilon": args.eps,
              "capacity": capacity(args.q, args.eps)}
    return _render(_config_for(args), args.format, result,
                   ("q", "epsilon", "capacity"))


def _cmd_shannon(args: argparse.Namespace) -> str:
    check_degrees(args.dv, args.dc)
    rate = 1.0 - args.dv / args.dc
    rows = [{"q": q, "rate": rate, "eps_shannon": shannon_limit(q, rate)}
            for q in _field_orders(args.q)]
    return _render(_config_for(args), args.format, rows,
                   ("q", "rate", "eps_shannon"))


def _cmd_de(args: argparse.Namespace) -> str:
    _field_order(args.q)
    trace = de_run(args.dv, args.dc, args.q, args.eps, l_max=args.iters,
                   mode=args.mode)
    if args.format == "json":
        results = {"dv": args.dv, "dc": args.dc, "q": args.q,
                   "epsilon": args.eps, "mode": trace.mode,
                   "converged": trace.converged,
                   "converged_upper": trace.converged_upper,
                   "iterations_run": trace.iterations_run,
                   "records": [{"p0": [r.p0.lower, r.p0.upper],
                                "xi": [r.xi.lower, r.xi.upper]}
                               for r in trace.records]}
    else:
        results = [{"iteration": i,
                    "p0_lower": rec.p0.lower, "p0_upper": rec.p0.upper,
                    "xi_lower": rec.xi.lower, "xi_upper": rec.xi.upper}
                   for i, rec in enumerate(trace.records)]
    return _render(_config_for(args), args.format, results, DE_COLUMNS)


def _cmd_threshold(args: argparse.Namespace) -> str:
    rows = table_report(args.dv, args.dc, _field_orders(args.q),
                        mode=args.mode, bisect_tol=args.tol,
                        l_max=args.iters)
    return _render(_config_for(args), args.format, rows, TABLE_COLUMNS)


def _cmd_simulate(args: argparse.Namespace) -> str:
    field = build_field(_field_order(args.q))
    code = sample_code(args.n, args.dv, args.dc, field, seed=args.seed)
    epsilons = [args.eps] if args.eps is not None \
        else _float_list(args.eps_grid)
    frame_target = None if args.frame_errors == 0 else args.frame_errors
    stop = StopRule(max_frames=args.max_frames,
                    target_frame_errors=frame_target)
    # one seed at every epsilon couples the noise monotonically across them
    results = [simulate(code, eps, args.iters, stop=stop, seed=args.seed,
                        workers=args.workers) for eps in epsilons]
    rows = [{"epsilon": eps, "frames": r.frames_run,
             "symbol_errors": r.symbol_errors,
             "frame_errors": r.frame_errors, "ser": r.ser, "fer": r.fer,
             "wall_time": r.wall_time} for eps, r in zip(epsilons, results)]
    if args.plot:
        _render_waterfall(epsilons, results, args.plot)
    return _render(_config_for(args), args.format, rows, RESULT_COLUMNS)


def _render_waterfall(eps: list[float], results, path: str) -> None:
    """Error rates versus flip probability, saved as an image file."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise RuntimeError(
            "matplotlib is required for --plot; install smpdec[plot]"
        ) from None
    positive = [v for r in results for v in (r.ser, r.fer) if v > 0]
    bottom = min(positive) / 2 if positive else 1e-6
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(eps, [max(r.ser, bottom) for r in results], "o-",
                label="SER")
    ax.semilogy(eps, [max(r.fer, bottom) for r in results], "s--",
                label="FER")
    ax.set_xlabel("channel flip probability")
    ax.set_ylabel("error rate")
    ax.set_ylim(bottom=bottom)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)


def _cmd_codegen(args: argparse.Namespace) -> str:
    field = build_field(_field_order(args.q))
    code = sample_code(args.n, args.dv, args.dc, field, seed=args.seed)
    buf = io.StringIO()
    buf.write(_comment_block(_config_for(args)))
    save_code(code, buf)
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpdec",
        description="Symbol message passing decoding of q-ary LDPC codes "
                    "over the q-ary symmetric channel.")
    parser.add_argument("--version", action="version",
                        version=f"smpdec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
        p.add_argument("--out", metavar="PATH",
                       help="write output to this file instead of stdout")

    def add_ensemble_flags(p: argparse.ArgumentParser, **q_options) -> None:
        p.add_argument("--dv", type=int, required=True)
        p.add_argument("--dc", type=int, required=True)
        p.add_argument("--q", required=True, **q_options)

    def add_mode_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("exact", "bounded"),
                       help="default: exact for q = 2, bounded otherwise")

    p = sub.add_parser("capacity", help="QSC capacity at one flip "
                                        "probability")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("shannon", help="Shannon limit of the QSC at the "
                                       "(dv, dc) design rate")
    add_ensemble_flags(p, help="field order, or comma-separated list")
    add_output_flags(p)
    p.set_defaults(func=_cmd_shannon)

    p = sub.add_parser("de", help="density evolution trajectory at one "
                                  "operating point")
    add_ensemble_flags(p, type=int)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--iters", type=int, default=2000,
                   help="iteration cap (default: 2000)")
    add_mode_flag(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_de)

    p = sub.add_parser("threshold", help="decoding threshold table for one "
                                         "ensemble")
    add_ensemble_flags(p, help="field order, or comma-separated list")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="bisection tolerance (default: 1e-4)")
    p.add_argument("--iters", type=int, default=2000,
                   help="iteration cap per evolution run (default: 2000)")
    add_mode_flag(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("simulate", help="Monte Carlo error rates on a "
                                        "sampled code")
    add_ensemble_flags(p, type=int)
    p.add_argument("--n", type=int, required=True,
                   help="codeword length")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float,
                       help="single flip probability")
    group.add_argument("--eps-grid",
                       help="comma-separated flip probabilities")
    p.add_argument("--iters", type=int, default=100,
                   help="decoder iterations per frame (default: 100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="process count (default: 1)")
    p.add_argument("--max-frames", type=int, default=10_000)
    p.add_argument("--frame-errors", type=int, default=100,
                   help="stop after this many frame errors; "
                        "0 disables the target (default: 100)")
    p.add_argument("--plot", metavar="PATH",
                   help="render the waterfall to this image file "
                        "(requires matplotlib)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("codegen", help="sample a code graph and write it "
                                       "in labeled-alist format")
    p.add_argument("--n", type=int, required=True)
    add_ensemble_flags(p, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH",
                   help="write the graph to this file instead of stdout")
    p.set_defaults(func=_cmd_codegen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
