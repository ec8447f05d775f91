"""smpdec benchmark: decode throughput and threshold-grid latency.

Run from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Workloads and metrics are declared in BENCHMARK.json. One run measures
one workload in a single process with one worker (``workers=1``), in
whole rounds (a frame, or a pass over the grid) until ``--seconds`` is
spent to within half a round.

``--trace 0`` reports the end-to-end metrics. An operation is a frame on
the decode workloads and a grid cell on the threshold grid, so
``ops_per_s`` reads as frames or cells per second. Operation times on
decode-q256-n480-above and threshold-grid are normalized for the
machine's drift (see reference.py), and decode-q4-n60k-below uses the
wall clock; the wall-clock values of every workload are printed too.
``op_s_tail`` is the highest percentile of operation time with at least
ten operations beyond it (the maximum when a run has fewer than eleven);
the percentile and the sample count are printed. ``setup_s`` is the
median wall-clock time of SETUP_REPS fresh processes that each import
smpdec and build the workload's inputs, half of them run before the
measurement and half after it. It is not normalized: set-up times did
not follow the reference kernel's drift, and normalizing them nearly
tripled their run-to-run spread.

``--trace 1`` spends half the time untraced, then replays the same
operations with the layer functions wrapped (see layers.py). It reports
the per-layer metrics, fails if a traced output differs from its
untraced one, and exits non-zero if an expected layer function was never
called.

The last line of stdout is the result object; the lines before it give
the provenance of the run and the metrics by name. ``--smoke`` runs
every workload at a tiny size, traced and untraced, and checks that each
metric in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh processes timed for setup_s.
SETUP_REPS = 8


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for checking the benchmark")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at smoke size and check "
                        "the emitted metrics against BENCHMARK.json")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure(work, budget: float, rounds: list | None = None):
    """Run rounds until the budget is spent to within half a round.

    With ``rounds`` given, replays exactly those operation lists. The
    reference kernel runs before the first operation, after the last,
    and between operations at least reference.EVERY_S apart.

    Returns the operations as (key, seconds, output), each operation's
    time rescaled to the nominal reference speed, and the operation
    lists of the rounds run.
    """
    import reference

    clock = time.perf_counter
    ops, spans, done, round_times = [], [], [], []
    ref_at, ref_s = [clock()], [reference.seconds()]
    t0 = clock()
    while True:
        r = len(done)
        if rounds is not None and r == len(rounds):
            break
        keys = rounds[r] if rounds is not None else work.round(r)
        r0 = clock()
        for key in keys:
            if clock() - ref_at[-1] >= reference.EVERY_S:
                ref_at.append(clock())
                ref_s.append(reference.seconds())
            s = clock()
            out = work.run(key)
            e = clock()
            ops.append((key, e - s, out))
            spans.append((s, e))
        round_times.append(clock() - r0)
        done.append(keys)
        elapsed = clock() - t0
        if rounds is None and \
                elapsed + statistics.median(round_times) / 2 >= budget:
            break
    ref_at.append(clock())
    ref_s.append(reference.seconds())
    return ops, reference.normalize(ops, spans, ref_at, ref_s), done


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def setup_times(args, reps: int) -> list[float]:
    """Set-up times of ``reps`` fresh processes: import plus inputs.

    Each process times itself from its first import to its last input
    built.
    """
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    raw = []
    for _ in range(reps):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.split()[-1]))
    return raw


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_bytes(level: int) -> int | None:
    """Per-instance unified/data cache size of CPU 0 at ``level``."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level") == str(level) and \
                _read(index / "type") in ("Unified", "Data"):
            size = _read(index / "size")
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        head = commit
    return head or "unknown (not a git checkout)"


def provenance(args, work) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    l2 = _cache_bytes(2)
    info = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "size": args.size, "seconds": args.seconds, "workers": 1,
        "nproc": os.cpu_count(), "cpu_model": model,
        "l2_bytes_per_core": l2, "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
    }
    if work.kind == "grid":
        info["de_cache"] = "cold at every cell, as one CLI process per cell"
    else:
        ws = work.working_set()
        ws["computed"] = "from array shapes, not measured"
        if l2:
            ws["vn_update_over_l2"] = ws["vn_update_bytes"] / l2
            ws["cn_update_over_l2"] = ws["cn_update_bytes"] / l2
        info["working_set"] = ws
    return info


def run_untraced(args, work):
    # Set-up times drift over tens of seconds, so they are sampled on
    # both sides of the measurement.
    before = setup_times(args, SETUP_REPS // 2)
    work.setup()
    ops, norm, _ = measure(work, args.seconds)
    setup_s = statistics.median(
        before + setup_times(args, SETUP_REPS - SETUP_REPS // 2))
    bad = work.failures(ops)
    raw = [t for _, t, _ in ops]
    speed = sum(norm) / sum(raw)
    if work.normalize:
        lat = norm
        clock = f"normalized to reference speed (machine ran at {speed:.3f}x)"
    else:
        lat = raw
        clock = f"wall clock (machine ran at {speed:.3f}x reference speed)"
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    plural = work.op + "s"
    notes = [
        f"{plural}_per_s = ops_per_s; {work.op}_s_p50 = op_s_p50; "
        f"{work.op}_s_tail = op_s_tail at p{pct:.1f} of {len(lat)} "
        f"{plural}; operation times: {clock}",
        f"wall clock: {plural}_per_s = {len(raw) / sum(raw):.6g} 1/s, "
        f"{work.op}_s_p50 = {statistics.median(raw):.6g} s, "
        f"{work.op}_s_tail = {tail(raw)[0]:.6g} s",
        f"failed_frac = {sum(bad) / len(ops):.6g} "
        f"({sum(bad)} of {len(ops)} {plural})"]
    if work.kind == "decode":
        notes.append(f"frame_errors = {sum(out[1] for _, _, out in ops)} "
                     f"of {len(ops)} frames")
        known = work.known_failures(ops)
        if known:
            notes.append(f"known decoder defect: pool frames {known} fail "
                         f"below the DE threshold, as frozen in expected.py")
    return ops, bad, metrics, notes


def run_traced(args, work):
    import layers
    from tracer import Tracer

    work.setup()
    plain, plain_norm, rounds = measure(work, args.seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        work.setup()
        traced, traced_norm, _ = measure(work, 0.0, rounds=rounds)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    lost = layers.missing(summary, work.kind)
    if lost:
        raise SystemExit(f"traced pass never called: {', '.join(lost)}")
    differs = [p[2] != t[2] for p, t in zip(plain, traced)]
    bad = work.failures(plain) + [
        f or d for f, d in zip(work.failures(traced), differs)]
    if not work.normalize:
        plain_norm = [t for _, t, _ in plain]
        traced_norm = [t for _, t, _ in traced]
    overhead = 100.0 * (sum(traced_norm) / sum(plain_norm) - 1.0)
    error_free = 0.0
    if work.kind == "decode":
        error_free = sum(out[0] == 0 for _, _, out in traced) / len(traced)
    metrics = layers.metrics(summary, work.kind, len(rounds), error_free,
                             overhead)
    notes = [f"traced {len(traced)} {work.op}s after the same "
             f"{len(plain)} untraced; {sum(differs)} outputs differ; "
             f"overhead {overhead:.2f}%"]
    return plain + traced, bad, metrics, notes


def emit(spec: dict, trace: int, ops, bad, metrics, notes, info) -> None:
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}
    print(json.dumps({"provenance": info}))
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": not any(bad), "attempted": len(ops),
                      "failed": sum(bad), "metrics": out}))


def smoke() -> int:
    """Every workload tiny, traced and untraced; check names and units."""
    import layers

    spec = json.loads(SPEC.read_text())
    problems = []
    if set(layers.MOVES) != {m["name"] for m in spec["per_layer"]}:
        problems.append("layers.MOVES does not cover exactly the per_layer "
                        "metrics of BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload",
                   w["name"], "--seed", "7", "--seconds", "1", "--trace",
                   str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if got != want:
                problems.append(f"{tag}: metrics or units differ from "
                                f"BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {res}")
            if not trace and not all(v["value"] > 0
                                     for v in res["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is not > 0")
            print(f"{tag}: {len(got)} metrics, {res['attempted']} ops")
    for p in problems:
        print("FAIL", p)
    print("smoke", "FAIL" if problems else "OK")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "smpdec" / "__init__.py").is_file():
        print(f"error: no smpdec sources under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads
        workloads.make(args.workload, args.seed, args.size == "smoke").setup()
        print(time.perf_counter() - t0)
        return 0
    if args.smoke:
        return smoke()
    spec = json.loads(SPEC.read_text())
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = workloads.make(args.workload, args.seed, args.size == "smoke")
    run = run_traced if args.trace else run_untraced
    ops, bad, metrics, notes = run(args, work)
    emit(spec, args.trace, ops, bad, metrics, notes, provenance(args, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
