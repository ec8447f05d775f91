"""The benchmark's workloads: what each one runs and how it is checked.

A workload runs in rounds of operations. On the decode workloads an
operation is one frame, submitted as a one-frame ``simulate`` call, and a
round is one frame. The frames come from a fixed pool whose outputs are
frozen in ``expected``; the workload seed sets the order in which a run
draws them, so every frame of every run is checked for bit-identity.
On the threshold grid an operation is one cell, run
as ``smpdec threshold --dv D --dc C --q Q`` through an in-process
``cli.main`` call, and a round is one pass over every cell in an order
drawn from the seed. Each cell starts with a cold DE cache, as a fresh
CLI process would.

Every call into the program goes through a module or class attribute
(``smpdec.montecarlo.simulate``, ``smpdec.cli.main``, ...), so the
traced pass can wrap it there.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass, replace

import numpy as np

import smpdec.cli
import smpdec.code
import smpdec.de
import smpdec.galois
import smpdec.montecarlo

import expected

#: Seed of the frame pool whose outputs ``expected`` freezes: pool
#: frame i is simulated with seed frame_seed(POOL_SEED, i).
POOL_SEED = 2026

#: Frames a smoke run may draw (smoke outputs are not frozen).
SMOKE_POOL = 1000

GRID_ENSEMBLES = ((3, 5), (3, 6), (4, 8), (5, 10), (6, 12))
FIELD_ORDERS = (2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Tiny grid for smoke runs: exact DE (q = 2) and bounded DE both run.
SMOKE_CELLS = ((3, 5, 2), (4, 8, 8), (5, 10, 32))

#: Largest deviation of eps_star_lower from the paper's table.
THRESHOLD_TOL = 1e-3

#: Above threshold the run's symbol error rate must exceed this.
SER_ABOVE = 1e-2


@dataclass(frozen=True)
class DecodeSpec:
    m: int              # field GF(2^m)
    n: int
    eps: float
    l_max: int
    below: bool         # below the DE threshold
    normalize: bool     # see reference.py
    dv: int = 3
    dc: int = 6
    code_seed: int = 1


DECODE = {
    # Memory-bound frames whose slowdowns the in-cache reference kernel
    # does not track: normalizing them tripled their run-to-run spread,
    # so they are timed by the wall clock alone.
    "decode-q4-n60k-below": DecodeSpec(m=2, n=60_000, eps=0.080, l_max=200,
                                       below=True, normalize=False),
    "decode-q256-n480-above": DecodeSpec(m=8, n=480, eps=0.15, l_max=200,
                                         below=False, normalize=True),
}
GRID = "threshold-grid"
NAMES = (*DECODE, GRID)

_ONE_FRAME = smpdec.montecarlo.StopRule(max_frames=1,
                                        target_frame_errors=None)


def frame_seed(seed: int, index: int) -> int:
    """Simulation seed of frame ``index`` of the pool seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Decode:
    """Frames of one code at one flip probability, one frame per round."""

    kind = "decode"
    op = "frame"

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        spec = DECODE[name]
        self.spec = replace(spec, n=48, l_max=20) if smoke else spec
        self.smoke = smoke
        self.normalize = spec.normalize
        self.frozen = () if smoke else expected.SYMBOL_ERRORS[name]
        pool = SMOKE_POOL if smoke else len(self.frozen)
        self.order = random.Random(f"{seed}:frames").sample(range(pool), pool)

    def setup(self) -> None:
        s = self.spec
        field = smpdec.galois.build_field(s.m)
        self.code = smpdec.code.sample_code(s.n, s.dv, s.dc, field,
                                            seed=s.code_seed)
        self.schedule = smpdec.montecarlo.default_schedule(
            s.dv, s.dc, field.q, s.eps, s.l_max)

    def round(self, r: int) -> list:
        return [self.order[r % len(self.order)]]

    def run(self, index: int) -> tuple[int, int, int]:
        """Symbol errors, frame errors and frames run of pool frame ``index``."""
        s = self.spec
        res = smpdec.montecarlo.simulate(
            self.code, s.eps, s.l_max, schedule=self.schedule,
            stop=_ONE_FRAME, seed=frame_seed(POOL_SEED, index), workers=1)
        return res.symbol_errors, res.frame_errors, res.frames_run

    def failures(self, ops: list) -> list[bool]:
        """Per frame: does its result fail a check?

        Every frame must report one frame run and a frame error exactly
        when it has symbol errors, and at full size its symbol-error
        count must equal the frozen one. Above threshold the run's SER
        must also exceed SER_ABOVE.
        """
        n = self.spec.n
        bad = []
        for index, _, (errors, frame_errors, frames) in ops:
            ok = (frames == 1 and 0 <= errors <= n
                  and frame_errors == int(errors > 0))
            if self.frozen:
                ok = ok and errors == self.frozen[index]
            bad.append(not ok)
        if not self.spec.below and not self.smoke:
            ser = sum(out[0] for _, _, out in ops) / (n * len(ops))
            if ser <= SER_ABOVE:
                bad = [True] * len(ops)
        return bad

    def known_failures(self, ops: list) -> list[int]:
        """Pool frames run whose frozen outputs are decoding failures
        below the DE threshold: a known decoder defect (see expected)."""
        if not self.spec.below or self.smoke:
            return []
        return [index for index, _, _ in ops if self.frozen[index] > 0]

    def working_set(self) -> dict:
        return working_set_bytes(self.spec.n, self.spec.dv, self.spec.dc)


class Grid:
    """The paper's threshold tables, one CLI call per cell."""

    kind = "grid"
    op = "cell"
    normalize = True

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.cells = list(SMOKE_CELLS) if smoke else [
            (dv, dc, q) for dv, dc in GRID_ENSEMBLES for q in FIELD_ORDERS]
        self.seed = seed

    def setup(self) -> None:
        """Nothing beyond the import, as for a fresh CLI process."""

    def round(self, r: int) -> list:
        order = list(self.cells)
        random.Random(f"{self.seed}:{r}").shuffle(order)
        return order

    def run(self, cell: tuple) -> tuple[int, str]:
        dv, dc, q = cell
        smpdec.de._capped_assignments.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = smpdec.cli.main(["threshold", "--dv", str(dv), "--dc",
                                  str(dc), "--q", str(q)])
        return rc, buf.getvalue()

    def failures(self, ops: list) -> list[bool]:
        """Per cell: exit code 0 and eps_star_lower within 1e-3 of the paper."""
        bad = []
        for (dv, dc, q), _, (rc, text) in ops:
            rows = list(csv.DictReader(
                line for line in text.splitlines() if not line.startswith("#")))
            want = expected.PAPER_THRESHOLDS[dv, dc][FIELD_ORDERS.index(q)]
            ok = (rc == 0 and len(rows) == 1
                  and abs(float(rows[0]["eps_star_lower"]) - want)
                  <= THRESHOLD_TOL)
            bad.append(not ok)
        return bad


def make(name: str, seed: int, smoke: bool):
    if name == GRID:
        return Grid(name, seed, smoke)
    return Decode(name, seed, smoke)


def working_set_bytes(n: int, dv: int, dc: int) -> dict:
    """Bytes of the arrays one decoder update touches, from their shapes.

    Counts the inputs, outputs and the temporaries alive at the same
    time in ``smp.vn_update`` (one outgoing slot's scoring pass) and in
    ``smp.cn_update``; computed from the array shapes and dtypes at this
    commit, not measured.
    """
    e = n * dv
    table = n * (dv + 1)
    vn = (e * 4 + n * 4            # cn_to_vn, y
          + table * (4 + 8 + 1 + 8)  # cand, counts, canon, bonus
          + table * dv             # vote-equality temporary (bool)
          + e * 8                  # uniform draws
          + table * (8 + 1 + 8)    # scores, tied, cumsum of one slot
          + e * 4)                 # output
    cn = (e * 4 * 3                # input, edge labels, output
          + e * (1 + 4 * 3)        # mul_vec: nonzero mask, log gathers
          + e * 8 + e * 4 * 2      # CN permutation, permuted copy, extrinsic
          + e * 8                  # edge_cn gather index
          + (e // dc) * 4)         # CN totals
    return {"vn_update_bytes": vn, "cn_update_bytes": cn}
