"""Labeled regular Tanner graphs from the (dv, dc, q) ensemble.

Graphs are sampled with the configuration model: VN sockets are matched
to CN sockets by a uniform random permutation and every edge carries an
independent uniform nonzero label. Parallel edges are removed by random
edge swaps; this deviates from the pure permutation ensemble (which
permits them) because parallel edges degrade finite-length performance
without affecting the asymptotic analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TextIO

import numpy as np

from .galois import FieldSpec

_REPAIR_ROUNDS = 200
_SAMPLE_ATTEMPTS = 50


@dataclass(eq=False)
class CodeGraph:
    """A labeled regular Tanner graph.

    Edges are stored in VN-major order: edge e = v * dv + slot connects
    VN v through its slot-th socket, so the VN endpoints and ``m_checks``
    are fixed by (n, dv, dc) and not stored.
    The graph is simple: no VN has two edges to the same CN, whether it
    was sampled or built directly. Instances are treated as immutable
    after construction.

    Attributes
    ----------
    n : int
        Number of variable nodes.
    dv, dc : int
        Variable and check node degrees.
    field : FieldSpec
        The label alphabet GF(q).
    edge_cn : np.ndarray
        CN endpoint index per edge.
    edge_label : np.ndarray
        Nonzero labels per edge.
    """

    n: int
    dv: int
    dc: int
    field: FieldSpec
    edge_cn: np.ndarray = field(repr=False)
    edge_label: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = self.n * self.dv
        if e % self.dc != 0:
            raise ValueError(f"n*dv = {e} is not divisible by dc = {self.dc}")
        if self.edge_cn.shape != (e,) or self.edge_label.shape != (e,):
            raise ValueError("edge arrays must have length n*dv")
        if not np.all(np.bincount(self.edge_cn, minlength=self.m_checks) == self.dc):
            raise ValueError("every CN must have degree dc")
        if _parallel_rows(self.edge_cn, self.n, self.dv).size:
            raise ValueError("a VN has two edges to the same CN")
        if np.any(self.edge_label < 1) or np.any(self.edge_label >= self.field.q):
            raise ValueError("labels must be nonzero field elements")

    @property
    def m_checks(self) -> int:
        """Number of check nodes, n * dv / dc."""
        return self.n * self.dv // self.dc

    @cached_property
    def inv_label(self) -> np.ndarray:
        """Multiplicative inverse of every edge label."""
        return self.field.inv_vec(self.edge_label)

    @cached_property
    def cn_edge_perm(self) -> np.ndarray:
        """Edge permutation that groups edges by CN (dc consecutive each)."""
        return np.argsort(self.edge_cn, kind="stable")


def check_degrees(dv: int, dc: int) -> None:
    """Reject degrees outside the ensembles analysed: 2 <= dv < dc.

    Sampling and density evolution apply this one rule; dc > dv keeps
    the design rate 1 - dv/dc positive.
    """
    if dv < 2:
        raise ValueError(f"variable node degree must be at least 2, got {dv}")
    if dc <= dv:
        raise ValueError("check node degree must exceed variable node "
                         f"degree, got dv={dv}, dc={dc}")


def sample_code(n: int, dv: int, dc: int, field: FieldSpec, seed: int) -> CodeGraph:
    """Sample a graph from the (dv, dc, q) ensemble, repaired to be simple.

    Parameters
    ----------
    n : int
        Codeword length (number of VNs); n * dv must be divisible by dc.
    dv, dc : int
        Degrees, with dv >= 2 and dc > dv.
    field : FieldSpec
        Label alphabet.
    seed : int
        Sampling is deterministic given the seed.

    Returns
    -------
    CodeGraph

    Raises
    ------
    ValueError
        On a negative seed, a length below 1, degree or divisibility
        violations, or if parallel-edge repair fails for every
        resampling attempt.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if n < 1:
        raise ValueError(f"codeword length must be positive, got {n}")
    check_degrees(dv, dc)
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv = {n * dv} is not divisible by dc = {dc}")
    n_edges = n * dv

    for attempt in range(_SAMPLE_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), attempt]))
        edge_cn = rng.permutation(n_edges) // dc
        if _repair_parallel_edges(edge_cn, n, dv, rng):
            labels = rng.integers(1, field.q, size=n_edges, dtype=np.int32)
            return CodeGraph(n=n, dv=dv, dc=dc, field=field,
                             edge_cn=edge_cn, edge_label=labels)
    raise ValueError(f"parallel-edge repair failed after {_SAMPLE_ATTEMPTS} attempts")


def _parallel_rows(edge_cn: np.ndarray, n: int, dv: int) -> np.ndarray:
    """Indices of the VNs with two or more edges to the same CN."""
    rows = np.sort(edge_cn.reshape(n, dv), axis=1)
    return np.nonzero((np.diff(rows, axis=1) == 0).any(axis=1))[0]


def _repair_parallel_edges(edge_cn: np.ndarray, n: int, dv: int,
                           rng: np.random.Generator) -> bool:
    """Swap CN endpoints of duplicated edges until the graph is simple.

    Swapping endpoints between two edges preserves all CN degrees. Returns
    False if conflicts persist after the round budget.
    """
    n_edges = edge_cn.size
    for _ in range(_REPAIR_ROUNDS):
        dup_rows = _parallel_rows(edge_cn, n, dv)
        if dup_rows.size == 0:
            return True
        partners = rng.integers(0, n_edges, size=dup_rows.size)
        for v, f in zip(dup_rows.tolist(), partners.tolist()):
            base = v * dv
            row = edge_cn[base:base + dv].tolist()
            seen = set()
            for slot, c in enumerate(row):
                if c in seen:
                    break
                seen.add(c)
            e = base + slot
            edge_cn[e], edge_cn[f] = edge_cn[f], edge_cn[e]
    return False


def save_code(code: CodeGraph, sink: TextIO) -> None:
    """Write a graph in the labeled-alist text format.

    Header line ``n m_checks dv dc q``, then one line per VN listing
    ``cn_index:label`` pairs with 1-based CN indices.
    """
    sink.write(f"{code.n} {code.m_checks} {code.dv} {code.dc} {code.field.q}\n")
    cn = code.edge_cn
    labels = code.edge_label
    for v in range(code.n):
        base = v * code.dv
        pairs = " ".join(f"{cn[e] + 1}:{labels[e]}"
                         for e in range(base, base + code.dv))
        sink.write(pairs + "\n")
