"""Tests for Tanner graph sampling, validation and writing as text."""

import io

import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import edge_vn, labeled_alist
from smpdec.galois import build_field
from smpdec.code import CodeGraph, sample_code, save_code


F4 = build_field(2)
F8 = build_field(3)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

def test_sample_code_counts():
    code = sample_code(10, 3, 5, F4, seed=7)
    assert code.n == 10
    assert code.m_checks == 6
    assert code.edge_cn.size == 30
    # regular CN degrees; each VN owns dv consecutive edges by construction
    assert np.all(np.bincount(code.edge_cn, minlength=6) == 5)
    # labels nonzero and in range
    assert np.all(code.edge_label >= 1)
    assert np.all(code.edge_label < 4)


@pytest.mark.parametrize("code", [
    sample_code(10, 3, 5, F4, seed=7),
    # checks out of edge order: edge 0 is on CN 1, and CN 0's edges are
    # 1, 2 and 4
    CodeGraph(n=3, dv=2, dc=3, field=F4,
              edge_cn=np.array([1, 0, 0, 1, 0, 1]),
              edge_label=np.ones(6, dtype=np.int32)),
], ids=["sampled", "built"])
def test_cn_sockets_hold_each_check_in_one_column(code):
    sockets = code.cn_sockets
    assert sockets.shape == (code.dc, code.m_checks)
    assert np.array_equal(code.edge_cn[sockets],
                          np.tile(np.arange(code.m_checks), (code.dc, 1)))
    assert np.array_equal(np.sort(sockets, axis=None),
                          np.arange(code.edge_cn.size))
    assert np.all(np.diff(sockets, axis=0) > 0)


def test_sample_code_divisibility_error():
    with pytest.raises(ValueError):
        sample_code(10, 3, 4, F4, seed=0)


def test_sample_code_degree_constraints():
    with pytest.raises(ValueError):
        sample_code(10, 1, 5, F4, seed=0)
    with pytest.raises(ValueError):
        sample_code(10, 3, 3, F4, seed=0)
    # two checks cannot give a variable node three distinct neighbours
    with pytest.raises(ValueError, match="parallel-edge repair failed "
                                         "after 50 attempts"):
        sample_code(4, 3, 6, F4, seed=0)


def test_sample_code_deterministic():
    a = sample_code(60, 3, 6, F4, seed=123)
    b = sample_code(60, 3, 6, F4, seed=123)
    assert np.array_equal(a.edge_cn, b.edge_cn)
    assert np.array_equal(a.edge_label, b.edge_label)
    c = sample_code(60, 3, 6, F4, seed=124)
    assert not (np.array_equal(a.edge_cn, c.edge_cn)
                and np.array_equal(a.edge_label, c.edge_label))


@pytest.mark.parametrize("seed", range(20))
def test_sample_code_no_parallel_edges(seed):
    code = sample_code(30, 3, 5, F8, seed=seed)
    pairs = set(zip(edge_vn(code).tolist(), code.edge_cn.tolist()))
    assert len(pairs) == code.edge_cn.size


# ----------------------------------------------------------------------
# Ensemble statistics
# ----------------------------------------------------------------------

def test_socket_matching_is_uniform():
    # For VN 0's first socket, the attached CN should be uniform over all
    # CNs across seeds. Chi-square sanity check with a loose p-value.
    n, dv, dc = 6, 2, 3
    m_checks = n * dv // dc
    counts = np.zeros(m_checks)
    trials = 600
    for seed in range(trials):
        code = sample_code(n, dv, dc, F4, seed=seed)
        counts[code.edge_cn[0]] += 1
    assert chisquare(counts).pvalue > 1e-4


def test_labels_uniform():
    code = sample_code(600, 3, 6, F8, seed=11)
    counts = np.bincount(code.edge_label, minlength=8)[1:]
    assert chisquare(counts).pvalue > 1e-4


# ----------------------------------------------------------------------
# Writing as text
# ----------------------------------------------------------------------

def test_save_code_writes_labeled_alist():
    for code in (sample_code(20, 3, 6, F8, seed=3),
                 sample_code(10, 2, 4, F4, seed=9)):
        buf = io.StringIO()
        save_code(code, buf)
        assert buf.getvalue() == labeled_alist(code)


# ----------------------------------------------------------------------
# Direct construction
# ----------------------------------------------------------------------

def test_codegraph_validates_invariants():
    edge_cn = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    labels = np.array([1, 2, 3, 1, 2, 3], dtype=np.int32)
    code = CodeGraph(n=3, dv=2, dc=3, field=F4,
                     edge_cn=edge_cn, edge_label=labels)
    assert code.m_checks == 2

    bad = labels.copy()
    bad[0] = 0
    with pytest.raises(ValueError, match="nonzero field elements"):
        CodeGraph(n=3, dv=2, dc=3, field=F4,
                  edge_cn=edge_cn, edge_label=bad)

    # one edge too few
    with pytest.raises(ValueError, match="length n\\*dv"):
        CodeGraph(n=3, dv=2, dc=3, field=F4,
                  edge_cn=edge_cn[:-1], edge_label=labels[:-1])

    # VN degrees hold, but CN 0 gets four edges and CN 1 two
    uneven = np.array([0, 1, 0, 1, 0, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="degree dc"):
        CodeGraph(n=3, dv=2, dc=3, field=F4,
                  edge_cn=uneven, edge_label=labels)

    # n*dv = 6 sockets cannot fill checks of degree 4
    with pytest.raises(ValueError, match="not divisible"):
        CodeGraph(n=3, dv=2, dc=4, field=F4,
                  edge_cn=edge_cn, edge_label=labels)

    # degrees hold, but VNs 0 and 1 each meet one CN twice
    parallel = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="same CN"):
        CodeGraph(n=3, dv=2, dc=3, field=F4,
                  edge_cn=parallel, edge_label=labels)
