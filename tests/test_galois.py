"""Tests for GF(2^m) arithmetic.

The oracle used throughout is carry-less polynomial multiplication with
explicit modular reduction (``oracles.clmul_mod``), implemented
independently of the table based arithmetic under test.
"""

import numpy as np
import pytest

from oracles import clmul_mod
from smpdec.galois import PRIMITIVE_POLY, build_field


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def x_order(poly: int, m: int) -> int:
    """Multiplicative order of x in GF(2)[x] / poly."""
    n = (1 << m) - 1
    acc = 1
    for k in range(1, n + 1):
        acc = clmul_mod(acc, 2, poly, m)
        if acc == 1:
            return k
    return 0


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(poly: int, m: int) -> bool:
    """Check that x has full order 2^m - 1 modulo poly.

    Full order of x implies irreducibility of poly: the unit group of
    GF(2)[x]/poly has fewer than 2^m - 1 elements whenever poly is
    reducible, so no element can reach that order.
    """
    if poly >> m != 1 or not poly & 1:
        return False
    n = (1 << m) - 1

    def powx(e: int) -> int:
        result, base = 1, 2
        while e:
            if e & 1:
                result = clmul_mod(result, base, poly, m)
            base = clmul_mod(base, base, poly, m)
            e >>= 1
        return result

    if powx(n) != 1:
        return False
    return all(powx(n // r) != 1 for r in prime_factors(n))


# ----------------------------------------------------------------------
# Table construction
# ----------------------------------------------------------------------

def test_build_field_small_examples():
    f2 = build_field(1)
    assert f2.q == 2
    assert list(f2.exp_table) == [1]

    f4 = build_field(2)
    assert f4.q == 4
    # alpha = x (value 2), alpha^2 = x + 1 (value 3) under x^2 = x + 1
    assert list(f4.exp_table) == [1, 2, 3]

    f8 = build_field(3)
    # powers of x modulo x^3 + x + 1
    assert list(f8.exp_table) == [1, 2, 4, 3, 6, 7, 5]


@pytest.mark.parametrize("m", range(1, 17))
def test_table_invariants(m):
    f = build_field(m)
    assert f.q == 1 << m
    assert len(f.exp_table) == f.q - 1
    assert f.exp_table[0] == 1
    # alpha is primitive: its powers enumerate all q-1 nonzero elements
    assert len(set(f.exp_table.tolist())) == f.q - 1
    # log/exp round-trip for every nonzero element
    for x in range(1, f.q):
        assert f.exp_table[f.log_table[x]] == x


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_exp_table_matches_clmul_oracle(m):
    f = build_field(m)
    poly = PRIMITIVE_POLY[m]
    acc = 1
    for i in range(f.q - 1):
        assert f.exp_table[i] == acc
        acc = clmul_mod(acc, 2, poly, m)


def test_build_field_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_field(0)
    with pytest.raises(ValueError):
        build_field(17)


# ----------------------------------------------------------------------
# Primitive polynomial list
# ----------------------------------------------------------------------

def test_listed_polynomials_are_primitive():
    for m, poly in PRIMITIVE_POLY.items():
        assert is_primitive(poly, m), f"m={m}: 0b{poly:b} is not primitive"


@pytest.mark.parametrize("m", range(11, 17))
def test_polynomials_above_degree_ten_are_lowest(m):
    """For m = 11..16 the contract is the lowest primitive polynomial.

    Lowest means the smallest bit-encoded integer (LSB = x^0), which equals
    lexicographic order on coefficient strings read from x^m downwards.
    """
    listed = PRIMITIVE_POLY[m]
    for cand in range((1 << m) + 1, listed, 2):
        assert not is_primitive(cand, m), (
            f"m={m}: 0b{cand:b} is primitive and smaller than 0b{listed:b}")


# ----------------------------------------------------------------------
# Arithmetic: mul_vec and inv_vec against the carry-less oracle
# ----------------------------------------------------------------------

def _oracle_products(a: np.ndarray, b: np.ndarray, m: int) -> list[int]:
    poly = PRIMITIVE_POLY[m]
    return [clmul_mod(x, y, poly, m) for x, y in zip(a.tolist(), b.tolist())]


def test_mul_identities():
    f = build_field(4)
    a = np.arange(1, f.q)
    b = np.arange(f.q)
    assert np.array_equal(f.mul_vec(a, np.ones_like(a)), a)
    assert not f.mul_vec(a, np.zeros_like(a)).any()
    assert np.array_equal(f.mul_vec(np.ones_like(b), b), b)


def test_mul_gf8_against_oracle():
    f = build_field(3)
    # spot value: 5 * 6 under x^3 + x + 1
    assert clmul_mod(5, 6, 0b1011, 3) == 3
    assert f.mul_vec(np.array([5]), np.array([6])).tolist() == [3]


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_exhaustive_against_oracle(m):
    # every pair with a nonzero first factor, as mul_vec requires
    f = build_field(m)
    a = np.repeat(np.arange(1, f.q), f.q)
    b = np.tile(np.arange(f.q), f.q - 1)
    assert f.mul_vec(a, b).tolist() == _oracle_products(a, b, m)


def test_mul_vec_matches_scalar():
    # m = 9 is the first field multiplied through the log tables
    rng = np.random.default_rng(7)
    for m in (9, 10, 16):
        f = build_field(m)
        a = rng.integers(1, f.q, size=100_000)  # nonzero, as for edge labels
        b = rng.integers(0, f.q, size=100_000)
        assert f.mul_vec(a, b).tolist() == _oracle_products(a, b, m), m


def _check_axioms(f, a, b, c):
    """Commutativity, associativity and distributivity over XOR.

    a and b must be nonzero; c may be zero.
    """
    mul = f.mul_vec
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = build_field(m)
    nonzero = np.arange(1, f.q)
    a, b, c = (x.ravel() for x in np.meshgrid(nonzero, nonzero,
                                               np.arange(f.q), indexing="ij"))
    _check_axioms(f, a, b, c)


@pytest.mark.parametrize("m", [8, 10, 16])
def test_field_axioms_sampled(m):
    f = build_field(m)
    rng = np.random.default_rng(2024)
    a, b = rng.integers(1, f.q, size=(2, 10_000))
    c = rng.integers(0, f.q, size=10_000)
    _check_axioms(f, a, b, c)


@pytest.mark.parametrize("m", range(1, 11))
def test_inverse(m):
    f = build_field(m)
    a = np.arange(1, f.q)
    assert set(_oracle_products(a, f.inv_vec(a), m)) == {1}


def test_inv_vec_matches_scalar():
    f = build_field(16)
    a = np.random.default_rng(11).integers(1, f.q, size=20_000)
    assert set(_oracle_products(a, f.inv_vec(a), 16)) == {1}
