"""Arithmetic over GF(2^m) for message values and edge labels.

Fields are realized through exp/log tables with respect to a fixed
primitive element alpha = x, so that all results are reproducible across
runs. Vector multiplication, the decoder's field operation, takes two
paths. For m <= 8 it is one lookup in a q x q product table built from
those tables: at most 256 KB of int32, well inside a core's L2 cache.
The table grows fourfold with each degree above, to 16 GB at m = 16, so
larger fields multiply through two log lookups, one modular addition of
logarithms and an exp lookup on the nonzero entries. Either way a
product has unit cost, matching the accounting used in the decoder's
complexity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Fixed primitive polynomials, bit-encoded with LSB = x^0. Entries for
# m = 1..10 are pinned by the external interface contract. Entries for
# m = 11..16 are the lowest primitive polynomial of each degree, where
# "lowest" means the smallest bit-encoded integer (equivalently, the
# lexicographically smallest coefficient string read from x^m downwards);
# they were found by exhaustive search over all odd candidates and are
# re-verified by the test suite.
PRIMITIVE_POLY: dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000101011,   # x^14 + x^5 + x^3 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10000000000101101, # x^16 + x^5 + x^3 + x^2 + 1
}

#: Largest extension degree multiplied through a q x q product table
#: (see the module docstring).
PRODUCT_TABLE_MAX_M = 8


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A finite field GF(2^m) with exp/log tables for a primitive alpha.

    Attributes
    ----------
    m : int
        Extension degree, 1 <= m <= 16.
    q : int
        Field order, 2^m.
    primitive_poly : int
        Bit-encoded primitive polynomial (LSB = x^0).
    exp_table : np.ndarray
        exp_table[i] = alpha^i, length q - 1, exp_table[0] = 1.
    log_table : np.ndarray
        log_table[x] = i such that alpha^i = x, for nonzero x.
        Index 0 is unused.
    """

    m: int
    q: int
    primitive_poly: int
    exp_table: np.ndarray = field(repr=False)
    log_table: np.ndarray = field(repr=False)

    @cached_property
    def product_table(self) -> np.ndarray:
        """All q * q products, row a and column b at flat index (a << m) | b.

        Built on first use; ``mul_vec`` reads it for m <=
        PRODUCT_TABLE_MAX_M only. Row 0 and column 0 are zero.
        """
        log = self.log_table[1:]
        table = np.zeros((self.q, self.q), dtype=np.int32)
        table[1:, 1:] = self.exp_table[np.add.outer(log, log) % (self.q - 1)]
        table.flags.writeable = False
        return table.reshape(-1)

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two symbol arrays.

        Entries of `a` must be nonzero (as is the case for edge labels);
        entries of `b` may be zero. For m <= PRODUCT_TABLE_MAX_M this is
        one gather from ``product_table``; larger fields gather from the
        exp/log tables at the nonzero entries of `b`.
        """
        if self.m <= PRODUCT_TABLE_MAX_M:
            return self.product_table.take((a << self.m) | b)
        out = np.zeros_like(b)
        nz = b != 0
        out[nz] = self.exp_table[
            (self.log_table[a[nz]] + self.log_table[b[nz]]) % (self.q - 1)]
        return out

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse of an array of nonzero symbols."""
        return self.exp_table[(self.q - 1 - self.log_table[a]) % (self.q - 1)]


def build_field(m: int) -> FieldSpec:
    """Construct GF(2^m) for the fixed primitive polynomial of degree m.

    Parameters
    ----------
    m : int
        Extension degree, 1 <= m <= 16.

    Returns
    -------
    FieldSpec
        Immutable field description with exp/log tables.

    Raises
    ------
    ValueError
        If m is out of range.
    """
    if not isinstance(m, int) or not 1 <= m <= 16:
        raise ValueError(f"extension degree must be an integer in [1, 16], got {m}")
    poly = PRIMITIVE_POLY[m]
    q = 1 << m
    exp_table = np.zeros(q - 1, dtype=np.int32)
    log_table = np.zeros(q, dtype=np.int32)
    x = 1
    for i in range(q - 1):
        exp_table[i] = x
        log_table[x] = i
        x <<= 1
        if x & q:
            x ^= poly
    return FieldSpec(m=m, q=q, primitive_poly=poly,
                     exp_table=exp_table, log_table=log_table)
