"""Oracles shared by several test modules, sharing no code with smpdec.

Field multiplication is carry-less polynomial multiplication with
explicit reduction by the field's primitive polynomial, so it shares
nothing with the exp/log tables of ``smpdec.galois`` but the polynomial
itself. The labeled-alist text of a graph is built from its edge arrays.
"""


def clmul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Multiply two field elements bit by bit, reducing modulo poly."""
    top = 1 << m
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return r


def gf_mul(field, a: int, b: int) -> int:
    """a * b in ``field``, through ``clmul_mod``."""
    return clmul_mod(a, b, field.primitive_poly, field.m)


def gf_inv(field, a: int) -> int:
    """Inverse of a nonzero a: a^(q - 2), by square and multiply."""
    result, e = 1, field.q - 2
    while e:
        if e & 1:
            result = gf_mul(field, result, a)
        a = gf_mul(field, a, a)
        e >>= 1
    return result


def labeled_alist(code) -> str:
    """The labeled-alist text of a graph, built from its edge arrays.

    Header ``n m_checks dv dc q``, then one line per VN of ``cn:label``
    tokens with 1-based CN indices, in edge order.
    """
    lines = [f"{code.n} {code.n * code.dv // code.dc} {code.dv} {code.dc} "
             f"{code.field.q}"]
    cn = code.edge_cn.reshape(code.n, code.dv).tolist()
    label = code.edge_label.reshape(code.n, code.dv).tolist()
    for row_cn, row_label in zip(cn, label):
        lines.append(" ".join(f"{c + 1}:{h}" for c, h in zip(row_cn, row_label)))
    return "\n".join(lines) + "\n"
