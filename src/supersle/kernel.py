"""Float Grassmann kernel over dense mask vectors.

A float-coefficient Grassmann number on n generators is held as a complex
vector over the 2^n monomial masks; a batch of them is an array of shape
(..., 2^n).  Every product of two batches is one ``_tmul`` through a sparse
Koszul pair table, the float counterpart of ``GrassmannNumber.__mul__``:
``_bmul`` runs it on the whole table of n, and factors known to vanish off
some masks may run on the table restricted to them, with the same non-zero
bits.  A restricted table's indices may also be remapped to the columns of
a compact array, as in the Euler step program of ``supersle.sde``, where
every product has one shape at every batch width.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from supersle.grassmann import FLOAT, GrassmannNumber, NotInvertible, _merge_sign


@cache
def _pair_table(n: int):
    """Koszul pair table of the Grassmann algebra on n generators, as the
    (dst, left, right, signs, starts) of ``_tmul``: the 3^n triples
    (i, j, sign) with psi_i psi_j = sign psi_k, i a submask of k and
    j = k ^ i, grouped by k from ``starts[k]``, and dst every mask k.
    """
    left, right, signs, starts = [], [], [], []
    for k in range(1 << n):
        starts.append(len(left))
        subs = [k]
        i = k
        while i:
            i = (i - 1) & k
            subs.append(i)
        for i in reversed(subs):
            left.append(i)
            right.append(k ^ i)
            signs.append(_merge_sign(i, k ^ i))
    return (np.arange(1 << n), np.array(left), np.array(right),
            np.array(signs, dtype=float), np.array(starts))


def _bmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched Grassmann product of (..., 2^n) coefficient arrays."""
    return _tmul(_pair_table(A.shape[-1].bit_length() - 1), A, B)


def _binv(A: np.ndarray) -> np.ndarray:
    """Batched inverse via the Neumann series over the nilpotent soul."""
    body = A[..., 0]
    if (body == 0.0).any():
        raise NotInvertible("vanishing body in batched inverse")
    minus_soul = -A
    minus_soul[..., 0] = 0.0
    out = np.zeros(A.shape, dtype=A.dtype)
    out[..., 0] = 1.0 / body
    power, bpow = minus_soul, body
    for _ in range(A.shape[-1].bit_length() - 1):  # soul^m = 0 for m > n
        if not power.any():
            break
        bpow = bpow * body
        out += power / bpow[..., None]
        power = _bmul(power, minus_soul)
    return out


def _gvec(g: GrassmannNumber, n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    for mask, c in g.terms.items():
        v[mask] = complex(c)
    return v


def _gnum(vec: np.ndarray, n: int) -> GrassmannNumber:
    terms = {m: c for m, c in enumerate(vec.tolist()) if c != 0}
    return GrassmannNumber(n, FLOAT, terms)


def _restrict(n: int, lsup, rsup):
    """The pair table restricted to left masks lsup and right masks rsup.

    Returns (dst, left, right, sign, starts): in table order, the triples
    (i, j, sign) with i in lsup and j in rsup, and the whole group of a k
    that meets three of them, as numpy sums that group pairwise.  For
    batches of equal shape that vanish off lsup and rsup, the run from
    starts[g] then sums to the bits of ``_bmul``'s dst[g] entry (up to the
    sign of a zero); dst is the support of the product.
    """
    _, left, right, signs, starts = _pair_table(n)
    on = np.zeros((2, 1 << n), dtype=bool)
    on[0, lsup] = True
    on[1, rsup] = True
    live = on[0, left] & on[1, right]
    crowded = np.add.reduceat(live, starts, dtype=int) > 2
    k = left | right
    keep = np.flatnonzero(live | crowded[k])
    dst = k[keep]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    return dst[starts], left[keep], right[keep], signs[keep], starts


def _tmul(table, A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    """A B through a pair table, whole or restricted, zero off its dst.

    A and B may differ in leading shape; the product takes the shape of the
    table's sums.  With ``out``, the sums are written there in dst order
    instead, left and right index the last axes of A and B, signs may be
    None for all +1, and starts None when every group is one triple.
    """
    dst, left, right, signs, starts = table
    direct = out if starts is None else None  # the terms are the sums
    terms = np.multiply(A[..., left], B[..., right],
                        out=direct if signs is None else None)
    if signs is not None:
        terms = np.multiply(terms, signs, out=direct)
    if out is None:
        out = np.zeros(terms.shape[:-1] + A.shape[-1:], dtype=complex)
        out[..., dst] = np.add.reduceat(terms, starts, axis=-1)
    elif direct is None:
        np.add.reduceat(terms, starts, axis=-1, out=out)
    return out
