"""Float Grassmann kernel over dense mask vectors.

A float-coefficient Grassmann number on n generators is held as a complex
vector over the 2^n monomial masks; a batch of them is an array of shape
(..., 2^n).  Every product of two batches is one ``_tmul`` through a sparse
Koszul pair table, the float counterpart of ``GrassmannNumber.__mul__``.  A
table is built from the masks where its factors can be non-zero, never from
all 3^n triples of n, and cached; ``_mul`` reads those masks off the
factors.  The Euler step program of ``supersle.sde`` runs the same multiply,
signs and reduceat on the columns of its work array.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from supersle.grassmann import FLOAT, GrassmannNumber, _merge_sign


def _gvec(g: GrassmannNumber, n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    for mask, c in g.terms.items():
        v[mask] = complex(c)
    return v


def _gnum(vec: np.ndarray, n: int) -> GrassmannNumber:
    terms = {m: c for m, c in enumerate(vec.tolist()) if c != 0}
    return GrassmannNumber(n, FLOAT, terms)


def _restrict(n: int, lsup, rsup):
    """The pair table of n generators restricted to left masks lsup and
    right masks rsup, from the cache of ``_live_table``.

    Returns (dst, left, right, sign, starts): the triples (i, j, sign) with
    psi_i psi_j = sign psi_k, k = i | j, i in lsup and j in rsup, grouped by
    k in ascending (k, i) order; a k that meets three of them takes its
    whole group of submasks, as numpy sums a group pairwise.  For batches
    that vanish off lsup and rsup, the run from starts[g] then sums to the
    bits of the product over all 3^n triples at dst[g] (up to the sign of a
    zero); dst is the support of the product.  The arrays are read-only.
    """
    lkey, rkey = (tuple(sorted(set(np.asarray(s, dtype=int).tolist())))
                  for s in (lsup, rsup))
    return _live_table(n, lkey, rkey)


@cache
def _live_table(n: int, lsup: tuple, rsup: tuple):
    groups = {}
    for i in lsup:
        for j in rsup:
            if not i & j:
                groups.setdefault(i | j, []).append(i)
    dst = sorted(groups)
    left, right, signs, starts = [], [], [], []
    for k in dst:
        subs = groups[k]
        if len(subs) > 2:  # every submask of k, ascending
            subs, i = [0], k
            while i:
                subs.append(i)
                i = (i - 1) & k
            subs.sort()
        starts.append(len(left))
        for i in subs:
            left.append(i)
            right.append(k ^ i)
            signs.append(_merge_sign(i, k ^ i))
    table = (np.array(dst, dtype=int), np.array(left, dtype=int),
             np.array(right, dtype=int), np.array(signs, dtype=float),
             np.array(starts, dtype=int))
    for a in table:
        a.flags.writeable = False
    return table


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B on the table of the masks where A and B are non-zero in some row."""
    return _tmul(_restrict(A.shape[-1].bit_length() - 1, *(
        np.flatnonzero(X.reshape(-1, X.shape[-1]).any(axis=0))
        for X in (A, B))), A, B)


def _tmul(table, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B through a pair table, zero off its dst.

    A and B may differ in leading shape; the product takes the shape of the
    table's sums.
    """
    dst, left, right, signs, starts = table
    terms = np.multiply(np.multiply(A[..., left], B[..., right]), signs)
    out = np.zeros(terms.shape[:-1] + A.shape[-1:], dtype=complex)
    out[..., dst] = np.add.reduceat(terms, starts, axis=-1)
    return out
