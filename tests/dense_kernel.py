"""The dense Grassmann kernel: the whole 3^n Koszul pair table of n
generators, the product on it and the Neumann inverse of a batch.

``supersle.kernel`` builds each product's table from its factors' live
masks; these are the reference that the restricted products, the closed
forms and the Euler step program are checked against, bit for bit.
"""

from functools import cache

import numpy as np

from supersle.grassmann import NotInvertible, _merge_sign
from supersle.kernel import _tmul


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


def sliced_restrict(n: int, lsup, rsup):
    """The pair table restricted to left masks lsup and right masks rsup,
    sliced out of the whole table: the live triples, and the whole group of
    a k that meets three of them."""
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
