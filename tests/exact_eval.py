"""Exact evaluation of a Laurent superfunction at a superpoint, through the
Grassmann soul and the terminating Neumann inverse.

These are the references that the float Euler step program of
``supersle.sde`` and the Grassmann arithmetic are checked against; the
package itself evaluates superfunctions only through that program.
"""

from supersle.grassmann import GrassmannNumber, NotInvertible


def soul(g: GrassmannNumber) -> GrassmannNumber:
    """g without its body, the term on the empty mask."""
    return GrassmannNumber(g.n, g.ring, {m: c for m, c in g.terms.items() if m})


def inverse(g: GrassmannNumber) -> GrassmannNumber:
    b = g.body()
    if b == 0:
        raise NotInvertible("element has vanishing body")
    binv = 1 / b  # Integer(1) / b exactly, or 1.0 / b in floats
    # terminating Neumann series: (b + s)^-1 = b^-1 sum_k (-s/b)^k
    x = soul(g) * (-binv)
    out = GrassmannNumber.scalar(1, g.n, g.ring)
    power = GrassmannNumber.scalar(1, g.n, g.ring)
    for _ in range(g.n):
        power = power * x
        if power.is_zero():
            break
        out = out + power
    return out * binv


def evaluate(F, p) -> GrassmannNumber:
    """The value a(z) + theta b(z) of the superfunction F at the point p."""
    exps = set(F.a) | set(F.b)
    if not exps:
        return GrassmannNumber.zero(p.z.n, p.z.ring)
    powers = {0: GrassmannNumber.scalar(1, p.z.n, p.z.ring)}
    lo, hi = min(exps), max(exps)
    zinv = inverse(p.z) if lo < 0 else None
    for k in range(1, hi + 1):
        powers[k] = powers[k - 1] * p.z
    for k in range(-1, lo - 1, -1):
        powers[k] = powers[k + 1] * zinv
    out = GrassmannNumber.zero(p.z.n, p.z.ring)
    for k, c in F.a.items():
        out = out + c * powers[k]
    bval = GrassmannNumber.zero(p.z.n, p.z.ring)
    for k, c in F.b.items():
        bval = bval + c * powers[k]
    return out + p.theta * bval
