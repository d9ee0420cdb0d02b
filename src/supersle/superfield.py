"""Superspace coordinates and Laurent superfunctions.

A superfunction F(z, theta) = a(z) + theta*b(z) is stored through the sparse
Laurent coefficients of its two components; theta is a formal odd symbol kept
to the *left* of b(z).  Coefficients are Grassmann numbers, so moving theta
through a coefficient x costs the grade involution: x*theta = theta*inv(x).

The superderivative is D = d/dtheta + theta d/dz (left-derivative
convention), and a map (z', theta') is superconformal iff Dz' = theta' Dtheta'.
"""
from __future__ import annotations

from dataclasses import dataclass

from supersle.grassmann import EVEN, ODD, GrassmannNumber, format_grassmann


class ParityError(ValueError):
    """A component has the wrong Grassmann parity."""


@dataclass(frozen=True)
class SuperPoint:
    """A point (z, theta) with z even and theta odd (zero allowed)."""

    z: GrassmannNumber
    theta: GrassmannNumber

    def __post_init__(self):
        if self.z.parity() != EVEN:
            raise ParityError("z component must be even")
        if not self.theta.is_zero() and self.theta.parity() != ODD:
            raise ParityError("theta component must be odd")


def _poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out[k] + v if k in out else v
    return _poly_clean(out)


def _poly_clean(p):
    return {k: v for k, v in p.items() if not v.is_zero()}


def _poly_neg(p):
    return {k: -v for k, v in p.items()}


def _poly_mul(p, q):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = k1 + k2
            prod = v1 * v2
            out[k] = out[k] + prod if k in out else prod
    return _poly_clean(out)


def _poly_dz(p):
    return _poly_clean({k - 1: v * k for k, v in p.items() if k != 0})


def _poly_map(p, f):
    return _poly_clean({k: f(v) for k, v in p.items()})


class LaurentSuperfunction:
    """F(z, theta) = a(z) + theta*b(z) with sparse Laurent components."""

    __slots__ = ("a", "b")

    def __init__(self, a=None, b=None):
        object.__setattr__(self, "a", _poly_clean(dict(a or {})))
        object.__setattr__(self, "b", _poly_clean(dict(b or {})))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSuperfunction is immutable")

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return LaurentSuperfunction(_poly_add(self.a, other.a),
                                    _poly_add(self.b, other.b))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentSuperfunction(_poly_neg(self.a), _poly_neg(self.b))

    # -- products ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, LaurentSuperfunction):
            # (a1 + th b1)(a2 + th b2) = a1 a2 + th (inv(a1) b2 + b1 a2)
            a = _poly_mul(self.a, other.a)
            b = _poly_add(
                _poly_mul(_poly_map(self.a, lambda x: x.grade_involution()), other.b),
                _poly_mul(self.b, other.a))
            return LaurentSuperfunction(a, b)
        # right multiplication by a scalar-like factor
        return LaurentSuperfunction(_poly_map(self.a, lambda x: x * other),
                                    _poly_map(self.b, lambda x: x * other))

    def lmul(self, g: GrassmannNumber) -> "LaurentSuperfunction":
        """Left multiplication by a Grassmann number g."""
        gi = g.grade_involution()
        return LaurentSuperfunction(_poly_map(self.a, lambda x: g * x),
                                    _poly_map(self.b, lambda x: gi * x))

    # -- calculus ---------------------------------------------------------

    def z_derivative(self) -> "LaurentSuperfunction":
        return LaurentSuperfunction(_poly_dz(self.a), _poly_dz(self.b))

    def theta_derivative(self) -> "LaurentSuperfunction":
        """Left derivative d/dtheta: (a + th b) -> b."""
        return LaurentSuperfunction(self.b, {})

    def superderivative(self) -> "LaurentSuperfunction":
        """D F = b(z) + theta a'(z)."""
        return LaurentSuperfunction(self.b, _poly_dz(self.a))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other):
        if not isinstance(other, LaurentSuperfunction):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        fmt = lambda p: {k: format_grassmann(v) for k, v in sorted(p.items())}
        return f"LaurentSuperfunction(a={fmt(self.a)}, b={fmt(self.b)})"


def z_power(k: int, n: int = 0) -> LaurentSuperfunction:
    return LaurentSuperfunction({k: GrassmannNumber.scalar(1, n)}, {})


def theta_times(poly, n: int = 0) -> LaurentSuperfunction:
    """theta * (sum_k c_k z^k) for a plain {exp: coeff-like} mapping."""
    b = {}
    for k, c in poly.items():
        b[k] = c if isinstance(c, GrassmannNumber) else GrassmannNumber.scalar(c, n)
    return LaurentSuperfunction({}, b)


def is_superconformal(zp: LaurentSuperfunction, thetap: LaurentSuperfunction):
    """Test Dz' = theta' Dtheta' exactly; returns (bool, residual superfunction)."""
    residual = zp.superderivative() - thetap * thetap.superderivative()
    return residual.is_zero(), residual
