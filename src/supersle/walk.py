"""Random walks on the Virasoro supergroup and their superspace SDEs.

A walk is specified by the finitely supported coefficients of

    alpha_0 = sum_n (y_{0,n} L_n + eta_{0,n} G_{n+1/2})
    beta_i  = sum_n (y_{i,n} L_n + eta_{i,n} G_{n+1/2}),   i = 1..b

with y even and eta odd Grassmann numbers.  The induced Ito differentials of
the superspace coordinate (z', theta') have diffusion coefficients

    z_i'     = -sum_n (y_{i,n} + theta' eta_{i,n}) z'^{n+1}
    theta_i' = -sum_n ((n+1)/2 theta' y_{i,n} + z' eta_{i,n}) z'^n

and drift (z_0', theta_0') given by the same formulas for the alpha_0
coefficients plus the Ito correction 1/2 sum_i (z_i' d_z + theta_i' d_theta)
applied to z_i' and theta_i'.

The link to representation theory: (alpha_0 + 1/2 sum_i beta_i^2)|Delta>
is the drift of E[G_t|Delta>]; the process is a martingale in the quotient
module exactly when this vector is proportional to the level-3/2 singular
vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from supersle.grassmann import (
    EVEN,
    EXACT,
    ODD,
    CoefficientRing,
    GrassmannNumber,
    make_generator,
    parse_grassmann,
)
from supersle.ns_algebra import (
    G,
    L,
    AlgebraElement,
    ModuleParams,
    VermaModule,
    VermaVector,
    _exact_kappa,
    params_from_kappa_ns,
    quotient_projection,
    singular_vector_32,
)
from supersle.superfield import LaurentSuperfunction, theta_times, z_power


@dataclass(frozen=True)
class WalkSpec:
    """Coefficients of a random walk on the Virasoro supergroup.

    ``alpha0`` and each ``beta[i]`` map the mode offset n to a pair
    (y_n, eta_n); y coefficients must be even, eta odd.  ``theta_index``
    optionally names the Grassmann generator reserved for the theta
    direction of initial conditions; ``odd_unit`` is the product y*eta of
    the defining parameters, used when comparing across allocations.
    """

    brownian_dim: int
    alpha0: dict
    beta: tuple
    theta_index: int | None = None
    odd_unit: GrassmannNumber | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.brownian_dim < 1:
            raise ValueError("brownian_dim must be >= 1")
        if len(self.beta) != self.brownian_dim:
            raise ValueError("need one beta coefficient table per Brownian index")
        for table in (self.alpha0, *self.beta):
            for n, (y, eta) in table.items():
                if not y.is_zero() and y.parity() != EVEN:
                    raise ValueError(f"y coefficient at n={n} must be even")
                if not eta.is_zero() and eta.parity() != ODD:
                    raise ValueError(f"eta coefficient at n={n} must be odd")
        object.__setattr__(self, "beta", tuple(self.beta))

    @property
    def num_generators(self) -> int:
        return max((c.n for t in (self.alpha0, *self.beta)
                    for pair in t.values() for c in pair), default=0)

    @property
    def ring(self) -> CoefficientRing:
        for t in (self.alpha0, *self.beta):
            for pair in t.values():
                for c in pair:
                    return c.ring
        return EXACT

    @classmethod
    def from_json(cls, data: dict, ring: CoefficientRing = EXACT) -> "WalkSpec":
        n = int(data.get("n", 0))
        zero = GrassmannNumber.zero(n, ring)

        def table(t):
            out = {}
            for k, entry in t.items():
                y = parse_grassmann(entry["y"], n, ring) if "y" in entry else zero
                eta = parse_grassmann(entry["eta"], n, ring) if "eta" in entry else zero
                out[int(k)] = (y, eta)
            return out

        return cls(int(data["b"]), table(data.get("alpha0", {})),
                   tuple(table(t) for t in data.get("beta", [])))


@dataclass(frozen=True)
class SdeSystem:
    """Drift and per-Brownian-index diffusion coefficient superfunctions."""

    drift: tuple      # (z_0', theta_0')
    diffusion: tuple  # ((z_1', theta_1'), ...)


# -- standard walk specifications ----------------------------------------------


def _sqrt_kappa(kappa, ring: CoefficientRing):
    if ring.kind == "exact":
        return sp.sqrt(_exact_kappa(kappa))
    k = float(kappa)
    if k <= 0:
        raise ValueError("kappa must be positive")
    return math.sqrt(k)


def spec_32(kappa, ring: CoefficientRing = EXACT) -> WalkSpec:
    """One-dimensional walk with nilpotent y: y = p0 p1, eta = p2, theta ~ p3."""
    n = 4
    y = make_generator(0, n, ring) * make_generator(1, n, ring)
    eta = make_generator(2, n, ring)
    zero = GrassmannNumber.zero(n, ring)
    sk = _sqrt_kappa(kappa, ring)
    return WalkSpec(
        brownian_dim=1,
        alpha0={-2: (zero, -(y * eta))},
        beta=({-1: (y * sk, eta * sk)},),
        theta_index=3,
        odd_unit=y * eta,
        name="32",
    )


def spec_32alt(kappa, ring: CoefficientRing = EXACT) -> WalkSpec:
    """Two-dimensional walk with scalar y = 1: eta = p0, theta ~ p1."""
    n = 2
    one = GrassmannNumber.scalar(1, n, ring)
    eta = make_generator(0, n, ring)
    zero = GrassmannNumber.zero(n, ring)
    sk = _sqrt_kappa(kappa, ring)
    i_unit = sp.I if ring.kind == "exact" else 1j
    return WalkSpec(
        brownian_dim=2,
        alpha0={-2: (zero, -eta)},
        beta=({-1: (one * sk, eta * sk)},
              {-1: (one * (i_unit * sk), zero)}),
        theta_index=1,
        odd_unit=eta,
        name="32alt",
    )


def spec_virasoro(kappa, ring: CoefficientRing = EXACT) -> WalkSpec:
    """Ordinary SLE walk: alpha_0 = -2 L_{-2}, beta = sqrt(kappa) L_{-1}."""
    zero = GrassmannNumber.zero(0, ring)
    sk = _sqrt_kappa(kappa, ring)
    return WalkSpec(
        brownian_dim=1,
        alpha0={-2: (GrassmannNumber.scalar(-2, 0, ring), zero)},
        beta=({-1: (GrassmannNumber.scalar(sk, 0, ring), zero)},),
        theta_index=None,
        odd_unit=GrassmannNumber.scalar(1, 0, ring),
        name="virasoro",
    )


def standard_spec(name: str, kappa, ring: CoefficientRing = EXACT) -> WalkSpec:
    builders = {"32": spec_32, "32alt": spec_32alt, "virasoro": spec_virasoro}
    if name not in builders:
        raise ValueError(f"unknown spec {name!r}; choose from {sorted(builders)}")
    return builders[name](kappa, ring)


# -- walk -> SDE translation ----------------------------------------------------


def _half(ring: CoefficientRing):
    return sp.Rational(1, 2) if ring.kind == "exact" else 0.5


def _coefficient_pair(table):
    """(z', theta') superfunctions for one coefficient table (Eq.-style sums)."""
    a_z, b_z, a_t, b_t = {}, {}, {}, {}
    for n, (y, eta) in table.items():
        if not y.is_zero():
            a_z[n + 1] = a_z.get(n + 1, GrassmannNumber.zero(y.n, y.ring)) - y
            if n + 1 != 0:
                coeff = sp.Rational(n + 1, 2) if y.ring.kind == "exact" else (n + 1) / 2
                b_t[n] = b_t.get(n, GrassmannNumber.zero(y.n, y.ring)) - y * coeff
        if not eta.is_zero():
            b_z[n + 1] = b_z.get(n + 1, GrassmannNumber.zero(eta.n, eta.ring)) - eta
            a_t[n + 1] = a_t.get(n + 1, GrassmannNumber.zero(eta.n, eta.ring)) - eta
    return (LaurentSuperfunction(a_z, b_z), LaurentSuperfunction(a_t, b_t))


def diffusion_from_spec(spec: WalkSpec):
    """Per-i diffusion coefficient functions (z_i', theta_i')."""
    return tuple(_coefficient_pair(t) for t in spec.beta)


def drift_from_spec(spec: WalkSpec):
    """Drift coefficient functions (z_0', theta_0'), Ito correction included."""
    zp0, tp0 = _coefficient_pair(spec.alpha0)
    half = _half(spec.ring)
    for zi, ti in diffusion_from_spec(spec):
        corr_z = zi * zi.z_derivative() + ti * zi.theta_derivative()
        corr_t = zi * ti.z_derivative() + ti * ti.theta_derivative()
        zp0 = zp0 + corr_z * half
        tp0 = tp0 + corr_t * half
    return zp0, tp0


def sde_system(spec: WalkSpec) -> SdeSystem:
    return SdeSystem(drift=drift_from_spec(spec), diffusion=diffusion_from_spec(spec))


# -- primary-superfield commutators (the central identity) ----------------------


def primary_mode_commutator(mode, delta, phi: LaurentSuperfunction) -> LaurentSuperfunction:
    """[L_n, Phi] or [G_r, Phi] for an even primary superfield of weight delta."""
    delta = sp.sympify(delta)
    theta = theta_times({0: 1})
    if mode.kind == "L":
        n = int(mode.index)
        out = z_power(n + 1) * phi.z_derivative()
        out = out + (z_power(n) * (theta * phi.theta_derivative())) * sp.Rational(n + 1, 2)
        out = out + (z_power(n) * phi) * (delta * (n + 1))
        return out
    r = Fraction(mode.index)
    k = int(r - Fraction(1, 2))  # r - 1/2
    out = z_power(k + 1) * (phi.theta_derivative() - theta * phi.z_derivative())
    out = out - (theta * (z_power(k) * phi)) * (delta * (2 * sp.Rational(r) + 1))
    return out


def beta_commutator(spec: WalkSpec, i: int, delta,
                    phi: LaurentSuperfunction) -> LaurentSuperfunction:
    """[beta_i, Phi_delta] computed mode by mode from the primary-field rules."""
    out = LaurentSuperfunction()
    for n, (y, eta) in spec.beta[i].items():
        if not y.is_zero():
            out = out + primary_mode_commutator(L(n), delta, phi).lmul(y)
        if not eta.is_zero():
            out = out + primary_mode_commutator(G(Fraction(2 * n + 1, 2)), delta,
                                                phi).lmul(eta)
    return out


def coefficient_route_commutator(spec: WalkSpec, i: int, delta,
                                 phi: LaurentSuperfunction) -> LaurentSuperfunction:
    """-(z_i' d_z + theta_i' d_theta + 2 delta (D theta_i')) Phi."""
    zi, ti = diffusion_from_spec(spec)[i]
    out = zi * phi.z_derivative() + ti * phi.theta_derivative()
    out = out + (ti.superderivative() * phi) * (2 * sp.sympify(delta))
    return -out


# -- drift vectors and singular-vector matching ----------------------------------


def _table_element(table) -> AlgebraElement:
    """sum_n (y_n L_n + eta_n G_{n+1/2}) for one coefficient table."""
    terms = {}
    for n, (y, eta) in table.items():  # zero coefficients are dropped
        terms[(L(n),)], terms[(G(Fraction(2 * n + 1, 2)),)] = y, eta
    return AlgebraElement(terms)


def alpha_element(spec: WalkSpec) -> AlgebraElement:
    return _table_element(spec.alpha0)


def beta_element(spec: WalkSpec, i: int) -> AlgebraElement:
    return _table_element(spec.beta[i])


def drift_generator(spec: WalkSpec) -> AlgebraElement:
    """alpha_0 + 1/2 sum_i beta_i^2 in the enveloping algebra."""
    out = alpha_element(spec)
    half = _half(spec.ring)
    for i in range(spec.brownian_dim):
        b = beta_element(spec, i)
        out = out + (b * b) * half
    return out


def drift_vector(spec: WalkSpec, params: ModuleParams) -> VermaVector:
    """(alpha_0 + 1/2 sum beta_i^2)|Delta> in the PBW basis."""
    module = VermaModule(params)
    return module.apply(drift_generator(spec),
                        module.vacuum(n=spec.num_generators, ring=spec.ring))


def reduced_drift_vector(spec: WalkSpec, params: ModuleParams) -> dict:
    """Scalar coefficients of the drift vector along the spec's y*eta unit.

    Makes drift vectors comparable across different Grassmann allocations.
    """
    if spec.odd_unit is None or len(spec.odd_unit.terms) != 1:
        raise ValueError("spec does not define a monomial odd unit")
    (mask, unit_coeff), = spec.odd_unit.terms.items()
    v = drift_vector(spec, params)
    out = {}
    for mono, c in v.entries.items():
        if set(c.terms) - {mask}:
            raise ValueError("drift vector has components off the y*eta unit")
        if mask in c.terms:
            out[mono] = sp.expand(sp.sympify(c.terms[mask]) / unit_coeff)
    return out


def match_singular(spec: WalkSpec, kappa) -> dict:
    """Solve drift_vector = lambda * chi exactly; residual should vanish."""
    params = params_from_kappa_ns(kappa)
    v = drift_vector(spec, params)
    chi = singular_vector_32(params)
    # chi's G_{-3/2} coefficient is Delta + 1/2 = 1/kappa, never zero
    lam = v.coefficient((G(Fraction(-3, 2)),)) / (params.delta + sp.Rational(1, 2))
    residual = v - chi.lmul(lam)
    return {"params": params, "proportionality": lam, "residual": residual,
            "matched": residual.is_zero()}


def martingale_drift(spec: WalkSpec, params: ModuleParams,
                     cutoff=None) -> VermaVector:
    """Quotient-projected drift vector; zero iff G_t|Delta> is a martingale."""
    P = quotient_projection(params, cutoff)
    return P(drift_vector(spec, params))
