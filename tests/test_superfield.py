import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from supersle.grassmann import EVEN, ODD, GrassmannNumber, NotInvertible, make_generator
from supersle.superfield import (
    LaurentSuperfunction,
    ParityError,
    SuperPoint,
    _poly_add,
    _poly_dz,
    _poly_mul,
    _poly_neg,
    is_superconformal,
    theta_times,
    z_power,
)

from exact_eval import evaluate

N = 4


def sc(x):
    return GrassmannNumber.scalar(x, N)


def gen(i):
    return make_generator(i, N)


def constant(g):
    return LaurentSuperfunction({0: g}, {})


# -- component form: an oracle for superconformality independent of D ----------


def components_to_map(g, gamma, tau, s):
    """Build (z', theta') = (g + theta*gamma, tau + theta*s) from components.

    Each component is a {exponent: GrassmannNumber} mapping; g, s must be
    even, gamma, tau odd.
    """
    for name, comp, want in (("g", g, EVEN), ("gamma", gamma, ODD),
                             ("tau", tau, ODD), ("s", s, EVEN)):
        for v in comp.values():
            if not v.is_zero() and v.parity() != want:
                raise ParityError(f"component {name} must be {want}")
    return LaurentSuperfunction(g, gamma), LaurentSuperfunction(tau, s)


def check_gts(zp, thetap) -> bool:
    """Verify gamma = tau*s and dg/dz = s^2 - tau dtau/dz for a built map."""
    g, gamma = zp.a, zp.b
    tau, s = thetap.a, thetap.b
    cond1 = _poly_add(gamma, _poly_neg(_poly_mul(tau, s)))
    rhs = _poly_add(_poly_mul(s, s), _poly_neg(_poly_mul(tau, _poly_dz(tau))))
    cond2 = _poly_add(_poly_dz(g), _poly_neg(rhs))
    return not cond1 and not cond2


def compose(F, zp, thetap):
    """F(z', theta') for polynomial F (non-negative exponents only)."""
    hi = max(list(F.a) + list(F.b) + [0])
    powers = {0: constant(sc(1))}
    for k in range(1, hi + 1):
        powers[k] = powers[k - 1] * zp
    out = LaurentSuperfunction()
    for k, c in F.a.items():
        out = out + powers[k].lmul(c)
    bpart = LaurentSuperfunction()
    for k, c in F.b.items():
        bpart = bpart + powers[k].lmul(c)
    return out + thetap * bpart


class TestEval:
    def test_inverse_power(self):
        F = z_power(-1, N)
        p = SuperPoint(sc(2), GrassmannNumber.zero(N))
        assert evaluate(F, p) == sc(sp.Rational(1, 2))

    def test_theta_itself(self):
        F = theta_times({0: 1}, N)
        p = SuperPoint(sc(3) + gen(0) * gen(1), gen(3))
        assert evaluate(F, p) == gen(3)

    def test_symbolic_point(self):
        t = sp.Symbol("t")
        F = LaurentSuperfunction({1: sc(1)}, {-1: gen(2) * t})
        p = SuperPoint(sc(2), gen(3))
        expected = sc(2) + gen(3) * gen(2) * (t / 2)
        assert evaluate(F, p) == expected

    def test_negative_exponent_at_zero_body(self):
        F = z_power(-1, N)
        p = SuperPoint(gen(0) * gen(1), GrassmannNumber.zero(N))
        with pytest.raises(NotInvertible):
            evaluate(F, p)


class TestSuperderivative:
    def test_d_theta(self):
        assert theta_times({0: 1}, N).superderivative() == constant(sc(1))

    def test_d_z(self):
        assert z_power(1, N).superderivative() == theta_times({0: 1}, N)

    def test_d_squared_is_dz(self):
        import random

        rnd = random.Random(3)
        for _ in range(100):
            a = {k: sc(rnd.randint(-3, 3)) for k in rnd.sample(range(-3, 4), 3)}
            b = {k: gen(2) * rnd.randint(-3, 3) for k in rnd.sample(range(-3, 4), 2)}
            F = LaurentSuperfunction(a, b)
            assert F.superderivative().superderivative() == F.z_derivative()


class TestSuperconformal:
    def test_identity_map(self):
        zp = z_power(1, N)
        thetap = theta_times({0: 1}, N)
        ok, residual = is_superconformal(zp, thetap)
        assert ok and residual.is_zero()

    def test_translation_type_solution_map(self):
        # z' = z - c + theta*eta*(I - d), theta' = theta + eta*(I - d)
        c, Iv, d = sp.symbols("c I_v d")
        eta = gen(0)
        shift = eta * (Iv - d)
        zp = LaurentSuperfunction({1: sc(1), 0: sc(-c)}, {0: shift})
        thetap = LaurentSuperfunction({0: shift}, {0: sc(1)})
        ok, residual = is_superconformal(zp, thetap)
        assert ok and residual.is_zero()

    def test_z_squared_fails(self):
        zp = z_power(2, N)
        thetap = theta_times({0: 1}, N)
        ok, residual = is_superconformal(zp, thetap)
        assert not ok
        assert residual == LaurentSuperfunction({}, {1: sc(2), 0: sc(-1)})


class TestComponents:
    def test_identity(self):
        zp, thetap = components_to_map({1: sc(1)}, {}, {}, {0: sc(1)})
        assert check_gts(zp, thetap)
        assert is_superconformal(zp, thetap)[0]

    def test_nilpotent_tau(self):
        t = sp.Symbol("t")
        eta = gen(0)
        tau = {-1: eta * t}
        s = {0: sc(1)}
        gamma = {-1: eta * t}          # tau * s
        g = {1: sc(1)}                 # dg = 1 = s^2 - tau dtau (eta^2 = 0)
        zp, thetap = components_to_map(g, gamma, tau, s)
        assert check_gts(zp, thetap)
        assert is_superconformal(zp, thetap)[0]

    def test_wrong_gamma(self):
        zp, thetap = components_to_map({1: sc(1)}, {0: gen(0)}, {}, {0: sc(1)})
        assert not check_gts(zp, thetap)
        assert not is_superconformal(zp, thetap)[0]

    def test_parity_violation(self):
        with pytest.raises(ParityError):
            components_to_map({1: gen(0)}, {}, {}, {0: sc(1)})


small = st.integers(-2, 2)


@st.composite
def random_built_maps(draw):
    """Maps built from random components with gamma = tau*s imposed or broken."""
    eta = gen(0)
    s = {k: sc(draw(small)) for k in draw(st.lists(st.integers(0, 2), max_size=2))}
    s[0] = sc(1 + draw(st.integers(0, 2)))  # keep an invertible-ish leading term
    tau = {k: eta * draw(small) for k in draw(st.lists(st.integers(0, 2), max_size=2))}
    gamma = _poly_mul(tau, s)
    dg = _poly_add(_poly_mul(s, s), _poly_neg(_poly_mul(tau, _poly_dz(tau))))
    if any(k == -1 for k in dg):
        g = None
    else:
        g = {k + 1: v / (k + 1) for k, v in dg.items()}
    break_it = draw(st.booleans())
    if break_it:
        gamma = _poly_add(gamma, {0: eta})
    return g, gamma, tau, s, break_it


@settings(deadline=None, max_examples=40)
@given(random_built_maps())
def test_gts_equivalent_to_superconformal(data):
    g, gamma, tau, s, _broken = data
    if g is None:
        return
    zp, thetap = components_to_map(g, gamma, tau, s)
    assert check_gts(zp, thetap) == is_superconformal(zp, thetap)[0]


def test_chain_rule():
    # D[F(z',th')] = (D th') (D'F)(z',th') for superconformal maps
    import random

    rnd = random.Random(11)
    c, Iv, d = sp.symbols("c I_v d")
    eta = gen(0)
    shift = eta * (Iv - d)
    maps = [
        (LaurentSuperfunction({1: sc(1), 0: sc(-c)}, {0: shift}),
         LaurentSuperfunction({0: shift}, {0: sc(1)})),
        # dilation z' = 4z, theta' = 2 theta
        (LaurentSuperfunction({1: sc(4)}, {}),
         LaurentSuperfunction({}, {0: sc(2)})),
    ]
    for zp, thetap in maps:
        assert is_superconformal(zp, thetap)[0]
        dthetap = thetap.superderivative()
        for _ in range(10):
            a = {k: sc(rnd.randint(-3, 3)) for k in rnd.sample(range(4), 2)}
            b = {k: gen(1) * rnd.randint(-3, 3) for k in rnd.sample(range(4), 2)}
            F = LaurentSuperfunction(a, b)
            lhs = compose(F, zp, thetap).superderivative()
            rhs = dthetap * compose(F.superderivative(), zp, thetap)
            assert lhs == rhs
