import random
from fractions import Fraction

import sympy as sp
import pytest

from supersle.grassmann import EXACT, GrassmannNumber, make_generator
from supersle.ns_algebra import (
    G,
    L,
    AlgebraElement,
    ModuleParams,
    VermaVector,
    is_singular,
    is_singular_level2,
    params_from_kappa_ns,
    params_from_kappa_virasoro,
    quotient_projection,
    singular_condition_residual,
    singular_vector_32,
    virasoro_level2_vector,
)
from supersle.superfield import LaurentSuperfunction
from supersle.walk import (
    SdeSystem,
    WalkSpec,
    beta_commutator,
    beta_element,
    coefficient_route_commutator,
    diffusion_from_spec,
    drift_from_spec,
    drift_generator,
    drift_vector,
    martingale_drift,
    match_singular,
    reduced_drift_vector,
    sde_system,
    spec_32,
    spec_32alt,
    spec_virasoro,
    standard_spec,
)

HALF = Fraction(1, 2)


def units_32(ring=EXACT):
    y = make_generator(0, 4, ring) * make_generator(1, 4, ring)
    eta = make_generator(2, 4, ring)
    return y, eta


class TestSpecValidation:
    def test_parity_enforced(self):
        y, eta = units_32()
        with pytest.raises(ValueError):
            WalkSpec(1, {}, ({-1: (eta, eta)},))  # odd y
        with pytest.raises(ValueError):
            WalkSpec(1, {}, ({-1: (y, y)},))  # even eta

    def test_beta_count(self):
        with pytest.raises(ValueError):
            WalkSpec(2, {}, ({},))

    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            spec_32(0)

    def test_standard_lookup(self):
        assert standard_spec("32", 2).name == "32"
        with pytest.raises(ValueError):
            standard_spec("nope", 1)


class TestDiffusion:
    def test_spec32_matches_hand_coded(self):
        for kappa in (sp.Rational(1, 2), 1, 2, 4):
            y, eta = units_32()
            sk = sp.sqrt(kappa)
            ((zp, tp),) = diffusion_from_spec(spec_32(kappa))
            assert zp == LaurentSuperfunction({0: -(y * sk)}, {0: -(eta * sk)})
            assert tp == LaurentSuperfunction({0: -(eta * sk)}, {})

    def test_l0_spec(self):
        one = GrassmannNumber.scalar(1, 0)
        zero = GrassmannNumber.zero(0)
        spec = WalkSpec(1, {}, ({0: (one, zero)},))
        ((zp, tp),) = diffusion_from_spec(spec)
        assert zp == LaurentSuperfunction({1: -one}, {})
        assert tp == LaurentSuperfunction({}, {0: -one * sp.Rational(1, 2)})

    def test_spec32alt_second_component(self):
        for kappa in (sp.Rational(1, 2), 1, 2, 4):
            sk = sp.sqrt(kappa)
            pairs = diffusion_from_spec(spec_32alt(kappa))
            zp2, tp2 = pairs[1]
            minus_i_sk = GrassmannNumber.scalar(-sp.I * sk, 2)
            assert zp2 == LaurentSuperfunction({0: minus_i_sk}, {})
            assert tp2 == LaurentSuperfunction()


class TestDrift:
    def test_spec32_matches_hand_coded(self):
        for kappa in (sp.Rational(1, 2), 1, 2, 4):
            y, eta = units_32()
            zp0, tp0 = drift_from_spec(spec_32(kappa))
            assert zp0 == LaurentSuperfunction({}, {-1: y * eta})
            assert tp0 == LaurentSuperfunction({-1: y * eta}, {})

    def test_spec32alt_matches_hand_coded(self):
        for kappa in (sp.Rational(1, 2), 1, 2, 4):
            eta = make_generator(0, 2)
            zp0, tp0 = drift_from_spec(spec_32alt(kappa))
            assert zp0 == LaurentSuperfunction({}, {-1: eta})
            assert tp0 == LaurentSuperfunction({-1: eta}, {})

    def test_virasoro_recovers_sle(self):
        kappa = 3
        zp0, tp0 = drift_from_spec(spec_virasoro(kappa))
        two = GrassmannNumber.scalar(2, 0)
        assert zp0 == LaurentSuperfunction({-1: two}, {})
        # theta picks up the superpartner term -theta'/z'^2; with theta_0 = 0
        # and no odd diffusion it stays zero, so the z-evolution is plain SLE
        assert tp0 == LaurentSuperfunction({}, {-2: GrassmannNumber.scalar(-1, 0)})
        ((zp1, tp1),) = diffusion_from_spec(spec_virasoro(kappa))
        assert zp1 == LaurentSuperfunction({0: GrassmannNumber.scalar(-sp.sqrt(3), 0)}, {})
        assert tp1 == LaurentSuperfunction()

    def test_system_bundle(self):
        system = sde_system(spec_32(2))
        assert isinstance(system, SdeSystem)
        assert len(system.diffusion) == 1


# A walk whose coefficients carry several masks, in a written order
MIXED_WALK = {"n": 4, "b": 1, "alpha0": {"-2": {"y": "-2 + 1*p1p2"}},
              "beta": [{"-1": {"y": "1 + 1*p0p1", "eta": "1*p3 + 1*p0"},
                        "1": {"eta": "1*p2 + 1*p0p1p3"}}]}


def _order(elem):
    return [(w, list(c.terms)) for w, c in elem.terms.items()]


@pytest.mark.parametrize("spec, drift, betas", [
    (spec_32(2),
     [((G(Fraction(-3, 2)),), [7]), ((L(-1), G(-HALF)), [7]),
      ((G(-HALF), L(-1)), [7])],
     [[((L(-1),), [3]), ((G(-HALF),), [4])]]),
    (spec_32alt(2),
     [((G(Fraction(-3, 2)),), [1]), ((L(-1), G(-HALF)), [1]),
      ((G(-HALF), L(-1)), [1])],
     [[((L(-1),), [0]), ((G(-HALF),), [1])], [((L(-1),), [0])]]),
    (spec_virasoro(2),
     [((L(-2),), [0]), ((L(-1), L(-1)), [0])],
     [[((L(-1),), [0])]]),
    (WalkSpec.from_json(MIXED_WALK),
     [((L(-2),), [0, 6]), ((L(-1), L(-1)), [0, 3]),
      ((L(-1), G(-HALF)), [8, 1, 11]), ((L(-1), G(3 * HALF)), [4, 11, 7]),
      ((G(-HALF), L(-1)), [8, 11, 1]), ((G(-HALF), G(3 * HALF)), [12, 5]),
      ((G(3 * HALF), L(-1)), [4, 7, 11]), ((G(3 * HALF), G(-HALF)), [12, 5])],
     [[((L(-1),), [0, 3]), ((G(-HALF),), [8, 1]), ((G(3 * HALF),), [4, 11])]]),
], ids=["32", "32alt", "virasoro", "mixed-masks"])
def test_element_term_order(spec, drift, betas):
    """The order of words and of their coefficients' masks is pinned: the
    Monte-Carlo stepping sums floats in this order (sde._element_data), so
    a reordering changes the last bits of a martingale report."""
    assert _order(drift_generator(spec)) == drift
    assert [_order(beta_element(spec, i))
            for i in range(spec.brownian_dim)] == betas


class TestDriftVector:
    def test_spec32_shape(self):
        kappa = sp.Rational(3, 2)
        y, eta = units_32()
        v = drift_vector(spec_32(kappa), params_from_kappa_ns(kappa))
        want = VermaVector(params_from_kappa_ns(kappa), {
            (G(Fraction(-3, 2)),): -(y * eta),
            (L(-1), G(-HALF)): (y * eta) * kappa,
        })
        assert v == want

    def test_spec32alt_same_reduced_vector(self):
        for kappa in (sp.Rational(1, 2), 1, 2, 4):
            params = params_from_kappa_ns(kappa)
            r1 = reduced_drift_vector(spec_32(kappa), params)
            r2 = reduced_drift_vector(spec_32alt(kappa), params)
            assert r1 == r2

    def test_proportional_to_chi(self):
        kappa = sp.Rational(1, 2)
        params = params_from_kappa_ns(kappa)
        y, eta = units_32()
        v = drift_vector(spec_32(kappa), params)
        chi = singular_vector_32(params)
        assert v == chi.lmul((y * eta) * -kappa)

    def test_parity_even_overall(self):
        from supersle.ns_algebra import word_parity
        from supersle.grassmann import EVEN, ODD

        for spec in (spec_32(2), spec_32alt(3)):
            v = drift_vector(spec, params_from_kappa_ns(2))
            for mono, coeff in v.entries.items():
                want = ODD if word_parity(mono) else EVEN
                assert coeff.parity() == want


class TestMatchSingular:
    def test_matched(self):
        y, eta = units_32()
        rep = match_singular(spec_32(1), 1)
        assert rep["matched"]
        assert rep["proportionality"] == (y * eta) * -1

    def test_mismatched(self):
        rep = match_singular(spec_32(3), 2)
        assert not rep["matched"]
        assert not rep["residual"].is_zero()

    def test_32alt(self):
        rep = match_singular(spec_32alt(4), 4)
        assert rep["matched"]


class TestMartingaleDrift:
    def test_matched_kappa_projects_to_zero(self):
        kappa = 2
        assert martingale_drift(spec_32(kappa), params_from_kappa_ns(kappa)).is_zero()

    def test_detuned_delta_nonzero(self):
        kappa = 2
        p = params_from_kappa_ns(kappa)
        bad = ModuleParams(p.c, p.delta + 1, p.level_cutoff)
        v = drift_vector(spec_32(kappa), bad)
        chi = singular_vector_32(bad)
        # not proportional to chi, so cannot be killed by any projector row
        lam = v.coefficient((G(Fraction(-3, 2)),)) / (bad.delta + sp.Rational(1, 2))
        assert not (v - chi.lmul(lam)).is_zero()

    def test_virasoro_level2_analogue(self):
        kappa = sp.Rational(8, 3)
        params = params_from_kappa_virasoro(kappa)
        v = drift_vector(spec_virasoro(kappa), params)
        # (-2 L_{-2} + kappa/2 L_{-1}^2)|D> is annihilated by L_1 and L_2
        ok, _ = is_singular_level2(v)
        assert ok


class TestSymbolicKappa:
    """The headline identities hold identically in kappa, not only at
    sampled values."""

    kappa = sp.Symbol("kappa", positive=True)

    @pytest.mark.parametrize("build", [spec_32, spec_32alt])
    def test_drift_matches_singular_vector(self, build):
        spec = build(self.kappa)
        rep = match_singular(spec, self.kappa)
        assert rep["matched"]
        assert rep["proportionality"] == spec.odd_unit * -self.kappa

    def test_reduced_drift_vectors_agree(self):
        params = params_from_kappa_ns(self.kappa)
        assert reduced_drift_vector(spec_32(self.kappa), params) == \
            reduced_drift_vector(spec_32alt(self.kappa), params)

    def test_singular_vectors(self):
        params = params_from_kappa_ns(self.kappa)
        assert sp.cancel(singular_condition_residual(params)) == 0
        assert is_singular(singular_vector_32(params))[0]
        assert is_singular_level2(virasoro_level2_vector(self.kappa))[0]

    def test_projector_kills_matched_drift_only(self):
        params = params_from_kappa_ns(self.kappa)
        P = quotient_projection(params, Fraction(9, 2))
        assert len(P.rows) == 17
        assert P(drift_vector(spec_32(self.kappa), params)).is_zero()
        # detuned as by martingale --delta-shift 1/2
        shifted = ModuleParams(params.c, params.delta + HALF,
                               params.level_cutoff)
        Q = quotient_projection(shifted, Fraction(9, 2), check_singular=False)
        assert not Q(drift_vector(spec_32(self.kappa), shifted)).is_zero()


def random_spec(rnd, ring=EXACT):
    n = 4
    y_unit = make_generator(0, n, ring) * make_generator(1, n, ring)
    eta_unit = make_generator(2, n, ring)
    zero = GrassmannNumber.zero(n, ring)

    def pair():
        y = y_unit * sp.Rational(rnd.randint(-3, 3), rnd.randint(1, 3)) \
            + GrassmannNumber.scalar(rnd.randint(-2, 2), n, ring)
        eta = eta_unit * sp.Rational(rnd.randint(-3, 3), rnd.randint(1, 3))
        return (y, eta)

    table = {nn: pair() for nn in rnd.sample(range(-3, 3), rnd.randint(1, 2))}
    return WalkSpec(1, {}, (table,))


def test_central_identity_random_specs():
    # commutator route (primary-field rules) vs coefficient-function route
    rnd = random.Random(13)
    delta = sp.Symbol("Delta")
    for _ in range(20):
        spec = random_spec(rnd)
        for phi in (
            LaurentSuperfunction({rnd.randint(0, 3): GrassmannNumber.scalar(1, 4)}, {}),
            LaurentSuperfunction({}, {rnd.randint(0, 3): GrassmannNumber.scalar(1, 4)}),
        ):
            lhs = beta_commutator(spec, 0, delta, phi)
            rhs = coefficient_route_commutator(spec, 0, delta, phi)
            assert lhs == rhs


class _Ito:
    """Formal polynomial in dt, dB_i with enveloping-algebra coefficients."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v.terms}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return _Ito(out)

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                if k1 == "dt" or k2 == "dt":
                    continue  # (dt)^2 = dt dB = 0
                if k1 != k2:
                    continue  # dB_i dB_j = delta_ij dt
                prod = v1 * v2
                out["dt"] = out["dt"] + prod if "dt" in out else prod
        return _Ito(out)

    def is_zero(self):
        return not self.terms


def test_ito_inverse_consistency():
    # d(G^-1 G) = X + Y + X*Y with X = d(G^-1)G, Y = G^-1 dG; must vanish
    for spec in (spec_32(2), spec_32alt(3), spec_virasoro(4)):
        from supersle.walk import alpha_element, beta_element, _half

        half = _half(spec.ring)
        betas = [beta_element(spec, i) for i in range(spec.brownian_dim)]
        alpha = alpha_element(spec)
        for b in betas:
            alpha = alpha + (b * b) * half
        beta_sq = AlgebraElement()
        for b in betas:
            beta_sq = beta_sq + b * b
        X = _Ito({"dt": -alpha + beta_sq,
                  **{("dB", i): -b for i, b in enumerate(betas)}})
        Y = _Ito({"dt": alpha,
                  **{("dB", i): b for i, b in enumerate(betas)}})
        total = X + Y + X * Y
        assert total.is_zero()
