import dataclasses
import pickle
from fractions import Fraction

import sympy as sp
import pytest

from supersle.grassmann import GrassmannNumber, make_generator
from supersle.ns_algebra import (
    AlgebraElement,
    G,
    L,
    Mode,
    ModuleParams,
    Projector,
    VermaModule,
    VermaVector,
    bracket,
    is_singular,
    is_singular_level2,
    params_from_kappa_ns,
    params_from_kappa_virasoro,
    pbw_words,
    quotient_projection,
    raising_modes,
    singular_condition_residual,
    singular_vector_32,
    singularity_report,
    virasoro_level2_vector,
    word_level,
    _row_echelon,
)

CSYM = sp.Symbol("c")
HALF = Fraction(1, 2)


def vec(params, entries):
    return VermaVector(params, entries)


def apply(elem, v):
    """elem acting on v in a module of v's parameters."""
    return VermaModule(v.params).apply(elem, v)


class TestModes:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mode("L", Fraction(1, 2))
        with pytest.raises(ValueError):
            Mode("G", 1)
        assert G("3/2").index == Fraction(3, 2)

    def test_word_level(self):
        assert word_level((L(-2), G(Fraction(-3, 2)))) == Fraction(7, 2)

    def test_interned(self):
        assert L(-1) is L(-1)
        assert G(-HALF) is G(Fraction(-1, 2))

    def test_direct_mode_matches_interned(self):
        m = Mode("G", Fraction(-1, 2))
        assert m == G(Fraction(-1, 2))
        assert hash(m) == hash(G(Fraction(-1, 2)))
        assert hash(m) == hash(("G", Fraction(-1, 2)))

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            L(1).index = Fraction(2)

    def test_unpickled_mode_rehashes(self):
        m = Mode("L", 1)
        object.__setattr__(m, "_hash", 0)  # as if hashed in another process
        back = pickle.loads(pickle.dumps(m))
        assert back == L(1) and hash(back) == hash(L(1))


class TestBracket:
    def test_gg_no_central(self):
        e = bracket(G(HALF), G(-HALF), CSYM)
        assert e == AlgebraElement({(L(0),): 2})

    def test_ll_central(self):
        e = bracket(L(2), L(-2), CSYM)
        assert e == AlgebraElement({(L(0),): 4, (): CSYM / 2})

    def test_lg(self):
        e = bracket(L(-1), G(HALF), CSYM)
        assert e == AlgebraElement({(G(-HALF),): -1})

    def test_float_central_charge_not_cached_as_exact(self):
        exact = bracket(L(2), L(-2), 1)
        approx = bracket(L(2), L(-2), 1.0)
        assert exact.terms[()].body() == sp.Rational(1, 2)
        assert isinstance(approx.terms[()].body(), sp.Float)

    def test_gg_central(self):
        e = bracket(G(Fraction(3, 2)), G(Fraction(-3, 2)), CSYM)
        assert e == AlgebraElement({(L(0),): 2, (): 2 * CSYM / 3})


def _bracket_elem(m, e, c):
    """[m, e] for e a linear combination of single modes and central terms."""
    out = AlgebraElement()
    for word, coeff in e.terms.items():
        if not word:
            continue  # central element commutes
        out = out + coeff.body() * bracket(m, word[0], c)
    return out


def test_graded_jacobi():
    modes = [L(n) for n in range(-3, 4)] + [G(Fraction(r, 2)) for r in (-3, -1, 1, 3)]
    for a in modes:
        for b in modes:
            for c in modes:
                sab = -1 if (a.odd and b.odd) else 1
                lhs = _bracket_elem(a, bracket(b, c, CSYM), CSYM)
                rhs1 = _bracket_elem(b, bracket(a, c, CSYM), CSYM) * sab
                # [[a,b], c] with graded symmetry: [x, c] = -(+/-)[c, x]
                ab = bracket(a, b, CSYM)
                rhs2 = AlgebraElement()
                for word, coeff in ab.terms.items():
                    if not word:
                        continue
                    rhs2 = rhs2 + coeff.body() * bracket(word[0], c, CSYM)
                assert lhs == rhs1 + rhs2, (a, b, c)


class TestApply:
    params = ModuleParams(CSYM, sp.Symbol("D"))

    def test_g_half_squared(self):
        v = VermaModule(self.params).vacuum()
        e = AlgebraElement({(G(-HALF), G(-HALF)): 1})
        assert apply(e, v) == vec(self.params, {(L(-1),): 1})

    def test_l1_lm1(self):
        v = VermaModule(self.params).vacuum()
        e = AlgebraElement({(L(1), L(-1)): 1})
        assert apply(e, v) == vec(self.params, {(): 2 * sp.Symbol("D")})

    def test_g_raising_g_lowering(self):
        v = VermaModule(self.params).vacuum()
        e = AlgebraElement({(G(HALF), G(Fraction(-3, 2))): 1})
        assert apply(e, v) == vec(self.params, {(L(-1),): 2})

    def test_word_composition(self):
        import random

        rnd = random.Random(5)
        pool = [L(-2), L(-1), L(1), G(-HALF), G(Fraction(-3, 2)), G(HALF)]
        params = ModuleParams(sp.Rational(1, 2), sp.Rational(1, 16), Fraction(9, 2))
        module = VermaModule(params)
        for _ in range(15):
            w1 = tuple(rnd.choices(pool, k=rnd.randint(1, 2)))
            w2 = tuple(rnd.choices(pool, k=rnd.randint(1, 2)))
            if word_level(w1) + word_level(w2) > params.level_cutoff:
                continue
            v = module.vacuum()
            direct = module.apply(AlgebraElement({w1 + w2: 1}), v)
            staged = module.apply(AlgebraElement({w1: 1}),
                                  module.apply(AlgebraElement({w2: 1}), v))
            assert direct == staged, (w1, w2)

    def test_grassmann_coefficient_sign(self):
        # (eta G_{-1/2}) (eta' G_{-1/2}) |D> = -eta eta' L_{-1} |D>
        eta = make_generator(0, 2)
        etap = make_generator(1, 2)
        e1 = AlgebraElement({(G(-HALF),): eta})
        e2 = AlgebraElement({(G(-HALF),): etap})
        v = VermaModule(self.params).vacuum(n=2)
        got = apply(e1 * e2, v)
        # eta G eta' G = -eta eta' G G = -(1/2) eta eta' {G,G}
        want = vec(self.params, {(L(-1),): -(eta * etap)})
        assert got == want

    def test_cutoff_trim(self):
        params = ModuleParams(0, 0, Fraction(1, 2))
        got = apply(AlgebraElement({(L(-1),): 1}), VermaModule(params).vacuum())
        assert got.is_zero()


class TestSingularVector:
    def test_shape_delta_half(self):
        chi = singular_vector_32(ModuleParams(0, sp.Rational(1, 2)))
        assert chi.coefficient((G(Fraction(-3, 2)),)) == GrassmannNumber.scalar(1)
        assert chi.coefficient((L(-1), G(-HALF))) == GrassmannNumber.scalar(-1)

    def test_shape_delta_zero(self):
        chi = singular_vector_32(ModuleParams(0, 0))
        assert chi.coefficient((G(Fraction(-3, 2)),)) == GrassmannNumber.scalar(sp.Rational(1, 2))

    def test_g_half_annihilates_for_all_params(self):
        params = ModuleParams(CSYM, sp.Symbol("D"))
        chi = singular_vector_32(params)
        res = apply(AlgebraElement({(G(HALF),): 1}), chi)
        assert res.is_zero()

    def test_is_singular_examples(self):
        ok, _ = is_singular(singular_vector_32(
            ModuleParams(sp.Rational(3, 2), sp.Rational(1, 2))))
        assert ok
        ok, _ = is_singular(singular_vector_32(ModuleParams(0, 0)))
        assert ok
        # genuinely violating pair: 12*2=24 vs (5)(6+1)=35
        ok, obstructions = is_singular(singular_vector_32(ModuleParams(1, 2)))
        assert not ok and obstructions

    def test_sweep_matches_condition(self):
        for i in range(-4, 5):
            delta = sp.Rational(i, 2)
            for j in (-2, 0, 3):
                params = ModuleParams(j, delta)
                ok, _ = is_singular(singular_vector_32(params))
                assert ok == (singular_condition_residual(params) == 0)

    def test_report(self):
        rep = singularity_report(ModuleParams(sp.Rational(3, 2), sp.Rational(1, 2)))
        assert rep["condition"] == "12D=(2D+1)(3D+c)"
        assert rep["singular"] and rep["lhs"] == rep["rhs"] == "6"


class TestVirasoroLevel2:
    def test_kappa4(self):
        params = params_from_kappa_virasoro(4)
        assert params.c == 1 and params.delta == sp.Rational(1, 4)
        ok, _ = is_singular_level2(virasoro_level2_vector(4))
        assert ok

    def test_kappa6(self):
        params = params_from_kappa_virasoro(6)
        assert params.c == 0 and params.delta == 0
        ok, _ = is_singular_level2(virasoro_level2_vector(6))
        assert ok

    def test_detuned_delta(self):
        params = params_from_kappa_virasoro(2)
        assert params.delta == 1
        bad = ModuleParams(params.c, 2)
        v = VermaVector(bad, {(L(-2),): -2, (L(-1), L(-1)): 1})
        ok, obstructions = is_singular_level2(v)
        assert not ok and obstructions

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            virasoro_level2_vector(0)


def gram_matrix(params, basis):
    """Shapovalov form <u|v> on lowering words, with L_n^+ = L_-n and
    G_r^+ = G_-r; each entry is the |Delta> coefficient of adj(u) v|Delta>."""
    module = VermaModule(params)

    def adj(word):
        return tuple(Mode(m.kind, -m.index) for m in reversed(word))

    return sp.Matrix([[sp.expand(module.act_word(adj(u) + v, ()).get((), 0))
                       for v in basis] for u in basis])


class TestGramDeterminant:
    """Kac determinants (Friedan-Qiu-Shenker 1985; Meurman and
    Rocha-Caridi 1986): an oracle for the singular conditions that does not
    go through is_singular."""

    def test_ns_level_three_halves(self):
        delta = sp.Symbol("Delta")
        params = ModuleParams(CSYM, delta)
        gram = gram_matrix(params, [(G(Fraction(-3, 2)),), (L(-1), G(-HALF))])
        assert sp.expand(gram - sp.Matrix([
            [2 * delta + 2 * CSYM / 3, 4 * delta],
            [4 * delta, 4 * delta**2 + 2 * delta]])) == sp.zeros(2, 2)
        assert sp.expand(gram.det() + 4 * delta / 3
                         * singular_condition_residual(params)) == 0

    @pytest.mark.parametrize("kappa", [1, 2, sp.Rational(8, 3), 4, 6],
                             ids=["1", "2", "8/3", "4", "6"])
    def test_virasoro_level_two(self, kappa):
        basis = [(L(-2),), (L(-1), L(-1))]
        params = params_from_kappa_virasoro(kappa)
        assert gram_matrix(params, basis).det() == 0
        shifted = ModuleParams(params.c, params.delta + sp.Rational(1, 2))
        assert gram_matrix(shifted, basis).det() != 0


class TestParamsFromKappa:
    def test_kappa1(self):
        p = params_from_kappa_ns(1)
        assert p.c == sp.Rational(3, 2) and p.delta == sp.Rational(1, 2)

    def test_kappa2(self):
        p = params_from_kappa_ns(2)
        assert p.c == 0 and p.delta == 0

    def test_kappa_inverse_same_c(self):
        p = params_from_kappa_ns(sp.Rational(3, 4))
        q = params_from_kappa_ns(sp.Rational(4, 3))
        assert p.c == q.c and p.delta != q.delta

    def test_condition_random_kappa(self):
        import random

        rnd = random.Random(1)
        for _ in range(50):
            k = sp.Rational(rnd.randint(1, 40), rnd.randint(1, 40))
            assert singular_condition_residual(params_from_kappa_ns(k)) == 0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            params_from_kappa_ns(-1)


class TestPbwWords:
    def test_cached_tuple(self):
        words = pbw_words(Fraction(5, 2))
        assert isinstance(words, tuple)
        assert pbw_words(Fraction(5, 2)) is words

    def test_small_enumeration(self):
        words = pbw_words(Fraction(3, 2))
        expected = {
            (),
            (G(-HALF),),
            (L(-1),),
            (G(Fraction(-3, 2)),),
            (L(-1), G(-HALF)),
        }
        assert set(words) == expected

    def test_levels_and_order(self):
        words = pbw_words(Fraction(7, 2))
        assert len(words) == len(set(words))
        for w in words:
            assert word_level(w) <= Fraction(7, 2)
            ls = [m for m in w if m.kind == "L"]
            gs = [m for m in w if m.kind == "G"]
            assert tuple(w) == tuple(ls) + tuple(gs)
            assert all(ls[i].index <= ls[i + 1].index for i in range(len(ls) - 1))
            assert all(gs[i].index < gs[i + 1].index for i in range(len(gs) - 1))

    def test_negative_level_is_empty(self):
        # the empty word has level 0, so no word lies below it
        assert pbw_words(Fraction(-1, 2)) == ()


class TestQuotient:
    params = params_from_kappa_ns(1)

    def test_kills_chi(self):
        P = quotient_projection(self.params)
        chi = singular_vector_32(self.params)
        assert P(chi).is_zero()

    def test_fixes_vacuum(self):
        P = quotient_projection(self.params)
        v = VermaModule(self.params).vacuum()
        assert P(v) == v

    def test_cutoff_below_chi_is_identity(self):
        # chi lies at level 3/2, so nothing is projected out below it
        P = quotient_projection(self.params, 1)
        assert P.rows == []
        v = VermaModule(self.params).vacuum()
        assert P(v) == v

    def test_kills_descendant(self):
        P = quotient_projection(self.params)
        chi = singular_vector_32(self.params)
        desc = apply(AlgebraElement({(L(-1),): 1}), chi)
        assert not desc.is_zero()
        assert P(desc).is_zero()

    def test_idempotent_and_annihilates_span(self):
        P = quotient_projection(self.params)
        module = VermaModule(self.params)
        chi = singular_vector_32(self.params)
        for w in pbw_words(Fraction(2)):
            d = module.apply(AlgebraElement({w: 1}), chi)
            assert P(d).is_zero(), w
        # idempotence on arbitrary vectors
        v = VermaVector(self.params, {(L(-1),): 3, (G(Fraction(-3, 2)),): sp.Rational(1, 2)})
        assert P(P(v)) == P(v)

    def test_requires_singular_params(self):
        with pytest.raises(ValueError):
            quotient_projection(ModuleParams(1, 2))

    def test_rank(self):
        # descendant span up to 7/2 has one independent vector per word level <= 2
        P = quotient_projection(self.params)
        assert len(P.rows) == len(pbw_words(Fraction(2)))


def descendant_span(params, cutoff):
    """Bodies of the descendants w chi, each built by VermaModule.apply."""
    work = ModuleParams(params.c, params.delta, cutoff)
    module = VermaModule(work)
    chi = singular_vector_32(work)
    span = []
    for w in pbw_words(cutoff - Fraction(3, 2)):
        vec = module.apply(AlgebraElement({w: 1}), chi)
        row = {m: sp.expand(c.body()) for m, c in vec.entries.items()}
        row = {m: s for m, s in row.items() if s != 0}
        if row:
            span.append(row)
    return span


def reference_rows(params, cutoff):
    """Projector rows from the Grassmann-coefficient route: each descendant
    w chi built by VermaModule.apply, its bodies taken, then eliminated."""
    return _row_echelon(descendant_span(params, cutoff), pbw_words(cutoff))


def ordered(rows):
    return [(pivot, list(row.items())) for pivot, row in rows]


@pytest.mark.parametrize("kappa, detuned", [
    (sp.Rational(1, 3), False), (1, False), (2, False),
    (sp.Rational(8, 3), False), (2, True)],
    ids=["1/3", "1", "2", "8/3", "2-detuned"])
def test_scalar_projection_matches_grassmann_route(kappa, detuned, monkeypatch):
    params = params_from_kappa_ns(kappa)
    if detuned:
        params = ModuleParams(params.c, params.delta + sp.Rational(1, 2))
    cutoff = Fraction(11, 2)

    def refuse(*args):
        raise AssertionError("quotient_projection went through apply")

    with monkeypatch.context() as m:
        m.setattr(VermaModule, "apply", refuse)
        got = quotient_projection(params, cutoff, check_singular=not detuned)
    want = reference_rows(params, cutoff)
    assert want and ordered(got.rows) == ordered(want)


def test_repeat_projection_hashes_few_fractions(monkeypatch):
    quotient_projection(params_from_kappa_ns(1), Fraction(13, 2))
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__hash__", counted)
        quotient_projection(params_from_kappa_ns(sp.Rational(8, 3)),
                            Fraction(13, 2))
    assert len(calls) <= 200


def loop_row_echelon(span, order):
    """Incremental elimination with back-substitution, kept as a reference."""
    pos = {w: i for i, w in enumerate(order)}
    rows = []
    for row in span:
        for pivot, prow in rows:
            if pivot in row:
                f = row[pivot]
                for m, s in prow.items():
                    row[m] = sp.expand(row.get(m, 0) - f * s)
                row = {m: s for m, s in row.items() if s != 0}
        if not row:
            continue
        pivot = min(row, key=lambda m: pos[m])
        pv = row[pivot]
        row = {m: sp.expand(s / pv) for m, s in row.items()}
        # back-substitute into existing rows
        new_rows = []
        for p2, r2 in rows:
            if pivot in r2:
                f = r2[pivot]
                r2 = {m: sp.expand(r2.get(m, 0) - f * row.get(m, 0))
                      for m in set(r2) | set(row)}
                r2 = {m: s for m, s in r2.items() if s != 0}
            new_rows.append((p2, r2))
        rows = new_rows
        rows.append((pivot, row))
    return rows


def both_eliminations(params, cutoff):
    span, order = descendant_span(params, cutoff), pbw_words(cutoff)
    want = dict(loop_row_echelon([dict(row) for row in span], order))
    got = _row_echelon(span, order)
    assert len(got) == len(want)
    return dict(got), want


@pytest.mark.parametrize("kappa, detuned", [
    (sp.Rational(1, 3), False), (1, False), (2, False),
    (sp.Rational(8, 3), False), (sp.Rational(7, 4), False), (2, True)],
    ids=["1/3", "1", "2", "8/3", "7/4", "2-detuned"])
def test_row_echelon_matches_elimination_loop(kappa, detuned):
    params = params_from_kappa_ns(kappa)
    if detuned:
        params = ModuleParams(params.c, params.delta + sp.Rational(1, 2))
    got, want = both_eliminations(params, Fraction(13, 2))
    assert want and got.keys() == want.keys()
    for pivot, row in got.items():
        assert row[pivot] == 1
        assert row == want[pivot], pivot


def test_row_echelon_matches_elimination_loop_symbolic():
    got, want = both_eliminations(ModuleParams(CSYM, sp.Symbol("D")),
                                  Fraction(9, 2))
    assert want and got.keys() == want.keys()
    for pivot, row in got.items():
        assert row.keys() == want[pivot].keys(), pivot
        for m, s in row.items():
            assert sp.cancel(want[pivot][m] - s) == 0, (pivot, m)
