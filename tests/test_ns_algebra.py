import dataclasses
import pickle
from fractions import Fraction
from functools import cache

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
    _pbw_ok,
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


def assert_pbw_basis(words, level):
    """Distinct PBW-ordered lowering words of level <= level, by level."""
    assert len(words) == len(set(words))
    assert [word_level(w) for w in words] == sorted(word_level(w) for w in words)
    for w in words:
        assert word_level(w) <= level
        ls = [m for m in w if m.kind == "L"]
        gs = [m for m in w if m.kind == "G"]
        assert tuple(w) == tuple(ls) + tuple(gs)
        assert all(m.lowering for m in w)
        assert all(ls[i].index <= ls[i + 1].index for i in range(len(ls) - 1))
        assert all(gs[i].index < gs[i + 1].index for i in range(len(gs) - 1))


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
        assert_pbw_basis(pbw_words(Fraction(7, 2)), Fraction(7, 2))

    def test_counts_match_generating_function(self):
        # the number of PBW words of level exactly k/2 is the coefficient of
        # q^(k/2) in prod_{n>=1} (1 + q^(n-1/2)) / (1 - q^n)
        top = 24
        counts = [1] + [0] * top  # indexed by twice the level
        for n in range(1, top // 2 + 1):
            for k in range(2 * n, top + 1):
                counts[k] += counts[k - 2 * n]
        for r in range(1, top + 1, 2):
            for k in range(top, r - 1, -1):
                counts[k] += counts[k - r]
        for k in range(top + 1):
            words = pbw_words(Fraction(k, 2))
            assert len(words) == sum(counts[:k + 1]), k
            assert_pbw_basis(words, Fraction(k, 2))
        assert [len(pbw_words(x)) for x in (Fraction(7, 2), Fraction(13, 2), 8)] \
            == [24, 147, 315]

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


def level_block_rows(params, cutoff):
    """Reference projector rows: the descendant span of chi row-reduced one
    level at a time, the blocks concatenated in level order."""
    work = ModuleParams(params.c, params.delta, cutoff)
    module = VermaModule(work)
    K = module.domain
    chi = {m: K.from_sympy(c.body())
           for m, c in singular_vector_32(work).entries.items()}
    rows = []
    for level in sorted({word_level(w) for w in pbw_words(cutoff)}):
        span = [row for row in (module._act(w, chi) for w in
                                pbw_words(cutoff - Fraction(3, 2))
                                if word_level(w) + Fraction(3, 2) == level)
                if row]
        if span:
            rows += _row_echelon(span, [w for w in pbw_words(cutoff)
                                        if word_level(w) == level], K)
    return rows


TWENTY_KAPPAS = [sp.Rational(p, q) for p, q in (
    (1, 3), (1, 2), (2, 3), (3, 4), (1, 1), (5, 4), (4, 3), (3, 2), (5, 3),
    (7, 4), (2, 1), (9, 4), (7, 3), (5, 2), (8, 3), (3, 1), (7, 2), (4, 1),
    (6, 1), (8, 1))]


# the 20 kappas cycle through the cutoffs 7/2, 4, ..., 9
@pytest.mark.parametrize("kappa, cutoff", [
    (k, Fraction(7, 2) + Fraction(i % 12, 2))
    for i, k in enumerate(TWENTY_KAPPAS)])
def test_projection_matches_level_blocks(kappa, cutoff):
    # the span rows each sit at one level, so the one-matrix RREF is the
    # level-by-level one
    params = params_from_kappa_ns(kappa)
    want = level_block_rows(params, cutoff)
    assert want and ordered(quotient_projection(params, cutoff).rows) == \
        ordered(want)


def test_projection_levels_keep_their_rows():
    params = params_from_kappa_ns(sp.Rational(8, 3))
    cutoff, levels = Fraction(9), {Fraction(3, 2), Fraction(4), Fraction(9)}
    rows = quotient_projection(params, cutoff).rows
    want = [r for r in rows if word_level(r[0]) in levels]
    got = quotient_projection(params, cutoff, levels=levels).rows
    assert want and ordered(got) == ordered(want)


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


def test_symbolic_chi_has_one_obstruction():
    # for free (c, Delta) only G_{3/2} fails, by -1/3 of the residual
    params = ModuleParams(CSYM, sp.Symbol("D"))
    ok, obstructions = is_singular(singular_vector_32(params))
    assert not ok and [m for m, _ in obstructions] == [G(Fraction(3, 2))]
    res = obstructions[0][1]
    assert res.entries.keys() == {()}
    assert res == vec(params, {(): -singular_condition_residual(params) / 3})


# -- the ground-domain engine against the expression-tree engine ---------------


@cache
def expr_bracket_terms(a, b, c):
    """[a, b] (anticommutator if both odd) as ((scalar, Mode-or-None), ...)."""
    out = []
    if a.kind == "L" and b.kind == "L":
        n, m = sp.Rational(a.index), sp.Rational(b.index)
        out.append((n - m, L(a.index + b.index)))
        if a.index + b.index == 0:
            central = c / 12 * n * (n**2 - 1)
            if central != 0:
                out.append((central, None))
    elif a.kind == "L" and b.kind == "G":
        n, r = sp.Rational(a.index), sp.Rational(b.index)
        out.append((n / 2 - r, G(a.index + b.index)))
    elif a.kind == "G" and b.kind == "L":
        # [G_r, L_n] = -[L_n, G_r]
        n, r = sp.Rational(b.index), sp.Rational(a.index)
        out.append((-(n / 2 - r), G(a.index + b.index)))
    else:
        r, s = sp.Rational(a.index), sp.Rational(b.index)
        out.append((sp.Integer(2), L(a.index + b.index)))
        if a.index + b.index == 0:
            central = c / 3 * (r**2 - sp.Rational(1, 4))
            if central != 0:
                out.append((central, None))
    out = [(sp.expand(s), m) for s, m in out]
    return tuple((s, m) for s, m in out if s != 0 or m is None)


class ExprModule:
    """Normal ordering on sympy expression scalars, every entry re-expanded;
    kept as a reference for the ground-domain engine of VermaModule."""

    def __init__(self, params):
        self.params = params
        self._cache = {}

    def act_mode(self, m, mono):
        key = (m, mono)
        if key in self._cache:
            return self._cache[key]
        c, delta = self.params.c, self.params.delta
        out = {}
        if m.lowering and (not mono or _pbw_ok(m, mono[0])):
            # already PBW-ordered; words above the level cutoff are trimmed
            if word_level((m,) + mono) <= self.params.level_cutoff:
                out[(m,) + mono] = sp.S.One
        elif not mono:
            if m.kind == "L" and m.index == 0:
                out[()] = delta
            # annihilators (L_n n>=1, G_r r>=1/2) give zero
        elif m == mono[0] and m.odd:
            # G_r G_r = (1/2){G_r, G_r}
            rest = mono[1:]
            for scalar, bm in expr_bracket_terms(m, m, c):
                scalar = scalar / 2
                sub = {rest: scalar} if bm is None else {
                    k: scalar * v for k, v in self.act_mode(bm, rest).items()}
                for k, v in sub.items():
                    out[k] = out.get(k, 0) + v
        else:
            first, rest = mono[0], mono[1:]
            sigma = -1 if (m.odd and first.odd) else 1
            for mid, s1 in self.act_mode(m, rest).items():
                for fin, s2 in self.act_mode(first, mid).items():
                    out[fin] = out.get(fin, 0) + sigma * s1 * s2
            for scalar, bm in expr_bracket_terms(m, first, c):
                sub = {rest: scalar} if bm is None else {
                    k: scalar * v for k, v in self.act_mode(bm, rest).items()}
                for k, v in sub.items():
                    out[k] = out.get(k, 0) + v
        out = {k: sp.expand(v) for k, v in out.items()}
        out = {k: v for k, v in out.items() if v != 0}
        self._cache[key] = out
        return out

    def act_word(self, word, mono):
        state = {tuple(mono): sp.S.One}
        for m in reversed(tuple(word)):
            nxt = {}
            for mo, s in state.items():
                for k, v in self.act_mode(m, mo).items():
                    nxt[k] = nxt.get(k, 0) + s * v
            state = {k: v for k, v in ((k, sp.expand(v)) for k, v in nxt.items()) if v != 0}
        return state


def adjoint(word):
    """L_n^+ = L_-n, G_r^+ = G_-r, order reversed: a word of raising modes."""
    return tuple((L if m.kind == "L" else G)(-m.index) for m in reversed(word))


def engine_case(name):
    if name == "symbolic":
        return ModuleParams(CSYM, sp.Symbol("D")), "ZZ(c,D)"
    if name == "symbolic-kappa":
        p = params_from_kappa_ns(sp.Symbol("kappa", positive=True))
        return p, "ZZ(kappa)"
    if name == "sqrt2":
        return ModuleParams(sp.sqrt(2), sp.sqrt(2)), "EX"
    p = params_from_kappa_ns(sp.Rational(name.removesuffix("-detuned")))
    if name.endswith("-detuned"):
        p = ModuleParams(p.c, p.delta + sp.Rational(1, 2))
    return p, "QQ"


@pytest.mark.parametrize("name", ["1/3", "1", "2", "8/3", "7/4", "2-detuned",
                                  "symbolic", "symbolic-kappa", "sqrt2"])
def test_domain_engine_matches_expr_engine(name):
    params, domain = engine_case(name)
    cutoff = Fraction(11, 2)
    params = ModuleParams(params.c, params.delta, cutoff)
    module, reference = VermaModule(params), ExprModule(params)
    assert str(module.domain) == domain
    monos = [(), *singular_vector_32(params).entries]
    words = pbw_words(cutoff)
    for w in words + tuple(adjoint(w) for w in words):
        for mono in monos:
            got, want = module.act_word(w, mono), reference.act_word(w, mono)
            assert got.keys() == want.keys(), (w, mono)
            for k, s in want.items():
                assert sp.expand(got[k] - s) == 0, (w, mono, k)


@pytest.mark.parametrize("x", [0, 7, -3, Fraction(5, 4), Fraction(-1, 2),
                               sp.Rational(8, 3), sp.Integer(-2)])
def test_module_params_fast_path_matches_nsimplify(x):
    want = sp.nsimplify(sp.sympify(x), rational=True)
    params = ModuleParams(x, x)
    for got in (params.c, params.delta):
        assert got == want and str(got) == str(want) and type(got) is type(want)


# -- is_singular: the scalar route against the apply route --------------------


def apply_route(v, virasoro_only=False):
    """is_singular with every raising mode applied through VermaModule.apply."""
    module = VermaModule(v.params)
    results = [(m, module.apply(AlgebraElement.from_mode(1, m), v))
               for m in raising_modes(v.level(), virasoro_only)]
    obstructions = [(m, res) for m, res in results if not res.is_zero()]
    return not obstructions, obstructions


def shown(result):
    ok, obstructions = result
    return ok, [(m, repr(res)) for m, res in obstructions]


def scalar_route(v, monkeypatch, virasoro_only=False):
    def refuse(*args):
        raise AssertionError("is_singular went through apply")

    with monkeypatch.context() as m:
        m.setattr(VermaModule, "apply", refuse)
        return is_singular(v, virasoro_only)


def test_scalar_is_singular_matches_apply_route_on_grid(monkeypatch):
    grid = [ModuleParams(sp.Rational(ck, 2), sp.Rational(dk, 4))
            for dk in range(-8, 9) for ck in range(-10, 11)]
    singular = [p for p in grid if singular_condition_residual(p) == 0]
    assert len(grid) == 357 and singular
    for params in grid[::7] + singular:
        chi = singular_vector_32(params)
        assert shown(scalar_route(chi, monkeypatch)) == shown(apply_route(chi))


def test_scalar_is_singular_matches_apply_route_virasoro(monkeypatch):
    kappas = [Fraction(p, q) for q in (1, 2, 3, 5) for p in (1, 7, 11, 13, 17)]
    assert len(set(kappas)) == 20
    for k in kappas:
        v = virasoro_level2_vector(sp.Rational(k.numerator, k.denominator))
        for virasoro_only in (True, False):
            assert (shown(scalar_route(v, monkeypatch, virasoro_only))
                    == shown(apply_route(v, virasoro_only))), (k, virasoro_only)


@pytest.mark.parametrize("case", ["soul", "body-and-soul", "free-symbol"])
def test_non_scalar_vector_goes_through_apply(case, monkeypatch):
    params = ModuleParams(1, 2)
    eta = make_generator(0, 1)
    chi = singular_vector_32(params)
    v = {"soul": chi.lmul(eta),
         "body-and-soul": chi.lmul(GrassmannNumber.scalar(1, 1) + eta),
         "free-symbol": chi.lmul(sp.Symbol("t"))}[case]
    calls = []
    apply = VermaModule.apply

    def counted(self, elem, w):
        calls.append(elem)
        return apply(self, elem, w)

    want = apply_route(v)
    with monkeypatch.context() as m:
        m.setattr(VermaModule, "apply", counted)
        got = is_singular(v)
    assert calls and not got[0]
    assert shown(got) == shown(want)


def test_projection_makes_few_expand_calls(monkeypatch):
    quotient_projection(params_from_kappa_ns(1), Fraction(13, 2))
    params = params_from_kappa_ns(sp.Rational(8, 3))
    calls = []
    expand = sp.expand

    def counted(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sp, "expand", counted)
        quotient_projection(params, Fraction(13, 2))
    assert len(calls) <= 10
