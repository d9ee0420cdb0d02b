import io
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dense_kernel import _binv, _bmul, _derivative, sliced_restrict
from supersle import kernel
from supersle import sde as sde_module
from supersle.cli import MAX_CUTOFF, _initial_point, main
from supersle.grassmann import FLOAT, GrassmannNumber, NotInvertible, make_generator
from supersle.kernel import _gvec, _tmul
from supersle.ns_algebra import (
    CutoffOverflow,
    G,
    L,
    ModuleParams,
    VermaModule,
    params_from_kappa_ns,
    pbw_words,
    quotient_projection,
    word_level,
    word_parity,
)
from supersle.superfield import (
    LaurentSuperfunction,
    SuperPoint,
    is_superconformal,
)
from supersle.sde import (
    BrownianPath,
    DenominatorVanishes,
    HullRaster,
    LoewnerResult,
    SuperPath,
    SwallowedPoint,
    closed_form_32,
    closed_form_32_map,
    closed_form_32alt,
    closed_form_32alt_map,
    conservation_check_32,
    convergence_32,
    convergence_32alt,
    euler_maruyama,
    loewner_flow,
    mc_martingale,
    supertrace_hull,
    walk_elements,
    write_csv,
    write_json_report,
    write_pgm,
    write_superpath_csv,
    _step_plan,
    _fill_hull,
    _path_seeds,
    _point_vectors,
    _rasterize_polyline,
    _reachable_masks,
    _reachable_transitions,
)
from supersle.walk import (
    WalkSpec,
    sde_system,
    spec_32,
    spec_32alt,
    standard_spec,
)


def init_32(z=2.0):
    return SuperPoint(GrassmannNumber.scalar(z, 4, FLOAT),
                      make_generator(3, 4, FLOAT))


def init_32alt(z=2.0):
    return SuperPoint(GrassmannNumber.scalar(z, 2, FLOAT),
                      make_generator(1, 2, FLOAT))


def init_soul_32alt(z=2.0):
    p0p1 = make_generator(0, 2, FLOAT) * make_generator(1, 2, FLOAT)
    return SuperPoint(GrassmannNumber.scalar(z, 2, FLOAT) + p0p1 * 0.7,
                      make_generator(1, 2, FLOAT))


def closed_form_32alt_binv(z0, th0, path, kappa):
    """Reference two-Brownian closed form: the Neumann inverse of
    z0 - sqrt(kappa) B+ at every time step, summed by the left-endpoint
    rule."""
    sk = math.sqrt(kappa)
    B1, B2 = path.values
    den = np.tile(z0, (path.steps + 1, 1))
    den[:, 0] -= sk * (B1 + 1j * B2)
    I = np.zeros_like(den)
    np.cumsum(path.dt * _binv(den)[:-1], axis=0, out=I[1:])
    I[:, 0] -= sk * B1
    eta = np.zeros_like(z0)
    eta[1] = 1.0
    return den + _bmul(_bmul(th0, eta), I), th0 + _bmul(eta, I)


def convergence_32alt_reference(monkeypatch, kappa):
    """The terminal closed form that ``convergence_32alt`` compares with,
    as a function of one path: its data, then the closed form of a batch of
    one."""
    monkeypatch.setattr(sde_module, "pathwise_convergence",
                        lambda system, *reference_and_args: reference_and_args)
    path_data, closed_form, *_ = convergence_32alt(
        kappa, init_32alt(), 0.1, [1e-2, 1e-3], 1, 0)

    def reference(z0, th0, path):
        data = (np.stack([d], axis=-1) for d in path_data(z0, th0, path))
        Z, TH = closed_form(z0, th0, path.dt * path.steps, *data)
        return Z[0], TH[0]

    return reference


def koszul_sign(m, mu):
    """Sign of psi_m psi_mu in the exact product of two monomials."""
    n = max(m, mu).bit_length()
    prod = GrassmannNumber(n, FLOAT, {m: 1}) * GrassmannNumber(n, FLOAT, {mu: 1})
    return prod.coefficient(m | mu).real


def koszul_loop_matrix(element, words, masks, module):
    """Reference for ``_right_multiplication_matrix``: one entry at a time,
    with the Koszul sign of each coefficient mask product."""
    cutoff = module.params.level_cutoff
    widx = {w: i for i, w in enumerate(words)}
    midx = {m: i for i, m in enumerate(masks)}
    nm = len(masks)
    R = np.zeros((len(words) * nm,) * 2, dtype=complex)
    for u, mtable in element:
        struct = {w: module.act_word(w + u, ()) for w in words
                  if word_level(w) + word_level(u) <= cutoff}
        for mu, cval in mtable.items():
            p_mu = bin(mu).count("1") & 1
            for w, targets in struct.items():
                sgn_word = -1 if (p_mu and word_parity(w)) else 1
                for m in masks:
                    if m & mu or (m | mu) not in midx:
                        continue
                    sgn = sgn_word * koszul_sign(m, mu)
                    row = widx[w] * nm + midx[m]
                    for w2, c in targets.items():
                        col = widx[w2] * nm + midx[m | mu]
                        R[row, col] += sgn * cval * float(c)
    return R


def zero_path(dim, dt, steps):
    return BrownianPath(dt=dt, increments=np.zeros((dim, steps)))


def grade_dist(g1, g2):
    masks = set(g1.terms) | set(g2.terms)
    return max((abs(complex(g1.terms.get(m, 0)) - complex(g2.terms.get(m, 0)))
                for m in masks), default=0.0)


class TestBrownianPath:
    def test_seed_reproducible(self):
        p1 = BrownianPath.sample(2, 1e-3, 100, 7)
        p2 = BrownianPath.sample(2, 1e-3, 100, 7)
        assert np.array_equal(p1.increments, p2.increments)

    def test_coarsen_same_path(self):
        p = BrownianPath.sample(1, 1e-3, 100, 3)
        c = p.coarsen(10)
        assert c.dt == pytest.approx(1e-2)
        assert np.allclose(c.values[:, -1], p.values[:, -1])

    def test_longer_horizon_extends(self):
        short = BrownianPath.sample(2, 1e-3, 50, 5)
        long = BrownianPath.sample(2, 1e-3, 100, 5)
        assert np.array_equal(long.increments[:, :50], short.increments)

    @pytest.mark.parametrize("dim, dt, steps", [(1, 1e-3, 1000),
                                                (2, 1e-4, 333), (3, 0.37, 17)])
    def test_draws_are_scaled_normals(self, dim, dt, steps):
        # the same bits as normal(0, sqrt(dt)), which adds 0 to sqrt(dt) z
        for seed in range(20):
            want = np.random.default_rng([seed, 1]).normal(
                0.0, math.sqrt(dt), size=(steps, dim)).T
            got = BrownianPath.sample(dim, dt, steps, [seed, 1]).increments
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_coarsen_requires_divisor(self):
        with pytest.raises(ValueError):
            BrownianPath.sample(1, 1e-3, 100, 1).coarsen(7)


# one-word to four-word seeds (2^96 + 3 puts five words of entropy into the
# pool of four), and a numpy integer
SEEDS = [0, 1, 2**31 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**96 + 3,
         np.uint64(2**63 + 1)]


class TestPathSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_seed_sequence(self, seed):
        seeds = list(_path_seeds(seed, 2048))
        assert len(seeds) == 2048
        for p, s in enumerate(seeds):
            got = s.generate_state(4, np.uint64)
            want = np.random.SeedSequence([seed, p]).generate_state(
                4, np.uint64)
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_draws_match_list_seed(self, seed, dim):
        for p, s in enumerate(_path_seeds(seed, 40)):
            got = np.random.default_rng(s).standard_normal((300, dim))
            want = np.random.default_rng([seed, p]).standard_normal((300, dim))
            assert got.tobytes() == want.tobytes()
            got = BrownianPath.sample(dim, 1e-3, 300, s).increments
            want = BrownianPath.sample(dim, 1e-3, 300, [seed, p]).increments
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ValueError):
            _path_seeds(seed, 5)
        with pytest.raises(ValueError):
            np.random.default_rng([seed, 0])

    @pytest.mark.parametrize("seed", [1.5, None, "3"])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(TypeError):
            _path_seeds(seed, 5)

    def test_only_pcg64_state_served(self):
        [s] = _path_seeds(1, 1)
        for n_words, dtype in [(4, np.uint32), (8, np.uint64)]:
            with pytest.raises(ValueError):
                s.generate_state(n_words, dtype)

    def test_mc_martingale_negative_seed(self):
        with pytest.raises(ValueError):
            mc_martingale(spec_32(2), params_from_kappa_ns(2), n_paths=4,
                          T=0.01, seed=-1)


def random_elements(rng, n, count):
    m = 1 << n
    return rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))


class TestGrassmannKernel:
    @pytest.mark.parametrize("n", range(9))
    def test_bmul_matches_grassmann_product(self, n):
        rng = np.random.default_rng(n)
        A, B = random_elements(rng, n, 2), random_elements(rng, n, 2)
        got = _bmul(A, B)
        for a, b, g in zip(A, B, got):
            prod = (GrassmannNumber(n, FLOAT, dict(enumerate(a)))
                    * GrassmannNumber(n, FLOAT, dict(enumerate(b))))
            want = np.array([prod.coefficient(m) for m in range(1 << n)])
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(g - want)) < 1e-12 * scale

    @pytest.mark.parametrize("n", range(9))
    def test_binv_is_inverse(self, n):
        rng = np.random.default_rng(100 + n)
        A = 0.5 * random_elements(rng, n, 3)
        A[:, 0] += 2.0
        one = np.zeros(1 << n)
        one[0] = 1.0
        assert np.max(np.abs(_bmul(_binv(A), A) - one)) < 1e-12
        assert np.max(np.abs(_bmul(A, _binv(A)) - one)) < 1e-12

    @pytest.mark.parametrize("n", range(9))
    def test_gather_matches_bmul(self, n):
        # the Euler step's c z runs through the table of the constant's
        # masks against every mask, c[left] * sign folded; a constant whose
        # every value is real or imaginary gives single products that round
        # the same in any numpy loop, so the product must reproduce _bmul
        # bit for bit; a general complex constant may move the last bit, as
        # numpy's vector and tail loops round a complex product differently
        def times(c, B):
            F = LaurentSuperfunction({1: GrassmannNumber(n, FLOAT, {
                int(m): complex(c[m]) for m in np.flatnonzero(c)})})
            plan, W = _step_plan([F, LaurentSuperfunction()], B,
                                 np.zeros_like(B))
            return function_values(plan, _derivative(plan, W), 1, n)[0]

        rng = np.random.default_rng(400 + n)
        for count, batch in [(1, 1), (2, 4), (3, 4), (3, 50)]:
            c = np.zeros(1 << n, dtype=complex)
            picked = rng.choice(1 << n, size=min(count, 1 << n), replace=False)
            c[picked] = rng.normal(size=len(picked)) * rng.choice(
                [1, -1j], size=len(picked))
            B = random_elements(rng, n, batch)
            B[:, rng.random(1 << n) < 0.3] = 0.0  # exact zeros in the state
            base = random_elements(rng, n, batch)
            for got, want in ((times(c, B), _bmul(c, B)),
                              (base + times(c, B), base + _bmul(c, B))):
                assert np.array_equal(got, want)
                nonzero = want.view(float) != 0.0
                assert np.array_equal(got.view(np.int64)[nonzero],
                                      want.view(np.int64)[nonzero])
            c[picked] += rng.normal(size=len(picked)) * 1j
            got = times(c, B)
            want = _bmul(c, B)
            assert np.max(np.abs(got - want)) <= 1e-15 * max(
                1.0, np.max(np.abs(want)))


def brute_force_table(lsup, rsup):
    """The restricted pair table as sorted (k, i, j, sign) rows: the live
    pairs, or every split of a k that three of them meet, each sign counted
    from the generator pairs that the product puts out of order."""
    live = {}
    for i in lsup:
        for j in rsup:
            if not i & j:
                live.setdefault(i | j, set()).add(i)
    rows = []
    for k, lefts in live.items():
        if len(lefts) > 2:
            bits = [1 << b for b in range(k.bit_length()) if k >> b & 1]
            lefts = {sum(c) for r in range(len(bits) + 1)
                     for c in itertools.combinations(bits, r)}
        for i in lefts:
            j = k ^ i
            swaps = sum(1 for a in range(i.bit_length()) if i >> a & 1
                        for b in range(a) if j >> b & 1)
            rows.append((k, i, j, (-1.0) ** swaps))
    return sorted(rows)


class TestLiveMaskTables:
    def test_restrict_matches_sliced_whole_table(self):
        # the table built from the live masks against the slice of the
        # whole 3^n table it replaces: all five arrays, dtypes included
        rng = np.random.default_rng(26)
        for _ in range(3000):
            n = int(rng.integers(0, 11))
            sup = [rng.choice(1 << n, replace=False, size=int(
                rng.integers(0, min(1 << n, 24) + 1))) for _ in range(2)]
            got, want = kernel._restrict(n, *sup), sliced_restrict(n, *sup)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("lsup, rsup", [
        ([0, 3, 12, 15, 3 << 36, 15 << 36], [0, 3, 12, 15, 3 << 36]),
        ([4, 7, 8, 1 << 39, 7 << 36], [0, 3 << 36, 12, 15 << 36]),
        ([7 << 20, 1 << 39], [0, 3, 3 << 36, (1 << 40) - 1]),
    ])
    def test_restrict_at_40_generators(self, lsup, rsup):
        # spec-32-like supports spread over 40 generators, whose whole
        # table would hold 3^40 triples
        start = time.perf_counter()
        kernel._live_table.__wrapped__(40, tuple(lsup), tuple(rsup))
        assert time.perf_counter() - start < 0.05
        dst, left, right, signs, starts = kernel._restrict(40, lsup, rsup)
        k = left | right
        rows = brute_force_table(lsup, rsup)
        assert list(zip(k.tolist(), left.tolist(), right.tolist(),
                        signs.tolist())) == rows
        assert dst.tolist() == sorted({row[0] for row in rows})
        assert starts.tolist() == [k.tolist().index(d) for d in dst.tolist()]

    def test_tables_are_cached_and_read_only(self):
        table = kernel._restrict(4, np.array([3, 0, 3]), [12, 0])
        assert kernel._restrict(4, [0, 3], (0, 12)) is table
        assert not any(a.flags.writeable for a in table)


def random_grassmann(rng, n, masks, count):
    """A float Grassmann number on ``count`` random masks from ``masks``."""
    picked = rng.choice(masks, size=min(count, len(masks)), replace=False)
    return GrassmannNumber(n, FLOAT, {
        int(m): complex(*rng.normal(size=2)) for m in picked})


def function_values(plan, D, count, n):
    """Each function of a compiled step over all 2^n masks, from the
    (paths, rows, ncols) derivative D: two functions to a row, z's on
    ``zsup`` and theta's on ``tsup``."""
    nz, values = plan.zsup.size, []
    for f in range(count):
        value = np.zeros((len(D), 1 << n), dtype=complex)
        if f % 2:
            value[:, plan.tsup] = D[:, f // 2, nz:]
        else:
            value[:, plan.zsup] = D[:, f // 2, :nz]
        values.append(value)
    return values


def superfunction_case(n):
    """Six Laurent superfunctions on n generators, exponents -3..2, one of
    them zero and one with no a part, and four points (z with a soul);
    returns the functions, the points and their (4, 2^n) Z and TH."""
    rng = np.random.default_rng(200 + n)
    masks = np.arange(1 << n)
    even = masks[[bin(m).count("1") % 2 == 0 for m in masks]][1:]
    odd = masks[[bin(m).count("1") % 2 == 1 for m in masks]]

    def part():
        exps = rng.choice(np.arange(-3, 3), size=rng.integers(1, 4),
                          replace=False)
        return {int(k): random_grassmann(rng, n, masks, 3) for k in exps}

    fns = [LaurentSuperfunction(part(), part()) for _ in range(3)]
    fns += [LaurentSuperfunction(), LaurentSuperfunction({}, part()),
            LaurentSuperfunction({-3: random_grassmann(rng, n, masks, 2),
                                  2: random_grassmann(rng, n, masks, 2)})]
    points = []
    for _ in range(4):
        z = GrassmannNumber.scalar(complex(1.5, rng.normal()), n, FLOAT)
        if len(even):
            z = z + 0.5 * random_grassmann(rng, n, even, 3)
        th = (random_grassmann(rng, n, odd, 3) if len(odd)
              else GrassmannNumber.zero(n, FLOAT))
        points.append(SuperPoint(z, th))
    Z = np.array([[complex(p.z.coefficient(m)) for m in masks]
                  for p in points])
    TH = np.array([[complex(p.theta.coefficient(m)) for m in masks]
                   for p in points])
    return fns, points, Z, TH


class TestCoefficientTable:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_superfunction_eval(self, n):
        fns, points, Z, TH = superfunction_case(n)
        masks = np.arange(1 << n)
        assert max(k for F in fns for k in (*F.a, *F.b)) == 2
        plan, W = _step_plan(fns, Z, TH)
        assert plan.lo == -3
        values = function_values(plan, _derivative(plan, W), len(fns), n)
        assert len(values) == len(fns)
        for F, got in zip(fns, values):
            for p, row in zip(points, got):
                want = F.eval(p)
                want = np.array([complex(want.coefficient(m)) for m in masks])
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(row - want)) <= 1e-12 * scale

    def test_coefficients_converted_once(self, monkeypatch):
        calls = []
        gvec = sde_module._gvec
        monkeypatch.setattr(sde_module, "_gvec",
                            lambda g, n: calls.append(g) or gvec(g, n))
        system = sde_system(spec_32(2.0, FLOAT))
        fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
        count = sum(len(F.a) + len(F.b) for F in fns)
        euler_maruyama(system, init_32(), BrownianPath.sample(1, 1e-3, 1000, 1))
        assert 0 < len(calls) <= count + 2

    def test_constant_coefficients_skip_pair_table(self, monkeypatch):
        # per step, one _tmul call: the Neumann power of the soul of z, two
        # triples on one mask; the theta b(z) products and the constant c
        # times z^-1, one triple per group, are multiplies of work-array
        # views bound once (a constant's from its columns, its signs folded
        # in); the package has no product over the whole pair table at all
        calls = []
        tmul = sde_module._tmul

        def counted(table, A, B, out=None):
            assert np.shares_memory(A, B) and np.shares_memory(A, out)
            calls.append(1)
            return tmul(table, A, B, out=out)

        monkeypatch.setattr(sde_module, "_tmul", counted)
        for module in (kernel, sde_module):
            for name in ("_pair_table", "_bmul", "_binv"):
                assert not hasattr(module, name)
        steps = 1000
        euler_maruyama(sde_system(spec_32(2.0, FLOAT)), init_32(),
                       BrownianPath.sample(1, 1e-3, steps, 1))
        assert len(calls) <= steps + 10

    def test_inverse_chain_builds_no_zero_power(self, monkeypatch):
        # the Neumann chain ends with a table whose product is empty: the
        # power after it is zero and never added, so it is not built
        calls = []
        tmul = sde_module._tmul
        monkeypatch.setattr(
            sde_module, "_tmul", lambda table, A, B, out=None: calls.append(
                table[0].size) or tmul(table, A, B, out=out))
        system = sde_system(spec_32(2.0, FLOAT))
        euler_maruyama(system, init_32(), BrownianPath.sample(1, 1e-3, 50, 1))
        assert calls and 0 not in calls

    def test_spec_32_computes_c_over_z_once(self):
        # c z^-1, c = p0 p1 p2, is theta's drift and the b(z) of z's drift
        # theta b(z): the step has one constant product, run once per step,
        # and both functions read its columns
        system = sde_system(spec_32(2.0, FLOAT))
        fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
        z0, th0 = (np.tile(v, (3, 1)) for v in _point_vectors(init_32()))
        plan, W = _step_plan(fns, z0, th0)
        nz = plan.zsup.size
        written = set(range(nz + plan.tsup.size)).union(
            *(range(o.start, o.stop) for _, _, o in plan.ops))

        def multiply(args):  # a product of one triple per group
            return not isinstance(args[0], slice)

        def times_c(f, args):  # a product whose left factor reads constants
            return f is np.multiply and multiply(args) \
                and not written & set(args[0].tolist())

        runs = []
        ops = [(partial(lambda f, *a, out: runs.append(1) or f(*a, out=out),
                        f), args, out)
               if times_c(f, args) else (f, args, out)
               for f, args, out in plan.ops]
        (out,) = [out for f, args, out in plan.ops if times_c(f, args)]
        counted = plan._replace(ops=ops)
        for _ in range(5):
            D = _derivative(counted, W)
        assert len(runs) == 5
        columns = set(range(out.start, out.stop))
        (theta_b,) = [args for f, args, _ in plan.ops if f is np.multiply
                      and multiply(args) and set(args[1].tolist()) <= columns]
        # theta's p3 column times the one column of c z^-1, on p0p1p2: the
        # mask 15 term of theta b(z)
        assert theta_b[0].tolist() == [nz + plan.tsup.tolist().index(8)]
        assert columns == {theta_b[1][0]}
        first = [args[0] for f, args, o in plan.ops if o == plan.out][0]
        assert first[nz + plan.tsup.tolist().index(7)] in columns
        values = function_values(plan, D, len(fns), 4)
        c_over_z = _bmul(_gvec(fns[1].a[-1], 4), _binv(z0))
        assert np.array_equal(bits(values[1]), bits(c_over_z + 0.0))


class TestEulerMaruyama:
    def test_zero_spec_constant(self):
        zero = GrassmannNumber.zero(4, FLOAT)
        spec = WalkSpec(1, {}, ({-1: (zero, zero)},))
        path = BrownianPath.sample(1, 1e-2, 50, 1)
        out = euler_maruyama(sde_system(spec), init_32(), path)
        assert all(g == out.z[0] for g in out.z)
        assert all(g == out.theta[0] for g in out.theta)

    def test_eta_zero_sector_pure_brownian(self):
        # with theta_0 = 0 the drift vanishes and z moves only in the y grade
        kappa = 2.0
        init = SuperPoint(GrassmannNumber.scalar(2.0, 4, FLOAT),
                          GrassmannNumber.zero(4, FLOAT))
        path = BrownianPath.sample(1, 1e-3, 500, 9)
        out = euler_maruyama(sde_system(spec_32(kappa, FLOAT)), init, path)
        B = path.values[0]
        sk = math.sqrt(kappa)
        for k in (100, 250, 500):
            zk = out.z[k]
            assert complex(zk.terms.get(0, 0)) == pytest.approx(2.0)
            assert complex(zk.terms.get(0b0011, 0)) == pytest.approx(-sk * B[k])

    def test_matches_closed_form(self):
        kappa = 2.0
        path = BrownianPath.sample(1, 1e-4, 5000, 42)
        em = euler_maruyama(sde_system(spec_32(kappa, FLOAT)), init_32(), path)
        cf = closed_form_32(init_32(), path, kappa)
        assert grade_dist(em.z[-1], cf.z[-1]) < 1e-6
        assert grade_dist(em.theta[-1], cf.theta[-1]) < 1e-6

    def test_swallowed(self):
        init = SuperPoint(GrassmannNumber.scalar(1e-8, 4, FLOAT),
                          make_generator(3, 4, FLOAT))
        path = BrownianPath.sample(1, 1e-3, 10, 2)
        out = euler_maruyama(sde_system(spec_32(1.0, FLOAT)), init, path)
        # the body is constant for spec 32, so the path ends at step 0
        assert out.swallowed_time == 0.0
        assert out.times.tolist() == [0.0]
        assert out.z == (init.z,) and out.theta == (init.theta,)

    def test_init_with_too_few_generators(self):
        path = BrownianPath.sample(1, 1e-3, 10, 2)
        with pytest.raises(ValueError, match="have 4 .* only 2"):
            euler_maruyama(sde_system(spec_32(2.0, FLOAT)), init_32alt(), path)

    def test_initial_condition(self):
        path = BrownianPath.sample(1, 1e-3, 10, 2)
        out = euler_maruyama(sde_system(spec_32(1.0, FLOAT)), init_32(), path)
        assert out.z[0] == init_32().z
        assert out.theta[0] == init_32().theta


class TestClosedForm32:
    def test_t0_initial(self):
        path = BrownianPath.sample(1, 1e-3, 100, 4)
        out = closed_form_32(init_32(), path, 2.0)
        assert grade_dist(out.z[0], init_32().z) == 0.0
        assert grade_dist(out.theta[0], init_32().theta) == 0.0

    def test_zero_driving_at_t1(self):
        # B = 0, z = 1, t = 1: z' = 1 + theta y eta, theta' = theta + y eta
        path = zero_path(1, 0.1, 10)
        init = init_32(z=1.0)
        out = closed_form_32(init, path, 2.0)
        y = make_generator(0, 4, FLOAT) * make_generator(1, 4, FLOAT)
        eta = make_generator(2, 4, FLOAT)
        theta = init.theta
        assert grade_dist(out.z[-1], init.z + theta * y * eta) < 1e-12
        assert grade_dist(out.theta[-1], theta + y * eta) < 1e-12

    def test_conservation_along_paths(self):
        for seed in range(5):
            path = BrownianPath.sample(1, 1e-3, 1000, seed)
            rep = conservation_check_32(init_32(), path, 3.0)
            assert rep["max_conservation_error"] <= 1e-9
            assert rep["max_body_drift"] <= 1e-9

    def test_five_generators(self):
        # theta = p3 + p4p3p2 needs a fifth generator beyond the spec's four
        g = [make_generator(i, 5, FLOAT) for i in range(5)]
        init = SuperPoint(GrassmannNumber.scalar(2.0, 5, FLOAT),
                          g[3] + g[4] * g[3] * g[2])
        path = BrownianPath.sample(1, 1e-3, 1000, 3)
        cf = closed_form_32(init, path, 2.0)
        assert cf.Z.shape == cf.TH.shape == (1001, 32)
        assert grade_dist(cf.theta[0], init.theta) == 0.0
        # Euler is exact for spec 32, so it reproduces the closed form
        em = euler_maruyama(sde_system(spec_32(2.0, FLOAT)), init, path)
        assert np.max(np.abs(em.Z - cf.Z)) <= 1e-12
        assert np.max(np.abs(em.TH - cf.TH)) <= 1e-12
        rep = conservation_check_32(init, path, 3.0)
        assert rep["max_conservation_error"] <= 1e-9
        assert rep["max_body_drift"] <= 1e-9


class TestClosedForm32alt:
    def test_t0_initial(self):
        path = BrownianPath.sample(2, 1e-3, 100, 4)
        out = closed_form_32alt(init_32alt(), path, 2.0)
        assert grade_dist(out.z[0], init_32alt().z) == 0.0

    def test_body_is_complex_drift(self):
        kappa = 2.0
        path = BrownianPath.sample(2, 1e-3, 500, 8)
        out = closed_form_32alt(init_32alt(), path, kappa)
        sk = math.sqrt(kappa)
        bplus = path.values[0] + 1j * path.values[1]
        for k in (0, 100, 499):
            body = complex(out.z[k].terms.get(0, 0))
            assert body == pytest.approx(2.0 - sk * bplus[k])
            assert complex(out.theta[k].terms.get(0, 0)) == 0.0

    def test_matches_euler(self):
        path = BrownianPath.sample(2, 1e-4, 5000, 7)
        em = euler_maruyama(sde_system(spec_32alt(1.0, FLOAT)),
                            init_32alt(), path)
        cf = closed_form_32alt(init_32alt(), path, 1.0)
        assert grade_dist(em.z[-1], cf.z[-1]) < 1e-6

    def test_denominator_vanishes(self):
        init = SuperPoint(GrassmannNumber.scalar(1e-9, 2, FLOAT),
                          make_generator(1, 2, FLOAT))
        path = BrownianPath.sample(2, 1e-3, 10, 3)
        with pytest.raises(DenominatorVanishes):
            closed_form_32alt(init, path, 1.0)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 8 / 3])
    def test_matches_inverse_per_step(self, kappa):
        # the p0p1 soul of z0 makes the inverse a two-term series
        path = BrownianPath.sample(2, 1e-3, 2000, 5)
        out = closed_form_32alt(init_soul_32alt(), path, kappa)
        Z, TH = closed_form_32alt_binv(
            *sde_module._point_vectors(init_soul_32alt(), 2), path, kappa)
        assert np.max(np.abs(out.Z - Z)) <= 1e-15
        assert np.max(np.abs(out.TH - TH)) <= 1e-15

    def test_four_generators(self):
        g = [make_generator(i, 4, FLOAT) for i in range(4)]
        init = SuperPoint(GrassmannNumber.scalar(2.0, 4, FLOAT)
                          + g[2] * g[3] * 0.7, g[1])
        path = BrownianPath.sample(2, 1e-3, 2000, 5)
        out = closed_form_32alt(init, path, 2.0)
        assert out.Z.shape == (2001, 16)
        Z, TH = closed_form_32alt_binv(*sde_module._point_vectors(init), path,
                                       2.0)
        assert abs(out.Z[-1, 0b1111]) > 1e-3
        assert np.max(np.abs(out.Z - Z)) <= 1e-15
        assert np.max(np.abs(out.TH - TH)) <= 1e-15

    @pytest.mark.parametrize("init", [init_32alt, init_soul_32alt])
    def test_convergence_reference_is_terminal_row(self, monkeypatch, init):
        reference = convergence_32alt_reference(monkeypatch, 2.0)
        path = BrownianPath.sample(2, 1e-4, 1000, 9)
        zT, thT = reference(*sde_module._point_vectors(init(), 2), path)
        out = closed_form_32alt(init(), path, 2.0)
        assert np.max(np.abs(zT - out.Z[-1])) <= 1e-12
        assert np.max(np.abs(thT - out.TH[-1])) <= 1e-12

    def test_convergence_reference_soul_series(self, monkeypatch):
        # on two generators theta eta kills the soul of the integral; with
        # z0 = 2 + 0.7 p2p3 and theta = p1 on four, the p2p3 term is visible
        z0 = np.zeros(16, dtype=complex)
        z0[0], z0[0b1100] = 2.0, 0.7
        th0 = np.zeros(16, dtype=complex)
        th0[0b0010] = 1.0
        reference = convergence_32alt_reference(monkeypatch, 2.0)
        path = BrownianPath.sample(2, 1e-4, 1000, 9)
        zT, thT = reference(z0, th0, path)
        Z, TH = closed_form_32alt_binv(z0, th0, path, 2.0)
        assert abs(zT[0b1111]) > 1e-3
        assert np.max(np.abs(zT - Z[-1])) <= 1e-12
        assert np.max(np.abs(thT - TH[-1])) <= 1e-12


def soul_only_32():
    """An initial point on the spec-32 generators whose z has zero body."""
    p0p1 = make_generator(0, 4, FLOAT) * make_generator(1, 4, FLOAT)
    return SuperPoint(p0p1, make_generator(3, 4, FLOAT))


@pytest.mark.parametrize("call, error", [
    (lambda: closed_form_32(soul_only_32(), zero_path(1, 0.1, 10), 2.0),
     NotInvertible),
    (lambda: conservation_check_32(soul_only_32(), zero_path(1, 0.1, 10), 2.0),
     NotInvertible),
    (lambda: closed_form_32alt(init_32alt(), zero_path(1, 0.1, 10), 2.0),
     ValueError),
    (lambda: _binv(np.array([[2, 1, 0, 0], [0, 1, 0, 0]], dtype=complex)),
     NotInvertible),
], ids=["closed_form_32-zero-body", "conservation_check_32-zero-body",
        "closed_form_32alt-one-dimensional-path", "binv-zero-body"])
def test_refused_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, system_dim, path_dim", [
    (lambda path: euler_maruyama(sde_system(spec_32alt(1.0, FLOAT)),
                                 init_32alt(), path), 2, 1),
    (lambda path: euler_maruyama(sde_system(spec_32(2.0, FLOAT)),
                                 init_32(), path), 1, 2),
    (lambda path: closed_form_32(init_32(), path, 2.0), 1, 2),
    (lambda path: conservation_check_32(init_32(), path, 2.0), 1, 2),
    (lambda path: closed_form_32alt(init_32alt(), path, 1.0), 2, 1),
], ids=["euler-32alt-one-dimensional-path", "euler-32-two-dimensional-path",
        "closed_form_32-two-dimensional-path",
        "conservation_check_32-two-dimensional-path",
        "closed_form_32alt-one-dimensional-path"])
def test_brownian_dimension_mismatch(call, system_dim, path_dim):
    path = BrownianPath.sample(path_dim, 1e-2, 10, 1)
    with pytest.raises(ValueError, match=f"has {system_dim} Brownian "
                       f"components but the driving path has {path_dim}"):
        call(path)


class TestSuperconformalMaps:
    def test_32_map_exact(self):
        ok, residual = is_superconformal(*closed_form_32_map(2))
        assert ok and residual.is_zero()

    def test_32alt_map_exact(self):
        ok, residual = is_superconformal(*closed_form_32alt_map(3))
        assert ok and residual.is_zero()

    def test_float_maps_along_path(self):
        path = BrownianPath.sample(1, 1e-2, 20, 6)
        B = path.values[0]
        for k in (5, 20):
            zp, tp = closed_form_32_map(2.0, t=float(path.times[k]),
                                        B=float(B[k]))
            ok, residual = is_superconformal(zp, tp)
            assert ok and residual.is_zero()


class TestConvergence:
    def test_zero_spec_error_zero(self):
        from supersle.sde import pathwise_convergence

        zero = GrassmannNumber.zero(4, FLOAT)
        spec = WalkSpec(1, {}, ({-1: (zero, zero)},))
        rep = pathwise_convergence(sde_system(spec), *initial_state_reference(),
                                   init_32(), 0.1, [1e-2, 1e-3], 5, 1)
        assert all(e == 0.0 for e in rep["mean_error"])
        assert rep["exact_scheme"]

    def test_init_with_too_few_generators(self):
        from supersle.sde import pathwise_convergence

        with pytest.raises(ValueError, match="have 4 .* only 2"):
            pathwise_convergence(sde_system(spec_32(2.0, FLOAT)),
                                 *initial_state_reference(), init_32alt(),
                                 0.1, [1e-2, 1e-3], 2, 1)

    @pytest.mark.parametrize("n_paths", [0, -1])
    @pytest.mark.parametrize("study, init", [(convergence_32, init_32),
                                             (convergence_32alt, init_32alt)])
    def test_no_paths_refused(self, monkeypatch, study, init, n_paths):
        # refused before any path is sampled, as mc_martingale refuses it
        monkeypatch.setattr(sde_module, "_path_seeds", None)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            study(2.0, init(), 0.1, (1e-2, 1e-3), n_paths, 1)

    def test_32_exact_scheme(self):
        rep = convergence_32(2.0, init_32(), 0.2, [1e-2, 1e-3], 10, 3)
        assert rep["exact_scheme"]
        assert rep["order"] == math.inf
        assert all(e < 1e-12 for e in rep["mean_error"])

    def test_swallowed_path_refused(self):
        init = SuperPoint(GrassmannNumber.scalar(1e-8, 4, FLOAT),
                          make_generator(3, 4, FLOAT))
        with pytest.raises(SwallowedPoint):
            convergence_32(1.0, init, 0.1, [1e-2, 1e-3], 2, 1)

    def test_32alt_order(self):
        rep = convergence_32alt(1.0, init_32alt(), 0.2, [1e-2, 1e-3], 20, 3)
        errs = rep["mean_error"]
        assert errs[1] < errs[0]
        assert rep["order"] >= 0.4


def initial_state_reference():
    """The (path data, closed form) pair of ``pathwise_convergence`` whose
    terminal state is the initial point on every path."""
    return (lambda z0, th0, bp: ()), (lambda z0, th0, t: (z0, th0))


def kron_matrix(element, words, masks, module):
    """Reference dense build of O -> O*E on the whole (word x mask) basis.

    Each term u c psi_mu of E contributes kron(Pi^|mu| W_u, C): W_u is right
    multiplication of the words by u, Pi flips the sign of odd words and C
    is right multiplication of the coefficients by c psi_mu, read off the
    kernel product on the mask closure.
    """
    cutoff = module.params.level_cutoff
    widx = {w: i for i, w in enumerate(words)}
    flip = np.array([-1.0 if word_parity(w) else 1.0 for w in words])
    eye = np.eye(1 << max(masks).bit_length(), dtype=complex)
    closure = np.ix_(masks, masks)
    D = len(words) * len(masks)
    R = np.zeros((D, D), dtype=complex)
    for u, mtable in element:
        W = np.zeros((len(words), len(words)))
        for w in words:
            if word_level(w) + word_level(u) <= cutoff:
                for w2, c in module.act_word(w + u, ()).items():
                    W[widx[w], widx[w2]] = float(c)
        for mu, cval in mtable.items():
            Wmu = flip[:, None] * W if bin(mu).count("1") & 1 else W
            R += np.kron(Wmu, _bmul(eye, cval * eye[mu])[closure])
    return R


def reachable_from_zero(mats):
    """Sorted indices of the states that the non-zero entries of the dense
    matrices reach from state 0."""
    adj = np.any([R != 0 for R in mats], axis=0)
    live = np.arange(len(adj)) == 0
    while (grown := live | adj[live].any(axis=0)).sum() > live.sum():
        live = grown
    return np.flatnonzero(live)


def dense_mc_basis(spec, params, cutoff=Fraction(7, 2)):
    """Words, masks, R_alpha, [R_beta_i], the reachable state indices and the
    quotient projection, all on the whole (word x mask) basis."""
    elements = walk_elements(spec, cutoff)
    words = pbw_words(cutoff)
    masks = _reachable_masks(elements)
    module = VermaModule(ModuleParams(params.c, params.delta, cutoff))
    Ra, *Rb = (kron_matrix(e, words, masks, module) for e in elements)
    Pm = quotient_projection(params, cutoff, check_singular=False)
    return (words, masks, Ra, Rb, reachable_from_zero([Ra, *Rb]),
            Pm.matrix(words, words))


def reference_mc_martingale(basis, spec, params, cutoff, n_paths, T, dt,
                            seed):
    """The dense Monte-Carlo bridge, kept as a reference for mc_martingale:
    kron-built matrices cut to the reachable closure, one BrownianPath per
    path, and einsum projections of the zero-padded state."""
    words, masks, Ra, Rb, idx, Pm = basis
    nm = len(masks)
    D = len(words) * nm
    steps = round(T / dt)
    Ra, *Rb = (R[np.ix_(idx, idx)] for R in (Ra, *Rb))
    S = np.zeros((n_paths, len(idx)), dtype=complex)
    S[:, 0] = 1.0
    increments = np.empty((n_paths, steps, spec.brownian_dim))
    for p in range(n_paths):
        increments[p] = BrownianPath.sample(spec.brownian_dim, dt, steps,
                                            [seed, p]).increments.T
    for k in range(steps):
        delta = dt * (S @ Ra)
        for i, R in enumerate(Rb):
            delta += increments[:, k, i][:, None] * (S @ R)
        S = S + delta
    full = np.zeros((n_paths, D), dtype=complex)
    full[:, idx] = S
    proj = np.einsum("vw,pwm->pvm", Pm, full.reshape(n_paths, len(words), nm))
    v0 = np.zeros((len(words), nm), dtype=complex)
    v0[0, 0] = 1.0
    proj0 = np.einsum("vw,wm->vm", Pm, v0)
    drifts = (proj - proj0[None, :, :]) / (T if T > 0 else 1.0)
    terminal = proj.mean(axis=0)
    mean = drifts.mean(axis=0)
    se_re = drifts.real.std(axis=0, ddof=1) / math.sqrt(n_paths)
    se_im = drifts.imag.std(axis=0, ddof=1) / math.sqrt(n_paths)

    def zscore(m, se):
        if se > 0:
            return abs(m) / se
        return 0.0 if abs(m) < 1e-12 else math.inf

    entries = []
    for wi, w in enumerate(words):
        for mi, m in enumerate(masks):
            z = max(zscore(mean[wi, mi].real, se_re[wi, mi]),
                    zscore(mean[wi, mi].imag, se_im[wi, mi]))
            entries.append({
                "word": "1" if not w else "".join(repr(mode) for mode in w),
                "mask": m,
                "terminal_re": float(terminal[wi, mi].real),
                "terminal_im": float(terminal[wi, mi].imag),
                "drift_re": float(mean[wi, mi].real),
                "drift_im": float(mean[wi, mi].imag),
                "se_re": float(se_re[wi, mi]),
                "se_im": float(se_im[wi, mi]),
                "z": z,
            })
    max_z = max(e["z"] for e in entries)
    return {
        "spec": spec.name, "c": str(params.c), "delta": str(params.delta),
        "cutoff": str(cutoff), "n_paths": n_paths, "T": T, "dt": dt,
        "seed": seed, "basis_size": D, "entries": entries, "max_z": max_z,
        "martingale": bool(max_z <= 3.0), "drift_detected": bool(max_z > 5.0),
    }


def whole_draws_mc_evolve(S, Ra, Rb, seed, steps, dt):
    """The stepping loop mc_martingale had before its block draws: every
    path's increments drawn at once, and a new array for every product."""
    increments = np.empty((len(S), steps, len(Rb)))
    for p, path_seed in enumerate(sde_module._path_seeds(seed, len(S))):
        np.random.default_rng(path_seed).standard_normal(out=increments[p])
    increments *= math.sqrt(dt)
    for k in range(steps):
        delta = dt * (S @ Ra)
        for i, R in enumerate(Rb):
            delta += increments[:, k, i][:, None] * (S @ R)
        S += delta
    return S


def whole_array_mc_evolve(S, Ra, Rb, seed, steps, dt):
    """The stepping loop _mc_evolve had before its path tiles: every path's
    generator alive at once, and every product on the whole (paths, live)
    array."""
    rngs = [np.random.default_rng(s) for s in _path_seeds(seed, len(S))]
    inc = np.empty((len(S), min(sde_module._MC_BLOCK, steps), len(Rb)))
    delta, term = np.empty_like(S), np.empty_like(S)
    for k0 in range(0, steps, sde_module._MC_BLOCK):
        block = inc[:, :steps - k0]
        for rng, row in zip(rngs, block):
            rng.standard_normal(out=row)
        block *= math.sqrt(dt)
        for k in range(block.shape[1]):
            np.matmul(S, Ra, out=delta)
            delta *= dt
            for i, R in enumerate(Rb):
                np.matmul(S, R, out=term)
                term *= block[:, k, i, None]
                delta += term
            S += delta
    return S


def report_text(rep):
    buf = io.StringIO()
    write_json_report(rep, buf)
    return buf.getvalue()


# a file: walk with complex coefficients on two generators
COMPLEX_WALK = {"n": 2, "b": 1,
                "alpha0": {"-2": {"eta": "(1/2,1/3)*p0"}},
                "beta": [{"-1": {"y": "(1,1/2) + (0,-3/4)*p0p1",
                                 "eta": "(3/4,-1/4)*p1"}}]}


# a file: walk with the Gaussian rational (3/10,7/10) in alpha
GAUSSIAN_WALK = {"n": 7, "b": 1, "alpha0": {"-1": {"y": "(3/10,7/10)"}},
                 "beta": [{"-1": {"y": "1", "eta": "1*p0 + 1*p6"}}]}


# a file: walk with z^-2 to z^3 keys (17 reachable states at cutoff 7/2)
POWERS_WALK = {"n": 4, "b": 1, "alpha0": {"-2": {"y": "-2"}},
               "beta": [{"-1": {"y": "1", "eta": "1*p0"},
                         "1": {"y": "(1/2,1/3)*p1p2", "eta": "1*p3"}}]}


# beta = L_0 keeps every path on the identity word, the only reachable state
L0_WALK = {"n": 0, "b": 1, "alpha0": {}, "beta": [{"0": {"y": "1"}}]}


def mc_case(name):
    params = params_from_kappa_ns(2)
    if name == "32-detuned":
        return spec_32(2), ModuleParams(params.c, params.delta
                                        + sp.Rational(1, 2))
    if name == "file":
        return WalkSpec.from_json(COMPLEX_WALK), params
    if name == "L0":  # at kappa = 1, where Delta = 1/2 (it is 0 at 2)
        return WalkSpec.from_json(L0_WALK), params_from_kappa_ns(1)
    return standard_spec(name, 2), params


def assert_full_layout(rep, spec, basis_size, reachable):
    """The report keeps every (word, mask) entry, and exactly the entries
    that no reachable state projects onto are zero."""
    params = params_from_kappa_ns(2)
    words, masks, _Ra, _Rb, idx, Pm = dense_mc_basis(spec, params)
    live = np.zeros(len(words) * len(masks), dtype=bool)
    live[idx] = True
    assert rep["basis_size"] == basis_size == len(rep["entries"])
    assert live.sum() == reachable
    support = (np.abs(Pm) @ live.reshape(len(words), len(masks))) > 0
    fields = ("terminal_re", "terminal_im", "drift_re", "drift_im",
              "se_re", "se_im")
    for e, hit in zip(rep["entries"], support.ravel(), strict=True):
        assert any(e[k] != 0.0 for k in fields) == hit


class TestMcMartingale:
    def test_t0_identity(self):
        rep = mc_martingale(spec_32(2), params_from_kappa_ns(2),
                            n_paths=1, T=0.0, dt=1e-3, seed=0)
        for e in rep["entries"]:
            want = 1.0 if (e["word"], e["mask"]) == ("1", 0) else 0.0
            assert e["terminal_re"] == pytest.approx(want)
            assert e["terminal_im"] == 0.0

    def test_matched_small(self):
        rep = mc_martingale(spec_32(2), params_from_kappa_ns(2),
                            n_paths=400, T=0.1, dt=1e-2, seed=3)
        assert rep["martingale"]
        assert_full_layout(rep, spec_32(2), 96, 5)
        rep = mc_martingale(spec_32alt(2), params_from_kappa_ns(2),
                            n_paths=400, T=0.1, dt=1e-2, seed=3)
        assert_full_layout(rep, spec_32alt(2), 48, 14)

    def test_detuned_small(self):
        p = params_from_kappa_ns(2)
        bad = ModuleParams(p.c, p.delta + sp.Rational(1, 2), p.level_cutoff)
        rep = mc_martingale(spec_32(2), bad,
                            n_paths=400, T=0.1, dt=1e-2, seed=3)
        assert rep["drift_detected"]

    @pytest.mark.parametrize("make_spec, cutoff", [
        (spec_32, Fraction(7, 2)), (spec_32, MAX_CUTOFF),
        (spec_32alt, Fraction(7, 2)), (spec_32alt, Fraction(8))],
        ids=["spec_32", "spec_32-cap", "spec_32alt", "spec_32alt-8"])
    def test_exact_expectation_oracle(self, make_spec, cutoff):
        # The increments are centred and independent, so on the reachable
        # states E[S_T] = e0 (I + dt R_alpha)^steps exactly.
        T, dt = 0.1, 1e-2
        p = params_from_kappa_ns(2)
        elements = walk_elements(make_spec(2), cutoff)
        words = pbw_words(cutoff)
        masks = _reachable_masks(elements)
        module = VermaModule(ModuleParams(p.c, p.delta, cutoff))
        live, (Ra, *_Rb) = _reachable_transitions(elements, words, masks,
                                                  module)
        lw = sorted({i for i, _j in live})
        eye = np.eye(len(live))
        exact_live = np.linalg.matrix_power(eye + dt * Ra, round(T / dt))[0]
        for shift, max_drift in ((0, 0.0), (sp.Rational(1, 2), 1.0)):
            params = ModuleParams(p.c, p.delta + shift, p.level_cutoff)
            Pm = quotient_projection(params, cutoff, check_singular=False,
                                     levels={word_level(words[i]) for i in lw}
                                     ).matrix(words, [words[i] for i in lw])

            def project(state):
                out = np.zeros((len(words), len(masks)), dtype=complex)
                for x, (i, j) in zip(state, live, strict=True):
                    out[:, j] += x * Pm[:, lw.index(i)]
                return out.ravel()

            exact = project(exact_live)
            drift = (exact - project(eye[0])) / T
            assert np.abs(drift).max() == pytest.approx(max_drift, abs=1e-12)
            rep = mc_martingale(make_spec(2), params, cutoff=cutoff,
                                n_paths=400, T=T, dt=dt, seed=3)
            # the terminal mean's standard error is T times the drift's
            for e, x in zip(rep["entries"], exact, strict=True):
                tol_re = 3 * T * e["se_re"] + 1e-12
                tol_im = 3 * T * e["se_im"] + 1e-12
                assert abs(e["terminal_re"] - x.real) <= tol_re
                assert abs(e["terminal_im"] - x.imag) <= tol_im

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffOverflow):
            mc_martingale(spec_32(2), params_from_kappa_ns(2),
                          cutoff=Fraction(1), n_paths=1, T=0.01, dt=1e-2)

    @pytest.mark.parametrize("name", ["32", "32alt", "virasoro"])
    @pytest.mark.parametrize("kappa", [sp.Integer(2), sp.Rational(8, 3)])
    @pytest.mark.parametrize("cutoff", [Fraction(7, 2), Fraction(11, 2)])
    def test_kronecker_matches_koszul_loop(self, name, kappa, cutoff):
        # the kron reference and the entry-by-entry Koszul matrices agree on
        # the whole basis; the reachable states are those their non-zero
        # entries reach from state 0, and the reachable matrices are theirs
        # cut to those states, bit for bit
        params = params_from_kappa_ns(kappa)
        elements = walk_elements(standard_spec(name, kappa), cutoff)
        words = pbw_words(cutoff)
        masks = _reachable_masks(elements)
        module = VermaModule(ModuleParams(params.c, params.delta, cutoff))
        live, mats = _reachable_transitions(elements, words, masks, module)
        full = [koszul_loop_matrix(e, words, masks, module) for e in elements]
        for e, want in zip(elements, full):
            R = kron_matrix(e, words, masks, module)
            assert R.tobytes() == want.tobytes()
        idx = reachable_from_zero(full)
        assert [i * len(masks) + j for i, j in live] == idx.tolist()
        for R, want in zip(mats, full, strict=True):
            assert R.tobytes() == want[np.ix_(idx, idx)].tobytes()

    def test_cancelled_entry_reaches_nothing(self):
        # G_{-1/2}^2 = L_{-1}: the two terms of G_{-1/2}^2 - L_{-1} cancel
        # in the accumulated entry, so no state beyond state 0 is reached
        cutoff = Fraction(7, 2)
        module = VermaModule(ModuleParams(1, 0, cutoff))
        g = G(Fraction(-1, 2))
        element = [((g, g), {0: 1 + 0j}), ((L(-1),), {0: -1 + 0j})]
        live, (R,) = _reachable_transitions([element], pbw_words(cutoff),
                                            [0], module)
        assert live == [(0, 0)] and R.tolist() == [[0j]]

    @pytest.mark.parametrize("case", ["32", "32-detuned", "32alt", "file",
                                      "L0"])
    @pytest.mark.parametrize("cutoff", [Fraction(7, 2), Fraction(11, 2),
                                        Fraction(8)])
    def test_matches_dense_reference(self, case, cutoff):
        spec, params = mc_case(case)
        basis = dense_mc_basis(spec, params, cutoff)
        for seed in (0, 11):
            got = mc_martingale(spec, params, cutoff=cutoff, n_paths=40,
                                T=0.02, dt=1e-3, seed=seed)
            want = reference_mc_martingale(basis, spec, params, cutoff, 40,
                                           0.02, 1e-3, seed)
            assert report_text(got) == report_text(want)

    @pytest.mark.parametrize("n_paths", [2, 300])
    @pytest.mark.parametrize("steps", [1, 49, 50, 51, 137])
    @pytest.mark.parametrize("case", ["32", "32alt", "virasoro", "gaussian"])
    def test_block_draws_match_whole_draws(self, monkeypatch, case, steps,
                                           n_paths):
        # drawing _MC_BLOCK steps at a time and stepping in place gives the
        # bits of one draw of every step and allocating products, at any
        # block size: one step, a prime, and more than all steps
        if case == "gaussian":
            spec, params = WalkSpec.from_json(GAUSSIAN_WALK), \
                params_from_kappa_ns(2)
        else:
            spec, params = mc_case(case)

        def report():
            return json.dumps(mc_martingale(spec, params, n_paths=n_paths,
                                            T=steps / 1000, dt=1e-3, seed=5))

        with monkeypatch.context() as m:
            m.setattr(sde_module, "_mc_evolve", whole_draws_mc_evolve)
            want = report()
        for block in (1, 7, 10**6):
            monkeypatch.setattr(sde_module, "_MC_BLOCK", block)
            assert report() == want

    def test_peak_memory_flat_in_steps(self):
        # 32alt at 500 paths: only a block of draws is held, so 1000 steps
        # peak within 1.1 times 250 steps (one draw of every step: 3.1 times)
        spec, params = mc_case("32alt")
        mc_martingale(spec, params, n_paths=500, T=0.01, dt=1e-3)  # caches
        peaks = []
        for T in (0.25, 1.0):
            tracemalloc.start()
            try:
                mc_martingale(spec, params, n_paths=500, T=T, dt=1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("case, cutoff, n_paths", [
        ("32alt", Fraction(7, 2), 2), ("32alt", Fraction(7, 2), 333),
        ("32alt", Fraction(7, 2), 334), ("32alt", Fraction(7, 2), 335),
        ("32alt", Fraction(7, 2), 669), ("32alt", Fraction(7, 2), 2000),
        ("32", Fraction(7, 2), 2621), ("32", Fraction(7, 2), 2622),
        ("32alt", Fraction(11, 2), 300), ("powers", Fraction(7, 2), 300)])
    def test_tiles_match_whole_array(self, monkeypatch, case, cutoff,
                                     n_paths):
        # 14 live states tile at 334 paths, 5 at 2621; 27 (cutoff 11/2) and
        # the 17 of the z^-2..z^3 walk step whole: every report keeps its bits
        if case == "powers":
            spec, params = WalkSpec.from_json(POWERS_WALK), \
                params_from_kappa_ns(2)
        else:
            spec, params = mc_case(case)

        def report():
            return json.dumps(mc_martingale(spec, params, cutoff=cutoff,
                                            n_paths=n_paths, T=0.02,
                                            dt=1e-3, seed=8))

        with monkeypatch.context() as m:
            m.setattr(sde_module, "_mc_evolve", whole_array_mc_evolve)
            want = report()
        assert report() == want

    @pytest.mark.parametrize("live, rows", [(5, 2621), (14, 334), (16, 256),
                                            (17, None), (27, None)])
    def test_tile_rule(self, monkeypatch, live, rows):
        # balanced tiles of at most 2^16 / live^2 paths, none shorter than
        # half a tile, when that is 256 paths or more; else one whole tile
        sizes = []

        def islice(it, m):
            sizes.append(m)
            return itertools.islice(it, m)

        monkeypatch.setattr(sde_module, "itertools",
                            SimpleNamespace(islice=islice))
        R = np.zeros((live, live), dtype=complex)

        def tiles(n):
            sizes.clear()
            sde_module._mc_evolve(np.zeros((n, live), dtype=complex), R, [R],
                                  0, 0, 1e-3)
            return sizes[:]

        for n in (1, 2, 255, 256, 257, 333, 334, 335, 669, 2621, 2622, 5243):
            got = tiles(n)
            assert sum(got) == n
            if rows is None or n <= rows:
                assert got == [n]
            else:
                assert len(got) == -(-n // rows)
                assert max(got) <= rows and max(got) - min(got) <= 1
                assert 2 * min(got) >= rows
        assert tiles(2000) == {14: [334] * 2 + [333] * 4,
                               16: [250] * 8}.get(live, [2000])

    @pytest.mark.parametrize("case, limit_mib", [("32alt", 6), ("32", 8)])
    def test_stepping_peak_memory(self, case, limit_mib):
        # 10000 paths: one tile's generators and draws are held at a time
        # (all of them at once: 22.3 MiB for 32alt, 13.6 MiB for spec 32)
        spec, params = mc_case(case)
        cutoff = params.level_cutoff
        elements = walk_elements(spec, cutoff)
        module = VermaModule(ModuleParams(params.c, params.delta, cutoff))
        _live, (Ra, *Rb) = _reachable_transitions(
            elements, pbw_words(cutoff), _reachable_masks(elements), module)
        tracemalloc.start()
        try:
            S = np.zeros((10_000, len(Ra)), dtype=complex)
            S[:, 0] = 1.0
            sde_module._mc_evolve(S, Ra, Rb, 0, 50, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_refuses_fewer_than_one_path(self, monkeypatch, n_paths):
        # refused before any work: the walk's elements are never built
        monkeypatch.setattr(sde_module, "walk_elements", None)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            mc_martingale(spec_32(2), params_from_kappa_ns(2),
                          n_paths=n_paths, T=0.01, dt=1e-3)


class TestLoewner:
    def test_kappa0_exact(self):
        grid = np.array([0.5 + 1j, 3 + 0.5j, 1 + 2j, -1 + 1j])
        res = loewner_flow(0.0, grid, 1.0, 1e-4, 1)
        assert not res.swallowed.any()
        exact = np.sqrt(grid ** 2 + 4.0)
        exact = np.where(exact.imag < 0, -exact, exact)
        assert np.max(np.abs(res.final_g - exact)) < 1e-3

    def test_kappa0_swallowing_times(self):
        ax = 1j * np.linspace(0.2, 1.6, 8)
        res = loewner_flow(0.0, ax, 1.0, 1e-4, 1)
        assert res.swallowed.all()
        assert np.max(np.abs(res.swallowed_time - np.abs(ax) ** 2 / 4)) < 2e-3

    def test_far_point_survives(self):
        res = loewner_flow(4.0, np.array([100.0 + 100.0j]), 0.5, 1e-3, 2)
        assert not res.swallowed.any()

    def test_kappa8_fraction_grows(self):
        xs = np.linspace(-2, 2, 21)
        ys = np.linspace(0.05, 2, 20)
        grid = xs[None, :] + 1j * ys[:, None]
        f = []
        for T in (0.25, 0.5, 1.0):
            res = loewner_flow(8.0, grid, T, 1e-3, 11)
            f.append(res.swallowed.mean())
        assert f[0] < f[1] < f[2]


class TestLoewnerCapacity:
    """g_T(z) = z + 2T/z + a_2/z^2 + O(z^-3) with a_2 = 2 sqrt(kappa) int B.

    Hydrodynamic normalization (Lawler, Conformally Invariant Processes in
    the Plane, ch. 4); a_2 is taken as the left-endpoint sum of the same
    grid the Euler flow uses.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [2.0, 8.0])
    def test_expansion_at_infinity(self, kappa, seed):
        T, dt = 1.0, 1e-3
        B = BrownianPath.sample(1, dt, round(T / dt), seed).values[0]
        a2 = 2.0 * math.sqrt(kappa) * B[:-1].sum() * dt
        z = np.array([100j, 200j])
        g = loewner_flow(kappa, z, T, dt, seed).final_g
        remainder = z * (g - z) - 2.0 * T - a2 / z
        assert abs(remainder[0]) <= 1.7e-3
        assert abs(remainder[1]) <= 4.2e-4
        # z * remainder ~ a_3 / z halves when |z| doubles
        ratio = abs(z[0] * remainder[0]) / abs(z[1] * remainder[1])
        assert abs(ratio - 2.0) <= 0.05


def cell_of(raster, point):
    """(row, column) of the raster cell holding ``point``, clamped to the grid."""
    xmin, xmax, ymin, ymax = raster.bounds
    ny, nx = raster.occupancy.shape
    ix = int((point.real - xmin) / (xmax - xmin) * nx)
    iy = int((point.imag - ymin) / (ymax - ymin) * ny)
    return min(max(iy, 0), ny - 1), min(max(ix, 0), nx - 1)


class TestSupertraceHull:
    def test_trace_starts_at_origin(self):
        _, trace = supertrace_hull(2.0, 1.0, 1e-3, 1, 50)
        assert trace[0] == 0.0

    def test_kappa0_single_cell(self):
        raster, trace = supertrace_hull(0.0, 1.0, 1e-3, 5, 50)
        assert np.all(trace == 0.0)
        assert int(raster.occupancy.sum()) == 1
        iy, ix = cell_of(raster, 0.0)
        assert raster.occupancy[iy, ix]

    def test_nesting_ten_seeds(self):
        bounds = (-4, 4, -4, 4)
        for seed in range(10):
            rs, _ = supertrace_hull(4.0, 0.5, 1e-3, seed, 64, bounds=bounds)
            rt, _ = supertrace_hull(4.0, 1.0, 1e-3, seed, 64, bounds=bounds)
            assert np.all(rt.occupancy[rs.occupancy])

    def test_trace_contained(self):
        raster, trace = supertrace_hull(3.0, 0.5, 1e-3, 4, 80)
        for p in trace[:: max(1, len(trace) // 50)]:
            iy, ix = cell_of(raster, complex(p))
            assert raster.occupancy[iy, ix]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            supertrace_hull(1.0, 0.1, 1e-2, 1, 0)

    @staticmethod
    def raster(*rows):
        return np.array([[ch == "#" for ch in row] for row in rows])

    def test_fill_ring_with_hole(self):
        occ = self.raster(".....", ".###.", ".#.#.", ".###.", ".....")
        want = occ.copy()
        want[2, 2] = True
        assert np.array_equal(_fill_hull(occ), want)

    def test_fill_diagonal_gap_stays_closed(self):
        # the centre touches the outside only through corners
        occ = self.raster(".....", "..#..", ".#.#.", "..#..", ".....")
        want = occ.copy()
        want[2, 2] = True
        assert np.array_equal(_fill_hull(occ), want)

    def test_fill_hole_open_to_border(self):
        occ = self.raster(".#.#.", ".#.#.", ".###.", ".....")
        assert np.array_equal(_fill_hull(occ), occ)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (4, 5)])
    def test_fill_uniform_rasters(self, shape):
        full = np.ones(shape, dtype=bool)
        assert np.array_equal(_fill_hull(full), full)
        assert not _fill_hull(~full).any()

    def test_fill_single_row_is_all_border(self):
        occ = self.raster("#.##..#.")
        assert np.array_equal(_fill_hull(occ), occ)
        assert np.array_equal(_fill_hull(occ.T), occ.T)

    @staticmethod
    def one_cell_flood(occ):
        """Reference fill: the outside grows one cell per pass."""
        free = np.pad(~occ, 1, constant_values=True)
        outside = np.pad(np.zeros_like(occ), 1, constant_values=True)
        while True:
            grown = outside.copy()
            grown[1:] |= outside[:-1]
            grown[:-1] |= outside[1:]
            grown[:, 1:] |= outside[:, :-1]
            grown[:, :-1] |= outside[:, 1:]
            grown &= free
            if np.array_equal(grown, outside):
                return ~outside[1:-1, 1:-1]
            outside = grown

    @staticmethod
    def spiral(n):
        """Square spiral wall whose one-cell corridor enters at (1, 0)."""
        occ = np.zeros((n, n), dtype=bool)
        r = c = 0
        occ[0, 0] = True
        lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in "ab"]
        for i, length in enumerate(lengths):
            dr, dc = [(0, 1), (1, 0), (0, -1), (-1, 0)][i % 4]
            for _ in range(length):
                r, c = r + dr, c + dc
                occ[r, c] = True
        return occ

    @pytest.mark.parametrize("n", [9, 10, 31])
    def test_fill_spiral_matches_one_cell_flood(self, n):
        occ = self.spiral(n)
        closed = occ.copy()
        closed[1, 0] = True
        assert not self.one_cell_flood(occ)[1:-1, 1:-1].all()
        assert self.one_cell_flood(closed).all()
        for raster in (occ, closed, occ.T, closed[::-1]):
            assert np.array_equal(_fill_hull(raster),
                                  self.one_cell_flood(raster))

    def test_fill_random_matches_one_cell_flood(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            ny, nx = rng.integers(1, 40, size=2)
            occ = rng.random((ny, nx)) < rng.uniform(0.1, 0.9)
            assert np.array_equal(_fill_hull(occ), self.one_cell_flood(occ))

    def test_fill_matches_label_fill(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(20)
        for _ in range(1000):
            ny, nx = rng.integers(1, 25, size=2)
            occ = rng.random((ny, nx)) < rng.uniform(0.1, 0.9)
            labels, _ = ndimage.label(~occ)  # 4-connected cross
            border = np.concatenate([labels[0], labels[-1],
                                     labels[:, 0], labels[:, -1]])
            want = occ | ((labels > 0) & ~np.isin(labels, border))
            assert np.array_equal(_fill_hull(occ), want)


class TestWriters:
    def test_superpath_csv(self):
        path = BrownianPath.sample(1, 1e-2, 5, 1)
        out = euler_maruyama(sde_system(spec_32(1.0, FLOAT)), init_32(), path)
        buf = io.StringIO()
        write_superpath_csv(out, buf, config={"seed": 1})
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1].startswith("t,")
        assert len(lines) == 2 + 6  # header rows + 6 time points
        # byte-identical reruns
        buf2 = io.StringIO()
        out2 = euler_maruyama(sde_system(spec_32(1.0, FLOAT)), init_32(),
                              BrownianPath.sample(1, 1e-2, 5, 1))
        write_superpath_csv(out2, buf2, config={"seed": 1})
        assert buf2.getvalue() == text

    def test_superpath_csv_swallowed(self):
        # 32alt moves the body of z by -(dB1 + i dB2): from 0.5, a step of
        # 0.5 - 1e-7 at step 4 puts it inside the swallowing ball
        spec = spec_32alt(1.0, FLOAT)
        inc = np.zeros((2, 10))
        inc[0, 3] = 0.5 - 1e-7
        out = euler_maruyama(sde_system(spec), _initial_point(spec, 0.5),
                             BrownianPath(dt=1e-2, increments=inc))
        assert out.swallowed_time == 0.04
        buf = io.StringIO()
        write_superpath_csv(out, buf, config={"seed": 1})
        lines = buf.getvalue().splitlines()
        assert lines[:2] == ["# seed=1", "# status=swallowed t=0.04"]
        assert lines[2].startswith("t,z0_re,z0_im,")
        rows = [l.split(",") for l in lines[3:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.01, 0.02, 0.03, 0.04]
        assert abs(complex(float(rows[-1][1]), float(rows[-1][2]))) < 1e-6
        assert buf.getvalue() == row_loop_superpath_csv(out, {"seed": 1})

    def test_pgm(self):
        raster = HullRaster(bounds=(0, 1, 0, 1),
                            occupancy=np.array([[True, False],
                                                [False, True]]))
        buf = io.StringIO()
        write_pgm(raster, buf, config={"kappa": "2"})
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "# kappa=2"
        assert lines[2] == "2 2"
        assert lines[3] == "1"
        assert lines[4:] == ["0 1", "1 0"]

    def test_json_report(self):
        buf = io.StringIO()
        write_json_report({"ok": True}, buf, config={"seed": 3})
        import json

        data = json.loads(buf.getvalue())
        assert data["config"]["seed"] == 3
        assert data["report"]["ok"] is True


# -- one-path layers against their earlier full-size forms, bit for bit ----------


def dense_loewner_flow(kappa, z_grid, T, dt, seed):
    """The Loewner flow stepping every grid point under full-grid masks."""
    z_grid = np.asarray(z_grid, dtype=complex)
    steps = round(T / dt)
    sk = math.sqrt(float(kappa))
    B = BrownianPath.sample(1, dt, steps, seed).values[0]
    eps = 1e-3 * math.sqrt(dt)
    g = z_grid.astype(complex).ravel().copy()
    swallowed_time = np.full(g.shape, np.nan)
    for k in range(steps):
        active = np.isnan(swallowed_time)
        f = g - sk * B[k]
        hit = active & ((np.abs(f) < eps) | (g.imag < 0.0))
        swallowed_time[hit] = k * dt
        active &= ~hit
        g[active] = g[active] + dt * 2.0 / f[active]
    final = g.copy()
    final[np.isfinite(swallowed_time)] = np.nan
    return swallowed_time.reshape(z_grid.shape), final.reshape(z_grid.shape)


def loewner_grid(grid, bounds):
    xs = np.linspace(bounds[0], bounds[1], grid)
    ys = np.linspace(bounds[2], bounds[3], grid)
    return xs[None, :] + 1j * ys[:, None]


class TestLoewnerSurvivorsOnly:
    @pytest.mark.parametrize("kappa, grid, bounds, T, dt, seed", [
        (2.0, 1, (-1.0, 1.0, 0.5, 2.0), 0.25, 1e-3, 1),
        (2.0, 3, (-2.0, 2.0, 4.0 / 3, 2.0), 1.0, 1e-3, 3),
        (0.0, 8, (-2.0, 2.0, 0.5, 2.0), 1.0, 1e-4, 1),
        (8.0, 64, (-2.0, 2.0, 4.0 / 64, 2.0), 1.0, 1e-3, 5),
        (4.0, 64, (-2.0, 2.0, 4.0 / 64, 2.0), 1.0, 1e-3, 6),
        (6.0, 64, (-2.0, 2.0, 4.0 / 64, 2.0), 1.0, 1e-3, 7),
        # the middle row lies on the axis (a candidate of the Im g < eps
        # pre-filter at every step), the rows below it go at t = 0
        (2.0, 17, (-1.0, 1.0, -1.0, 1.0), 0.5, 1e-3, 2),
    ])
    def test_matches_full_grid_loop(self, kappa, grid, bounds, T, dt, seed):
        z = loewner_grid(grid, bounds)
        res = loewner_flow(kappa, z, T, dt, seed)
        want_time, want_g = dense_loewner_flow(kappa, z, T, dt, seed)
        assert res.swallowed_time.tobytes() == want_time.tobytes()
        assert res.final_g.tobytes() == want_g.tobytes()
        if grid == 64:
            assert res.swallowed.sum() >= 100
        if grid == 17:
            assert z[8].imag.tolist() == [0.0] * 17
            assert (res.swallowed_time[:8] == 0.0).all()
            axis = res.final_g[8][~res.swallowed[8]]
            assert axis.size and (axis.imag == 0.0).all()

    def test_points_within_eps_of_the_driver(self):
        # B starts at 0, so at t = 0 |f| = |z|: the points at |z| < eps,
        # all with 0 < Im z < eps, go at once; at Im z = eps, where
        # |f| = eps, and above, the first step overshoots below the axis
        eps = 1e-3 * math.sqrt(1e-2)
        z = np.array([0.9j, 0.3j, 0.5 + 0.5j, -0.7 + 0.2j, 1j, 2j]) * eps
        res = loewner_flow(2.0, z, 0.05, 1e-2, 1)
        want_time, want_g = dense_loewner_flow(2.0, z, 0.05, 1e-2, 1)
        assert res.swallowed_time.tolist() == [0.0] * 4 + [1e-2] * 2
        assert res.swallowed_time.tobytes() == want_time.tobytes()
        assert res.final_g.tobytes() == want_g.tobytes()

    def test_overshoot_swallowing_matches(self):
        # 2 dt / |g|^2 = 8 sends the first step below the real axis, far
        # from the driving point; the second step swallows it by g.imag < 0
        z = np.array([0.03 + 0.04j, 1.0 + 1.0j])
        res = loewner_flow(0.0, z, 0.05, 1e-2, 1)
        want_time, want_g = dense_loewner_flow(0.0, z, 0.05, 1e-2, 1)
        assert res.swallowed_time.tolist()[0] == 1e-2
        assert res.swallowed.tolist() == [True, False]
        assert res.swallowed_time.tobytes() == want_time.tobytes()
        assert res.final_g.tobytes() == want_g.tobytes()


# -- the CSV writer against row-by-row reference formatters ----------------------


def per_cell_loewner_rows(z_grid, res):
    """The points CSV rows built cell by cell from numpy scalars."""
    rows = ["re,im,swallowed_time,final_g_re,final_g_im"]
    for z, t, g in zip(z_grid.ravel(), res.swallowed_time.ravel(),
                       res.final_g.ravel()):
        rows.append(",".join([
            repr(float(z.real)), repr(float(z.imag)),
            "" if np.isnan(t) else repr(float(t)),
            "" if np.isnan(g.real) else repr(float(g.real)),
            "" if np.isnan(g.imag) else repr(float(g.imag))]))
    return rows


def row_loop_superpath_csv(sp_path, config):
    """The path CSV written row by row, with a NaN part written as nan."""
    Z, TH = sp_path.Z, sp_path.TH
    used = (Z != 0).any(axis=0) | (TH != 0).any(axis=0)
    masks = [int(m) for m in np.flatnonzero(used)] or [0]
    cols = ["t"]
    for m in masks:
        cols += [f"z{m}_re", f"z{m}_im"]
    for m in masks:
        cols += [f"theta{m}_re", f"theta{m}_im"]
    lines = [f"# {k}={config[k]}" for k in sorted(config)]
    if sp_path.swallowed_time is not None:
        lines.append(f"# status=swallowed t={sp_path.swallowed_time!r}")
    lines.append(",".join(cols))
    for t, zs, ths in zip(sp_path.times.tolist(), Z[:, masks].tolist(),
                          TH[:, masks].tolist()):
        row = [repr(float(t))]
        for c in zs + ths:
            if c == 0:
                c = 0j
            row += [repr(c.real), repr(c.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def row_loop_trace_rows(trace, dt):
    """The supertrace CSV rows, each time taken as i * dt in Python floats."""
    rows = ["t,re,im"]
    for i, p in enumerate(trace):
        rows.append(f"{float(i * dt)!r},{float(p.real)!r},{float(p.imag)!r}")
    return rows


def superpath_text(sp_path, config):
    buf = io.StringIO()
    write_superpath_csv(sp_path, buf, config=config)
    return buf.getvalue()


def cli_csv(tmp_path, argv, suffix):
    """The header and rows of the CSV a trace command writes."""
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / f"o{suffix}").read_text().splitlines()
    return [l for l in lines if not l.startswith("#")]


class TestCsvWriter:
    def test_cells_and_lines(self):
        buf = io.StringIO()
        write_csv(["a", "b"], [np.array([-0.0, np.inf, 1e-300]),
                               [np.nan, 0.1, np.nan]],
                  buf, config={"seed": 3, "kappa": "2"}, comment="# note")
        assert buf.getvalue() == ("# kappa=2\n# seed=3\n# note\na,b\n"
                                  "-0.0,\ninf,0.1\n1e-300,\n")

    def test_non_float_column_keeps_its_cells(self):
        buf = io.StringIO()
        write_csv(["n", "x"], [np.array([3, -1, 3]),
                               np.array([0.5, -0.0, 0.5])], buf)
        assert buf.getvalue() == "n,x\n3,0.5\n-1,-0.0\n3,0.5\n"

    @pytest.mark.parametrize("rows", [4095, 4096, 4097])
    def test_repeated_cells_match_row_loops(self, rows):
        # each distinct value of a 4096-row block is formatted once, keyed
        # on its bits: -0.0 beside 0.0, NaN of both signs and with another
        # payload (all empty cells), +-inf and 5e-324, repeated across the
        # block boundary
        payload = np.array([0x7FF8_0000_0000_0123], np.int64).view(float)[0]
        finite = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                           0.1, 1.5])
        nans = np.concatenate([finite, [np.nan, -np.nan, payload, -payload]])
        assert len(set(nans.view(np.int64).tolist())) == 12
        rng = np.random.default_rng(rows)

        def column(re, im=None):
            col = re[rng.integers(re.size, size=rows)]
            if im is None:
                return col
            out = col.astype(complex)
            out.imag = im[rng.integers(im.size, size=rows)]
            return out

        z, t, g = column(finite, finite), column(nans), column(nans, nans)
        res = LoewnerResult(z_grid=z, swallowed_time=t, final_g=g)
        buf = io.StringIO()
        write_csv(["re", "im", "swallowed_time", "final_g_re", "final_g_im"],
                  [z.real, z.imag, t, g.real, g.imag], buf)
        assert buf.getvalue().splitlines() == per_cell_loewner_rows(z, res)
        buf = io.StringIO()
        write_csv(["t", "re", "im"], [np.arange(rows) * 1e-4, z.real,
                                      z.imag], buf)
        assert buf.getvalue().splitlines() == row_loop_trace_rows(z, 1e-4)
        out = SuperPath(times=np.arange(rows) * 1e-3,
                        Z=np.stack([z, column(finite, finite)], axis=1),
                        TH=np.stack([column(finite, finite), z], axis=1))
        assert superpath_text(out, {"seed": 1}) == \
            row_loop_superpath_csv(out, {"seed": 1})

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError):
            write_csv(["a", "b"], [np.zeros(3), np.zeros(2)], io.StringIO())

    @pytest.mark.parametrize("name, init, seed", [
        ("32", init_32(), 7), ("32alt", init_32alt(), 3),
        ("virasoro", None, 4)])
    def test_superpath_matches_row_loop(self, name, init, seed):
        spec = standard_spec(name, 2.0, FLOAT)
        if init is None:
            init = _initial_point(spec, 2.0)
        path = BrownianPath.sample(spec.brownian_dim, 1e-3, 1000, seed)
        out = euler_maruyama(sde_system(spec), init, path)
        config = {"spec": name, "seed": seed}
        assert superpath_text(out, config) == row_loop_superpath_csv(out,
                                                                     config)

    def test_superpath_edge_cells(self):
        # -0.0 parts, zero coefficients of a used mask, 1e-300 and inf
        Z = np.array([[2.0, complex(-0.0, -0.0), complex(1e-300, -0.0), 0],
                      [complex(np.inf, 1), 0, complex(-0.0, 1e-300), 0]])
        TH = np.array([[0, 0, 0, 0], [0, complex(-np.inf, -0.0), 0, 0]])
        out = SuperPath(times=np.array([0.0, 0.5]), Z=Z, TH=TH)
        text = superpath_text(out, {"seed": 0})
        assert text == row_loop_superpath_csv(out, {"seed": 0})
        assert text.splitlines()[2:] == [
            "0.0,2.0,0.0,0.0,0.0,1e-300,-0.0,0.0,0.0,0.0,0.0,0.0,0.0",
            "0.5,inf,1.0,0.0,0.0,-0.0,1e-300,0.0,0.0,-inf,-0.0,0.0,0.0"]

    def test_superpath_nan_cell_is_empty(self):
        Z = np.array([[2.0, 0], [complex(np.nan, 1.5), complex(0.0, np.nan)]])
        out = SuperPath(times=np.array([0.0, 0.5]), Z=Z, TH=np.zeros((2, 2)))
        lines = superpath_text(out, {}).splitlines()
        assert lines[0] == "t,z0_re,z0_im,z1_re,z1_im,theta0_re,theta0_im," \
                           "theta1_re,theta1_im"
        assert lines[2] == "0.5,,1.5,0.0,,0.0,0.0,0.0,0.0"
        assert row_loop_superpath_csv(out, {}).splitlines()[2] == \
            "0.5,nan,1.5,0.0,nan,0.0,0.0,0.0,0.0"

    def test_supertrace_csv_matches_row_loop(self, tmp_path):
        rows = cli_csv(tmp_path, [
            "trace", "--mode", "supertrace", "--kappa", "3", "--T", "0.5",
            "--dt", "1e-4", "--seed", "2", "--grid", "7"], "_trace.csv")
        _, trace = supertrace_hull(3.0, 0.5, 1e-4, 2, 7)
        assert len(rows) == 1 + 5001
        assert rows == row_loop_trace_rows(trace, 1e-4)


    def test_points_csv_peak_memory(self, tmp_path):
        # a 128 x 128 Loewner points file: the rows are formatted and
        # written in blocks, so the tracemalloc peak stays within 1.1 times
        # that of a row loop that joins every row string first; the bytes
        # are the same
        rng = np.random.default_rng(0)
        z = loewner_grid(128, (-2.0, 2.0, 4.0 / 128, 2.0))
        t = rng.random(z.shape)
        t[rng.random(z.shape) < 0.7] = np.nan
        g = z + rng.normal(size=z.shape) * (1 + 1j)
        g[~np.isnan(t)] = complex(np.nan, 0.0)
        res = LoewnerResult(z_grid=z, swallowed_time=t, final_g=g)
        header = ["re", "im", "swallowed_time", "final_g_re", "final_g_im"]

        def row_loop(dest):
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write("\n".join(per_cell_loewner_rows(z, res)) + "\n")

        peaks = []
        for write, dest in (
                (lambda d: write_csv(header, [z.real, z.imag, t, g.real,
                                              g.imag], d), "blocks.csv"),
                (row_loop, "rows.csv")):
            tracemalloc.start()
            try:
                write(tmp_path / dest)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "blocks.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
        assert peaks[0] <= 1.1 * peaks[1]


class TestLoewnerRows:
    def test_nan_and_signed_zero_cells(self):
        z = np.array([[complex(-0.0, 0.5), complex(0.25, -0.0), 1e-300 + 2j,
                       1.0 + 1.0j]])
        res = LoewnerResult(
            z_grid=z,
            swallowed_time=np.array([[np.nan, 0.0, 0.125, 0.5]]),
            final_g=np.array([[complex(-0.0, 1.5), complex(np.nan, 0.0),
                               complex(np.nan, -0.0),
                               complex(np.nan, np.nan)]]))
        buf = io.StringIO()
        write_csv(["re", "im", "swallowed_time", "final_g_re", "final_g_im"],
                  [z.real, z.imag, res.swallowed_time, res.final_g.real,
                   res.final_g.imag], buf)
        rows = buf.getvalue().splitlines()
        assert rows == per_cell_loewner_rows(z, res)
        assert rows[1:] == ["-0.0,0.5,,-0.0,1.5", "0.25,-0.0,0.0,,0.0",
                            "1e-300,2.0,0.125,,-0.0", "1.0,1.0,0.5,,"]

    def test_swallowed_flow(self, tmp_path):
        rows = cli_csv(tmp_path, [
            "trace", "--mode", "loewner", "--kappa", "2", "--T", "1",
            "--seed", "5", "--grid", "32"], "_points.csv")
        z = loewner_grid(32, (-2.0, 2.0, 4.0 / 32, 2.0))
        res = loewner_flow(2.0, z, 1.0, 1e-3, 5)
        assert res.swallowed.any() and not res.swallowed.all()
        assert rows == per_cell_loewner_rows(z, res)


def dense_conservation_check_32(init, path, kappa):
    """conservation_check_32 with every product over the whole pair table."""
    sol = closed_form_32(init, path, kappa)
    sk = math.sqrt(float(kappa))
    spec = spec_32(kappa, FLOAT)
    z0, th0 = _point_vectors(init, 4)
    y = _gvec(spec.beta[0][-1][0], sol.n) / sk
    eta = _gvec(spec.beta[0][-1][1], sol.n) / sk
    yeta = _bmul(y, eta)
    B = path.values[0]
    w = sol.Z + (y[None, :] + _bmul(sol.TH, eta[None, :])) \
        * (sk * B[:, None])
    mu = sol.TH + sk * B[:, None] * eta[None, :]
    conserved = _bmul(th0[None, :], z0[None, :]) \
        + sol.times[:, None] * yeta[None, :]
    residual = _bmul(mu, w) - conserved
    return {
        "max_conservation_error": float(np.max(np.abs(residual))),
        "max_body_drift": float(np.max(np.abs(w[:, 0] - z0[0]))),
    }


EVEN_SOULS_4 = [m for m in range(1, 16) if bin(m).count("1") % 2 == 0]
ODD_MASKS_4 = [m for m in range(16) if bin(m).count("1") % 2]


class TestConservationRestricted:
    @settings(max_examples=25, deadline=None)
    @given(soul=st.dictionaries(st.sampled_from(EVEN_SOULS_4),
                                st.floats(-2.0, 2.0, allow_subnormal=False),
                                min_size=1),
           theta=st.dictionaries(st.sampled_from(ODD_MASKS_4),
                                 st.floats(-2.0, 2.0, allow_subnormal=False)),
           kappa=st.sampled_from([0.5, 2.0, 3.0]),
           seed=st.integers(0, 2**16))
    def test_matches_dense_products(self, soul, theta, kappa, seed):
        init = SuperPoint(GrassmannNumber(4, FLOAT, {0: 2.0, **soul}),
                          GrassmannNumber(4, FLOAT, {8: 1.0, **theta}))
        path = BrownianPath.sample(1, 1e-3, 200, seed)
        assert conservation_check_32(init, path, kappa) \
            == dense_conservation_check_32(init, path, kappa)


def loop_rasterize_polyline(points, bounds, shape):
    """Polyline occupancy sampled segment by segment in a Python loop."""
    xmin, xmax, ymin, ymax = bounds
    ny, nx = shape
    occ = np.zeros((ny, nx), dtype=bool)
    cell = min((xmax - xmin) / nx, (ymax - ymin) / ny)
    samples = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        seg = abs(b - a)
        k = max(1, int(seg / (0.5 * cell)) + 1)
        samples.extend(a + (b - a) * (j / k) for j in range(1, k + 1))
    pts = np.asarray(samples)
    ix = np.floor((pts.real - xmin) / (xmax - xmin) * nx).astype(int)
    iy = np.floor((pts.imag - ymin) / (ymax - ymin) * ny).astype(int)
    keep = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    occ[iy[keep], ix[keep]] = True
    return occ


class TestRasterizePolyline:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("grid", [1, 16, 128, 1024])
    def test_matches_segment_loop(self, seed, grid):
        values = BrownianPath.sample(2, 1e-3, 1000, seed).values
        trace = math.sqrt(3.0) * (values[0] + 1j * values[1])
        for bounds in ((float(trace.real.min()) - 0.1,
                        float(trace.real.max()) + 0.1,
                        float(trace.imag.min()) - 0.1,
                        float(trace.imag.max()) + 0.1),
                       (-0.5, 0.5, -0.25, 0.75)):  # clips the trace
            got = _rasterize_polyline(trace, bounds, (grid, grid))
            want = loop_rasterize_polyline(trace, bounds, (grid, grid))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("points", [[0j], [0j, 0j, 0j], [0j, 1 + 1j]])
    def test_degenerate_polylines(self, points):
        points = np.array(points)
        bounds, shape = (-1.0, 2.0, -1.0, 2.0), (7, 5)
        assert np.array_equal(_rasterize_polyline(points, bounds, shape),
                              loop_rasterize_polyline(points, bounds, shape))

    @pytest.mark.parametrize("width", [1e-18, 1e-300, 1e-323])
    def test_sample_count_beyond_int64_refused(self, width):
        # 2^62 samples or more (or an infinite count) would overflow the
        # int cast; the refusal is a MemoryError, before any allocation
        points = np.array([0j, 0.5 + 0.5j])
        with pytest.raises(MemoryError, match="raster samples"):
            _rasterize_polyline(points, (0.0, width, 0.0, 1.0), (128, 128))


def batched_cf32_core(z0, th0, kappa, times, B):
    """The spec-32 closed form over a (paths, steps+1) batch of driving
    values B, returning (paths, steps+1, 2^n) arrays."""
    sk = math.sqrt(kappa)
    spec = spec_32(kappa, FLOAT)
    n = z0.shape[-1].bit_length() - 1
    y = _gvec(spec.beta[0][-1][0], n) / sk
    eta = _gvec(spec.beta[0][-1][1], n) / sk
    zinv = _binv(z0[None, :])[0]
    yeta = _bmul(y, eta)
    th_yeta_zinv = _bmul(th0, _bmul(yeta, zinv))
    yeta_zinv = _bmul(yeta, zinv)
    cz = sk * (y + _bmul(th0, eta))
    ct = sk * eta
    Z = (z0[None, None, :] + times[None, :, None] * th_yeta_zinv[None, None, :]
         - B[:, :, None] * cz[None, None, :])
    TH = (th0[None, None, :] + times[None, :, None] * yeta_zinv[None, None, :]
          - B[:, :, None] * ct[None, None, :])
    return Z, TH


def batched_conservation_check_32(init, path, kappa):
    """conservation_check_32 on the batched closed form, with y, eta and
    y eta rebuilt from the spec."""
    z0, th0 = _point_vectors(init, 4)
    Z, TH = batched_cf32_core(z0, th0, float(kappa), path.times,
                              path.values[0][None, :])
    Z, TH, n = Z[0], TH[0], z0.shape[-1].bit_length() - 1
    sk = math.sqrt(float(kappa))
    spec = spec_32(kappa, FLOAT)
    y = _gvec(spec.beta[0][-1][0], n) / sk
    eta = _gvec(spec.beta[0][-1][1], n) / sk
    yeta = _bmul(y, eta)
    B = path.values[0]

    def product(A, C):
        return kernel._tmul(kernel._restrict(n, np.flatnonzero(A.any(axis=0)),
                                             np.flatnonzero(C.any(axis=0))),
                            A, C)

    w = Z + (y[None, :] + product(TH, eta[None, :])) * (sk * B[:, None])
    mu = TH + sk * B[:, None] * eta[None, :]
    conserved = _bmul(th0[None, :], z0[None, :]) \
        + path.times[:, None] * yeta[None, :]
    residual = product(mu, w) - conserved
    return {
        "max_conservation_error": float(np.max(np.abs(residual))),
        "max_body_drift": float(np.max(np.abs(w[:, 0] - z0[0]))),
    }


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def init_soul_32(n=4):
    """z0 with a soul on every even mask of p0..p3, theta with extra terms."""
    z = {0: 2.0, 3: 0.7, 5: -0.3, 12: -0.4, 15: 0.25}
    theta = {8: 1.0, 7: 0.5, 1: -0.6, 13: 0.2}
    if n > 4:
        z[1 | 16], theta[4 | 8 | 16] = 0.35, 0.45
    return SuperPoint(GrassmannNumber(n, FLOAT, z),
                      GrassmannNumber(n, FLOAT, theta))


class TestClosedForm32Unbatched:
    """The closed form, conservation check and convergence reference of spec
    32 give the same bits as the batched closed form they replaced."""

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("init", [init_32(), init_soul_32(),
                                      init_soul_32(5)])
    def test_closed_form_and_conservation(self, init, seed, kappa):
        path = BrownianPath.sample(1, 1e-3, 300, seed)
        z0, th0 = _point_vectors(init, 4)
        Z, TH = batched_cf32_core(z0, th0, kappa, path.times,
                                  path.values[0][None, :])
        got = closed_form_32(init, path, kappa)
        assert np.array_equal(bits(got.Z), bits(Z[0]))
        assert np.array_equal(bits(got.TH), bits(TH[0]))
        assert conservation_check_32(init, path, kappa) \
            == batched_conservation_check_32(init, path, kappa)

    @pytest.mark.parametrize("n", [4, 5])
    def test_complex_body_with_soul(self, n):
        # z0^-1 is the soul series with P_k = body^-(k+1), where the dense
        # reference divides by body^(k+1): with a complex body the two may
        # round differently
        init = init_soul_32(n)
        init = SuperPoint(init.z + GrassmannNumber.scalar(-0.6 + 0.9j, n,
                                                          FLOAT), init.theta)
        path = BrownianPath.sample(1, 1e-3, 300, 4)
        z0, th0 = _point_vectors(init, 4)
        Z, TH = batched_cf32_core(z0, th0, 2.0, path.times,
                                  path.values[0][None, :])
        got = closed_form_32(init, path, 2.0)
        for a, b in ((got.Z, Z[0]), (got.TH, TH[0])):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("init", [init_32(), init_soul_32(),
                                      init_soul_32(5)])
    def test_convergence_reference(self, init, kappa):
        def batched(z0, th0, t, B):  # B: the terminal value of every path
            Z, TH = batched_cf32_core(z0, th0, kappa, np.array([t]),
                                      B[:, None])
            return Z[:, 0], TH[:, 0]

        for seed in range(3):
            want = sde_module.pathwise_convergence(
                sde_system(spec_32(kappa, FLOAT)),
                lambda z0, th0, bp: (bp.values[0, -1],), batched, init, 0.1,
                [1e-2, 1e-3], 12, seed)
            assert convergence_32(kappa, init, 0.1, [1e-2, 1e-3], 12,
                                  seed) == want


def per_path_reference(kappa, spec):
    """The convergence reference as it was before it was batched: each
    path's terminal closed form, evaluated while its fine path is in
    memory, is that path's data, and the batched part only unstacks it."""
    kappa = float(kappa)

    def terminal_32(z0, th0, bp):
        return sde_module._cf32_core(z0, th0, kappa, bp.dt * bp.steps,
                                     bp.values[0, -1])

    def terminal_32alt(z0, th0, bp):
        B1, B2 = bp.values
        powers, P = sde_module._cf32alt_series(z0, kappa, B1, B2)
        J = bp.dt * np.sum(P[:, :-1], axis=1)
        return sde_module._cf32alt_state(z0, th0, kappa, B1[-1], B2[-1],
                                         powers, J)

    terminal = {"32": terminal_32, "32alt": terminal_32alt}[spec]
    return terminal, lambda z0, th0, t, Z, TH: (Z.T, TH.T)


def soul_32alt(n):
    """A complex body and a soul on mask 3: two soul-series terms on two
    generators; on four, a soul on mask 12 too, and theta on p1 so that the
    soul of the integral reaches z."""
    z = {0: complex(1.3, 0.4), 3: 0.7}
    if n > 2:
        z[12] = -0.5j
    return SuperPoint(GrassmannNumber(n, FLOAT, z), make_generator(1, n, FLOAT))


class TestBatchedConvergenceReference:
    """The terminal closed form evaluated once for all paths gives the
    references and reports of the per-path evaluation, bit for bit."""

    @pytest.mark.parametrize("ladder", [(1e-2, 1e-3), (1e-2, 5e-3, 1e-3)])
    @pytest.mark.parametrize("width", [1, 2, 12])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("spec, init", [
        ("32", init_soul_32(4)), ("32", init_soul_32(5)),
        ("32alt", soul_32alt(2)), ("32alt", soul_32alt(4))],
        ids=["32-n4", "32-n5", "32alt-n2", "32alt-n4"])
    def test_reports_match_per_path(self, monkeypatch, spec, init, kappa,
                                    width, ladder):
        study = {"32": convergence_32, "32alt": convergence_32alt}[spec]
        system = sde_system((spec_32 if spec == "32" else spec_32alt)(
            kappa, FLOAT))
        run, references = sde_module.pathwise_convergence, []

        def recorded(system, path_data, closed_form, *args):
            return run(system, path_data, lambda *a: references.append(
                closed_form(*a)) or references[-1], *args)

        monkeypatch.setattr(sde_module, "pathwise_convergence", recorded)
        for seed in range(5):
            want = recorded(system, *per_path_reference(kappa, spec), init,
                            0.02, ladder, width, seed)
            assert study(kappa, init, 0.02, ladder, width, seed) == want
            (wz, wth), (gz, gth) = references[-2:]
            assert gz.shape == (width, 1 << init.z.n)
            assert np.array_equal(bits(gz), bits(wz))
            assert np.array_equal(bits(gth), bits(wth))
