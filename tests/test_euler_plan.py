"""Euler on the reachable masks against the dense step, bit for bit.

``dense_coefficient_table``, ``dense_eval_table`` and ``dense_em_core`` are
copies of the Euler step before it was restricted to the reachable masks:
every state product runs through the whole pair table, every constant times
a z power through a signed gather over all masks, and swallowed paths are frozen by ``np.where`` at every step.  The
restricted step must give the same Z and TH down to the raw bits, signed
zeros included.  The calls ``sde._bind`` makes once per integration must
leave the work array as ``dense_kernel.op_by_op`` does, bit for bit.
"""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_kernel import _binv, _bmul, _derivative, op_by_op
from supersle import sde as sde_module
from supersle.cli import _initial_point
from supersle.grassmann import FLOAT, GrassmannNumber, make_generator
from supersle.kernel import _gvec, _restrict, _tmul
from supersle.sde import (
    BrownianPath,
    _bind,
    _em_core,
    _point_vectors,
    _step_plan,
    convergence_32,
    convergence_32alt,
    euler_maruyama,
)
from supersle.superfield import LaurentSuperfunction, SuperPoint
from supersle.walk import (
    SdeSystem,
    WalkSpec,
    sde_system,
    spec_32,
    spec_32alt,
    spec_virasoro,
)
from test_sde import superfunction_case

SWALLOW_EPS = 1e-6


def gather(c):
    """Left multiplication by the constant c as (dst, src, c_i sign, starts)."""
    n = c.shape[-1].bit_length() - 1
    dst, left, right, signs, starts = _restrict(n, np.flatnonzero(c),
                                                np.arange(1 << n))
    return dst, right, c[left] * signs, starts


def gather_add(table, B, out):
    dst, src, w, starts = table
    out[..., dst] += np.add.reduceat(w[None] * B[..., src], starts, axis=-1)
    return out


def dense_coefficient_table(fns, n):
    table = [tuple([(k, gather(_gvec(c, n)) if k else _gvec(c, n))
                    for k, c in part.items()] for part in (F.a, F.b))
             for F in fns]
    exps = [k for F in fns for k in (*F.a, *F.b)]
    return table, min(exps, default=0), max(exps, default=0)


def dense_eval_table(table, lo, hi, Z, TH):
    pows = {1: Z}
    for k in range(2, hi + 1):
        pows[k] = _bmul(pows[k - 1], Z)
    if lo < 0:  # a frozen body of 0 is inverted as 1, its step discarded
        pows[-1] = _binv(np.where(Z[..., :1] == 0, 1.0, Z))
        for k in range(-2, lo - 1, -1):
            pows[k] = _bmul(pows[k + 1], pows[-1])
    out = []
    for a, b in table:
        val, bsum = np.zeros_like(Z), np.zeros_like(Z)
        for acc, part in ((val, a), (bsum, b)):
            for k, coeff in part:
                if k:
                    gather_add(coeff, pows[k], acc)
                else:
                    acc += coeff
        if bsum.any():
            val = val + _bmul(TH, bsum)
        out.append(val)
    return out


def dense_em_core(system, z0, th0, increments, dt):
    paths, steps, dim = increments.shape
    fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
    table, lo, hi = dense_coefficient_table(fns,
                                            z0.shape[-1].bit_length() - 1)
    Z = np.zeros((paths, steps + 1, z0.shape[-1]), dtype=complex)
    TH = np.zeros_like(Z)
    Z[:, 0] = z0
    TH[:, 0] = th0
    swallowed = np.full(paths, steps + 1, dtype=int)
    z = Z[:, 0].copy()
    th = TH[:, 0].copy()
    for k in range(steps):
        if lo < 0:
            hit = (np.abs(z[:, 0]) < SWALLOW_EPS) & (swallowed > steps)
            swallowed[hit] = k
        active = swallowed > steps
        if not active.any():
            Z[:, k + 1:] = z[:, None, :]
            TH[:, k + 1:] = th[:, None, :]
            return Z, TH, swallowed
        zd, td, *diffusion = dense_eval_table(table, lo, hi, z, th)
        znew = z + dt * zd
        tnew = th + dt * td
        for i in range(dim):
            dB = increments[:, k, i][:, None]
            znew = znew + dB * diffusion[2 * i]
            tnew = tnew + dB * diffusion[2 * i + 1]
        z = np.where(active[:, None], znew, z)
        th = np.where(active[:, None], tnew, th)
        Z[:, k + 1] = z
        TH[:, k + 1] = th
    return Z, TH, swallowed


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def used_masks(A):
    return set(np.flatnonzero(A.reshape(-1, A.shape[-1]).any(axis=0)).tolist())


def assert_same_as_dense(system, z0, th0, increments, dt):
    """Restricted and dense runs agree bit for bit; returns the run."""
    Z, TH, swallowed = _em_core(system, z0, th0, increments, dt)
    dZ, dTH, dswallowed = dense_em_core(system, z0, th0, increments, dt)
    assert np.array_equal(swallowed, dswallowed)
    assert np.array_equal(bits(Z), bits(dZ))
    assert np.array_equal(bits(TH), bits(dTH))
    zT, thT, tswallowed = _em_core(system, z0, th0, increments, dt,
                                   history=False)
    assert zT.shape == (z0.shape[0], 1, z0.shape[-1])
    assert np.array_equal(tswallowed, swallowed)
    assert np.array_equal(bits(zT[:, 0]), bits(Z[:, -1]))
    assert np.array_equal(bits(thT[:, 0]), bits(TH[:, -1]))
    return Z, TH, swallowed


def plan_for(system, z0, th0):
    fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
    return _step_plan(fns, z0, th0)[0]


def batch(init, width, dim, steps, dt, seed):
    z0, th0 = _point_vectors(init)
    rng = np.random.default_rng(seed)
    increments = rng.normal(0.0, np.sqrt(dt), size=(width, steps, dim))
    return np.tile(z0, (width, 1)), np.tile(th0, (width, 1)), increments


def point(n, z, theta_index, soul=None):
    zg = GrassmannNumber.scalar(z, n, FLOAT)
    if soul is not None:
        zg = zg + GrassmannNumber(n, FLOAT, soul)
    return SuperPoint(zg, make_generator(theta_index, n, FLOAT))


def walk_spec(n):
    """The 7- and 8-generator walk files of the CLI tests."""
    return WalkSpec.from_json({
        "n": n, "b": 1, "alpha0": {"-1": {"y": "1"}},
        "beta": [{"-1": {"y": "1", "eta": f"1*p0 + 1*p{n - 1}"}}]}, FLOAT)


CASES = {
    "32": (sde_system(spec_32(2.0, FLOAT)), point(4, 2.0, 3), 1),
    "32-soul": (sde_system(spec_32(2.0, FLOAT)),
                point(4, 2.0, 3, {0b0011: 0.3, 0b1100: -0.2j}), 1),
    "32alt": (sde_system(spec_32alt(1.0, FLOAT)), point(2, 2.0, 1), 2),
    "32alt-soul": (sde_system(spec_32alt(1.0, FLOAT)),
                   point(2, 0.5, 1, {0b11: 0.7}), 2),
    **{f"walk{n}": (sde_system(walk_spec(n)),
                    _initial_point(walk_spec(n), 2.0), 1) for n in (7, 8)},
    "virasoro": (sde_system(spec_virasoro(2.0, FLOAT)),
                 _initial_point(spec_virasoro(2.0, FLOAT), 2.0), 1),
}


@pytest.mark.parametrize("width", [1, 2, 50, 200])
@pytest.mark.parametrize("name", list(CASES))
def test_matches_dense_step(name, width):
    system, init, dim = CASES[name]
    z0, th0, inc = batch(init, width, dim, 60, 1e-2, 17)
    Z, TH, _ = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    plan = plan_for(system, z0, th0)
    assert used_masks(Z) <= set(plan.zsup.tolist())
    assert used_masks(TH) <= set(plan.tsup.tolist())


def test_spec_32_reachable_masks():
    system, init, _dim = CASES["32"]
    plan = plan_for(system, *(v[None, :] for v in _point_vectors(init)))
    assert plan.zsup.tolist() == [0, 3, 12, 15]
    assert plan.tsup.tolist() == [4, 7, 8]
    system, init, _dim = CASES["32alt"]
    plan = plan_for(system, *(v[None, :] for v in _point_vectors(init)))
    assert (plan.zsup.tolist(), plan.tsup.tolist()) == ([0, 3], [1, 2])
    system, init, _dim = CASES["virasoro"]
    plan = plan_for(system, *(v[None, :] for v in _point_vectors(init)))
    assert (plan.zsup.tolist(), plan.tsup.tolist()) == ([0], [])


@pytest.mark.parametrize("name, width, triples", [
    ("32", 44, 5), ("32alt", 31, 3), ("virasoro", 12, 3)])
def test_plan_shape(name, width, triples):
    # every product runs on its factors' live masks, a constant's too, and
    # every value is +0 plus its terms: one +0 column and no -0 column
    system, init, _dim = CASES[name]
    fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
    plan, W = _step_plan(fns, *(v[None, :] for v in _point_vectors(init)))
    assert W.shape[1] == width
    assert sum(product_triples(f, args)
               for f, args, _out in plan.ops) == triples


def product_triples(f, args):
    """The triples an op multiplies: a ``_tmul``'s table, or the column
    pairs of a product of one triple per group; 0 for any other op."""
    if isinstance(f, partial) and f.func is _tmul:
        return f.args[0][1].size
    return len(args[0]) if f is np.multiply and isinstance(
        args[0], np.ndarray) else 0


@pytest.mark.parametrize("name, count", [
    ("32", 14), ("32alt", 10), ("virasoro", 6)])
def test_plan_op_count(name, count):
    # no op writes an empty register: virasoro's z has no soul to negate and
    # its theta no mask to multiply b(z) by; a product of one triple per
    # group is a multiply, then a sign multiply when a sign is -1 (theta
    # times b(z) in 32 and 32alt)
    system, init, _dim = CASES[name]
    plan = plan_for(system, *(v[None, :] for v in _point_vectors(init)))
    assert len(plan.ops) == count
    assert all(out.stop > out.start for _f, _args, out in plan.ops)


def assert_bound_calls_match_op_by_op(plan, W, seed):
    """From the batch's own state, then random states, the same with -0.0
    real and imaginary parts, and with a row of zero body: the calls of
    ``_bind`` leave every column of W with the bits of the op-by-op run."""
    rng = np.random.default_rng(seed)
    ncols = plan.zsup.size + plan.tsup.size
    for fill in ("batch", "random", "signed zeros", "zero body"):
        if fill != "batch":
            S = rng.normal(size=(len(W), ncols, 2))
            if fill != "random":
                S[rng.random(S.shape) < 0.3] = -0.0
            S[:, 0, 0] = 2.0 + 0.1 * rng.normal(size=len(W))  # Re body
            if fill == "zero body":
                S[-1, 0] = (0.0, -0.0)
            W[:, :ncols] = S.view(complex)[..., 0]
        ref = W.copy(order="F")
        quiet = "ignore" if fill == "zero body" else "raise"
        with np.errstate(divide=quiet, over=quiet, invalid=quiet):
            op_by_op(plan, ref)
            _derivative(plan, W)
        assert np.array_equal(bits(W), bits(ref))


@pytest.mark.parametrize("width", [1, 2, 200])
@pytest.mark.parametrize("name", list(CASES))
def test_bound_calls_match_op_by_op(name, width):
    system, init, dim = CASES[name]
    z0, th0, _inc = batch(init, width, dim, 1, 1e-2, 19)
    fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
    assert_bound_calls_match_op_by_op(*_step_plan(fns, z0, th0), width)


@pytest.mark.parametrize("width", [1, 2, 200])
@pytest.mark.parametrize("n", range(9))
def test_bound_laurent_calls_match_op_by_op(n, width):
    fns, _points, Z, TH = superfunction_case(n)
    Z, TH = (np.resize(X, (width, X.shape[1])) for X in (Z, TH))
    assert_bound_calls_match_op_by_op(*_step_plan(fns, Z, TH), n)


@pytest.mark.parametrize("name, tmul, gathers", [
    ("32", 1, 1), ("32alt", 0, 1), ("virasoro", 0, 0), ("walk7", 1, 1)])
def test_bound_calls_gather_little(name, tmul, gathers):
    # a product of one triple per group is a multiply of views, and an op on
    # at most three runs of columns, a sum's +0 terms left out, one call per
    # run: only the two-triple groups of spec 32's soul square and walk7's
    # product still run _tmul, and only a function block of more runs
    # gathers its columns at every call
    system, init, _dim = CASES[name]
    fns = [*system.drift, *(f for pair in system.diffusion for f in pair)]
    calls = _bind(*_step_plan(fns, *(v[None, :]
                                     for v in _point_vectors(init))))
    assert sum(isinstance(c, partial) and c.func is _tmul
               for c in calls) == tmul
    assert sum(not isinstance(c, partial) for c in calls) == gathers


def test_em_core_binds_once(monkeypatch):
    binds = []
    bind = sde_module._bind
    monkeypatch.setattr(sde_module, "_bind",
                        lambda plan, W: binds.append(1) or bind(plan, W))
    system, init, dim = CASES["32"]
    euler_maruyama(system, init, BrownianPath.sample(dim, 1e-3, 1000, 1))
    assert len(binds) == 1


@pytest.mark.parametrize("increment", [-0.0, 0.0])
@pytest.mark.parametrize("slot", range(4))
def test_constant_function_signed_zero(slot, increment):
    # the dense step computes +0 + c for a constant function c: a -0 real
    # part of c = (-0+1j) p0 is not kept, whatever the signed zeros of the
    # state and of the increments on p0
    fns = [LaurentSuperfunction() for _ in range(4)]
    fns[slot] = LaurentSuperfunction({0: GrassmannNumber(
        2, FLOAT, {0b01: complex(-0.0, 1.0)})})
    system = SdeSystem(drift=tuple(fns[:2]), diffusion=(tuple(fns[2:]),))
    z0 = np.array([[2.0, -0.0, 0.0, 0.0]], dtype=complex)
    th0 = np.array([[0.0, -0.0, 1.0, 0.0]], dtype=complex)
    assert_same_as_dense(system, z0, th0, np.full((1, 5, 1), increment),
                         1e-2)


@pytest.mark.parametrize("width", [1, 50])
def test_swallowed_paths_match_dense(width):
    # 32alt moves the body of z by -(dB1 + i dB2): path 0 starts inside
    # the swallowing ball, the last path is driven into it at step 4
    system, init, dim = CASES["32alt-soul"]
    z0, th0, inc = batch(init, width, dim, 40, 1e-2, 5)
    z0[0, 0] = 1e-8
    if width > 1:
        inc[-1] = 0.0
        inc[-1, 3, 0] = 0.5 - 1e-7
    _Z, _TH, swallowed = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    assert swallowed[0] == 0
    if width > 1:
        assert swallowed[-1] == 4
        assert np.all(swallowed[1:-1] == 41)


def swallowing_batch(name, width, steps, dt, seed, every_row=False,
                     target=1e-7):
    """A batch whose row 0 starts inside the swallowing ball and whose
    other rows (every fifth, or every one) get built increments that drive
    the body to about ``target`` at steps 1, 2, ..., so they are swallowed
    one step later; the remaining rows are drawn at random."""
    system, init, dim = CASES[name]
    z0, th0, inc = batch(init, width, dim, steps, dt, seed)
    z0[0, 0] = 1e-8
    sk = np.sqrt(2.0) if name == "virasoro" else 1.0
    for row in range(1, width, 1 if every_row else 5):
        stop = 1 + (row - 1) % (steps - 2)  # swallowed at stop + 1
        inc[row, :stop + 1] = 0.0
        body = z0[row, 0]  # the body's drift: 2 / z for virasoro, else 0
        for _ in range(stop):
            body = body + (dt * 2.0 / body if name == "virasoro" else 0.0)
        # the body after the step, body + drift - sk dB1, is about target
        drift = dt * 2.0 / body if name == "virasoro" else 0.0
        inc[row, stop, 0] = ((body + drift - target) / sk).real
    return system, z0, th0, inc


@pytest.mark.parametrize("width", [2, 50, 200])
@pytest.mark.parametrize("name", ["32alt-soul", "virasoro"])
def test_swallowing_batches_match_dense(name, width):
    # rows inside the ball from the start, rows driven in mid-run and rows
    # that never swallow: the frozen rows and the rest keep the dense bits
    system, z0, th0, inc = swallowing_batch(name, width, 30, 1e-2, 11)
    _Z, _TH, swallowed = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    assert swallowed[0] == 0
    driven = np.arange(1, width, 5)
    assert np.array_equal(swallowed[driven], 2 + (driven - 1) % 28)
    assert (np.delete(swallowed, [0, *driven]) > 30).all()


@pytest.mark.parametrize("width", [2, 200])
@pytest.mark.parametrize("name", ["32alt-soul", "virasoro"])
def test_zero_body_rows_leave_the_batch_running(name, width):
    # the driven rows land on a body of exactly 0.0: each is swallowed at
    # the next step and frozen with that body, its discarded steps (which
    # divide by it) warn nothing, and every other row keeps the dense bits
    system, z0, th0, inc = swallowing_batch(name, width, 30, 1e-2, 11,
                                            target=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, _TH, swallowed = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    driven = np.arange(1, width, 5)
    assert np.array_equal(swallowed[driven], 2 + (driven - 1) % 28)
    assert (Z[driven, -1, 0] == 0.0).all()
    assert (np.delete(swallowed, [0, *driven]) > 30).all()


@pytest.mark.parametrize("width", [2, 50])
@pytest.mark.parametrize("name", ["32alt-soul", "virasoro"])
def test_every_row_swallows(name, width):
    # once the last row is swallowed the step loop stops: every later row
    # of the history repeats the frozen states
    system, z0, th0, inc = swallowing_batch(name, width, 60, 1e-2, 12,
                                            every_row=True)
    Z, _TH, swallowed = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    assert (swallowed <= 60).all() and swallowed.max() < 60
    last = swallowed.max()
    assert np.array_equal(bits(Z[:, last:]), bits(
        np.broadcast_to(Z[:, last:last + 1], Z[:, last:].shape)))


def found_system():
    """z' = (0.3+0.7i) p0 p1 / z dt + (1+0.5i) dB on 2 generators: its
    constant product sits only on the full mask."""
    c = GrassmannNumber(2, FLOAT, {3: complex(0.3, 0.7)})
    one = GrassmannNumber.scalar(complex(1.0, 0.5), 2, FLOAT)
    return SdeSystem(drift=(LaurentSuperfunction({-1: c}),
                            LaurentSuperfunction()),
                     diffusion=((LaurentSuperfunction({0: one}),
                                 LaurentSuperfunction()),))


def assert_path_is_batch_row(system, init, inc, row, dt):
    path = BrownianPath(dt=dt, increments=inc[row].T.copy())
    alone = euler_maruyama(system, init, path)
    z0, th0 = _point_vectors(init)
    Z, TH, _ = _em_core(system, np.tile(z0, (len(inc), 1)),
                        np.tile(th0, (len(inc), 1)), inc, dt)
    k = len(alone.times)
    assert np.array_equal(bits(alone.Z), bits(Z[row, :k]))
    assert np.array_equal(bits(alone.TH), bits(TH[row, :k]))


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(["32", "32alt", "virasoro", "walk7", "walk8"]),
       width=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_path_is_its_row_in_a_batch(name, width, seed):
    # euler_maruyama steps a batch of one; its path must come out with the
    # bits it has as one row of any wider batch
    system, init, dim = CASES[name]
    rng = np.random.default_rng(seed)
    inc = rng.normal(0.0, 0.1, size=(width, 20, dim))
    assert_path_is_batch_row(system, init, inc, int(rng.integers(width)),
                             1e-2)


def test_full_mask_coefficient_path_is_its_row_in_a_batch():
    init = point(2, 2.0, 1)
    inc = np.zeros((2, 50, 1))
    inc[0] = BrownianPath.sample(1, 1e-2, 50, 5).increments.T
    assert_path_is_batch_row(found_system(), init, inc, 0, 1e-2)


@st.composite
def laurent_systems(draw):
    """A random SDE system with Laurent coefficients, exponents -2..2."""
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grassmann():
        masks = rng.choice(1 << n, size=rng.integers(1, 3), replace=False)
        return GrassmannNumber(n, FLOAT, {
            int(m): complex(*(0.5 * rng.normal(size=2))) for m in masks})

    def part():
        exps = rng.choice(np.arange(-2, 3), size=rng.integers(0, 3),
                          replace=False)
        return {int(k): grassmann() for k in exps}

    def function():
        return LaurentSuperfunction(part(), part())

    system = SdeSystem(drift=(function(), function()),
                       diffusion=tuple((function(), function())
                                       for _ in range(dim)))
    evens = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
    soul = {int(rng.choice(evens)): 0.3} if evens else None
    init = point(n, complex(2.0, rng.normal()), int(rng.integers(n)), soul)
    width = draw(st.sampled_from([1, 50]))
    return system, init, dim, width, int(rng.integers(2**31))


@settings(deadline=None, max_examples=40)
@given(laurent_systems(), st.integers(2, 64))
def test_random_laurent_path_is_its_row_in_a_batch(case, width):
    # every product, a constant's too, has one operand shape at every batch
    # width, so a lone path keeps its bits as a row of a wider batch
    system, init, dim, _width, seed = case
    _z0, _th0, inc = batch(init, width, dim, 20, 1e-2, seed)
    with np.errstate(all="ignore"):
        assert_path_is_batch_row(system, init, inc, seed % width, 1e-2)


@settings(deadline=None, max_examples=40)
@given(laurent_systems())
def test_random_laurent_systems_match_dense(case):
    system, init, dim, width, seed = case
    z0, th0, inc = batch(init, width, dim, 20, 1e-2, seed)
    with np.errstate(all="ignore"):
        # an overflowing run differs off the reachable masks, where the
        # dense step turns 0 * inf into NaN
        dZ, dTH, _ = dense_em_core(system, z0, th0, inc, 1e-2)
        assume(np.isfinite(dZ).all() and np.isfinite(dTH).all())
        Z, TH, _ = assert_same_as_dense(system, z0, th0, inc, 1e-2)
    plan = plan_for(system, z0, th0)
    assert used_masks(Z) <= set(plan.zsup.tolist())
    assert used_masks(TH) <= set(plan.tsup.tolist())


@pytest.mark.parametrize("study, kappa, init, paths", [
    (convergence_32, 2.0, point(4, 2.0, 3), 100),
    (convergence_32alt, 1.0, point(2, 2.0, 1), 200),
], ids=["convergence_32", "convergence_32alt"])
def test_convergence_memory(study, kappa, init, paths):
    # the Euler runs keep terminal states only: no (paths, steps+1, 2^n)
    # history at dt = 1e-4
    tracemalloc.start()
    try:
        rep = study(kappa, init, 0.1, [1e-2, 1e-3, 1e-4], paths, 3)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.isfinite(rep["mean_error"]).all()
