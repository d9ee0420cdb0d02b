"""Numerical integration of graded stochastic evolutions.

Float-coefficient Grassmann states are the dense mask vectors of
``supersle.kernel``, so closed-form evaluation and Monte-Carlo averaging
are plain numpy array operations.  Euler--Maruyama compiles the SDE once per
integration to numpy calls bound to views of compact columns: z and theta
on the masks the batch can reach, plus the products of a step.  The
Monte-Carlo check steps only the (word, mask) states reachable from the
identity, with words normal-ordered by ``ns_algebra.VermaModule``.  The
module also provides the classical Loewner flow and rasterized hulls of the
scaled complex Brownian trace.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

import numpy as np
import sympy as sp

from supersle.grassmann import (
    EXACT,
    FLOAT,
    GrassmannNumber,
    NotInvertible,
    _merge_sign,
    make_generator,
)
from supersle.kernel import _gnum, _gvec, _mul, _restrict, _tmul
from supersle.ns_algebra import (
    CutoffOverflow,
    AlgebraElement,
    ModuleParams,
    VermaModule,
    pbw_words,
    quotient_projection,
    word_level,
    word_parity,
)
from supersle.superfield import LaurentSuperfunction, SuperPoint
from supersle.walk import (
    SdeSystem,
    WalkSpec,
    _sqrt_kappa,
    beta_element,
    drift_generator,
    sde_system,
    spec_32,
    spec_32alt,
)


class SwallowedPoint(RuntimeError):
    """The body of z entered the epsilon-ball around the origin."""

    def __init__(self, time):
        super().__init__(f"body of z swallowed at t={time}")
        self.time = time


class DenominatorVanishes(RuntimeError):
    """The complex part of the integrand denominator came too close to 0."""


# radius of the ball around the origin in which the body of z counts as
# swallowed, and the smallest body the two-Brownian closed form inverts
_SWALLOW_EPS = 1e-6
_MC_BLOCK = 50  # steps of normals a Monte-Carlo path draws per call
# OpenBLAS runs a complex product of <= _BLAS_SERIAL multiply-adds serially
_BLAS_SERIAL, _MC_TILE_MIN = 2**16, 256


# -- Brownian driving paths -----------------------------------------------------


@dataclass(frozen=True)
class BrownianPath:
    """Sampled increments of a multi-dimensional Brownian motion."""

    dt: float
    increments: np.ndarray  # shape (dim, steps)

    @property
    def dim(self) -> int:
        return self.increments.shape[0]

    @property
    def steps(self) -> int:
        return self.increments.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @property
    def values(self) -> np.ndarray:
        """Cumulative path including B_0 = 0; shape (dim, steps+1)."""
        out = np.zeros((self.dim, self.steps + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    @classmethod
    def sample(cls, dim: int, dt: float, steps: int, seed) -> "BrownianPath":
        # draw step-major so a longer horizon extends a shorter one in place
        inc = np.random.default_rng(seed).standard_normal((steps, dim))
        inc *= math.sqrt(dt)
        return cls(dt=dt, increments=inc.T.copy())

    def coarsen(self, k: int) -> "BrownianPath":
        """Same underlying path on a grid coarser by the integer factor k."""
        if k < 1 or self.steps % k:
            raise ValueError("coarsening factor must divide the step count")
        inc = self.increments.reshape(self.dim, self.steps // k, k).sum(axis=2)
        return BrownianPath(dt=self.dt * k, increments=inc)


@cache
def _path_seed_type() -> type:
    """The type of a precomputed PCG64 seed state, which ``default_rng``
    takes as is.  It is made on first use because subclassing numpy's
    ``ISeedSequence`` imports ``numpy.random`` (about 6 MiB), which
    ``verify`` and the other runs that draw nothing never load.
    """
    class PathSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a path seed holds PCG64's four uint64 words")
            return self.state

    return PathSeed


def _path_seeds(seed, n: int):
    """Seeds of paths 0..n-1, in turn, drawing as ``default_rng([seed, p])``.

    Runs numpy's ``SeedSequence([seed, p]).generate_state(4, np.uint64)``
    for every p at once on uint32 columns: the entropy (seed's little-endian
    32-bit words, then p's one word) is hashed into a pool of four words and
    mixed, and the pool is expanded to eight output words.  The seeds are
    made one at a time, so only the (n, 4) states stay in memory.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    u32, const = np.uint32, 0x43B0D7E5
    entropy = [np.full(n, seed >> s & 0xFFFFFFFF, dtype=u32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(n, dtype=u32))

    def hashmix(v):
        nonlocal const
        v = v ^ u32(const)
        const = const * 0x931E8875 & 0xFFFFFFFF
        v = v * u32(const)
        return v ^ v >> u32(16)

    def mix(x, y):
        r = u32(0xCA01F9DD) * x - u32(0x4973F715) * y
        return r ^ r >> u32(16)

    # entropy shorter than the pool is padded with zero words, and words
    # beyond the pool are mixed into every pool word at the end
    pool = [hashmix(e) for e in (entropy + [np.zeros(n, u32)] * 2)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    state, const = np.empty((n, 8), dtype=u32), 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ u32(const)
        const = const * 0x58F38DED & 0xFFFFFFFF
        v = v * u32(const)
        state[:, i] = v ^ v >> u32(16)
    rows = state.astype("<u4", copy=False).view("<u8")
    return map(_path_seed_type(), rows.astype(np.uint64, copy=False))


@dataclass(frozen=True)
class SuperPath:
    """Time series of an even/odd coordinate pair along a driving path.

    ``Z`` and ``TH`` hold the coordinates as complex arrays of shape
    (len(times), 2^n) over the monomial masks.  ``z`` and ``theta`` give the
    same states as tuples of float ``GrassmannNumber``s, built on first use.
    """

    times: np.ndarray
    Z: np.ndarray
    TH: np.ndarray
    swallowed_time: float | None = None

    @property
    def n(self) -> int:
        return self.Z.shape[-1].bit_length() - 1

    @cached_property
    def z(self) -> tuple:
        return tuple(_gnum(row, self.n) for row in self.Z)

    @cached_property
    def theta(self) -> tuple:
        return tuple(_gnum(row, self.n) for row in self.TH)


# -- Euler--Maruyama integration --------------------------------------------------


def _check_brownian_dim(system_dim: int, path_dim: int):
    if path_dim != system_dim:
        raise ValueError(f"the SDE has {system_dim} Brownian components but "
                         f"the driving path has {path_dim}")


def _union(*supports) -> np.ndarray:
    return np.array(sorted({int(m) for s in supports for m in s}), dtype=int)


# zsup, tsup: the masks of z and theta in the work array's first columns;
# lo: z's lowest power; ops: (f, args, out), each run as f(*W[:, args],
# out=W[:, out]); out: the columns of the functions, two to a row
_StepPlan = namedtuple("_StepPlan", "zsup tsup lo ops out")


def _step_plan(fns, z0: np.ndarray, th0: np.ndarray):
    """Laurent superfunctions ``fns`` compiled to one Euler step, and the
    (paths, width) work array of the step at the batch (z0, th0).

    z, with its body, and theta keep the masks where some path is non-zero,
    grown to the fixed point of one step.  A register is (mask -> column
    map, columns, masks).  Every product runs on work-array columns, of one
    shape at every batch width, on its factors' live masks: a multiply and
    its signs where each group is one triple, else one ``_tmul``; a
    constant's signs are in its columns.  A shared product runs once; every
    value is +0 plus its terms in the dense order.
    """
    n = z0.shape[-1].bit_length() - 1
    coeffs = [c for F in fns for part in (F.a, F.b) for c in part.values()]
    if any(mask >> n for c in coeffs for mask in c.terms):
        raise ValueError(f"the SDE coefficients have {max(c.n for c in coeffs)} "
                         f"Grassmann generators but the initial point has only {n}")
    table = [[[(k, _gvec(c, n)) for k, c in part.items()]
              for part in (F.a, F.b)] for F in fns]
    exps = [k for F in fns for k in (*F.a, *F.b)]
    lo, hi = min(exps, default=0), max(exps, default=0)

    def alloc(masks, count=None):  # a register; other masks read +0
        count = len(masks) if count is None else count
        used[0] += count
        lut = np.full(1 << n, ncols)
        lut[list(masks)] = np.arange(used[0] - len(masks), used[0])
        return lut, slice(used[0] - count, used[0]), masks

    def column(term):  # a coefficient gets a constant column
        if isinstance(term, complex):
            consts.append((alloc((), 1)[1].start, term))
            return consts[-1][0]
        return term

    def op(f, args, masks=(), count=None):  # the register f computes
        reg = alloc(masks, count)
        if reg[1].stop > reg[1].start:  # an empty one is never computed
            ops.append((f, args, reg[1]))
        return reg

    def product(table, left, right):  # each factor a map, or a constant
        dst, lm, rm, signs, starts = table
        factors = [left[lm], right[rm]]
        for i, f in enumerate(factors):
            if f.dtype.kind == "c":  # a constant: its columns take the signs
                factors[i] = np.array([column(v) for v in f * signs], dtype=int)
                signs = np.abs(signs)
        signs = None if (signs > 0).all() else signs
        if starts.size < lm.size:
            return op(partial(_tmul, (dst, *factors, signs, starts)),
                      (slice(None),) * 2, dst)
        reg = op(np.multiply, factors, dst)  # one triple per group
        if signs is not None:
            ops.append((partial(np.multiply, signs), (reg[1],), reg[1]))
        return reg

    def terms(part, sums):  # sums[mask] += [coefficient or column]
        for k, c in part:
            key = (k, c.tobytes())
            if k and key not in products:
                products[key] = product(_restrict(n, np.flatnonzero(c),
                                                  regs[k][2]), c, regs[k][0])
            lut, _, masks = products[key] if k else (c, (), np.flatnonzero(c))
            for m in masks.tolist():
                sums.setdefault(m, []).append(lut[m])
        return sums

    def summation(lists, masks):  # +0 + the sum of each list
        cols = [np.array([column(t[j]) if t[j:] else ncols for t in lists],
                         dtype=int) for j in range(max([1, *map(len, lists)]))]
        reg = op(partial(np.add, 0.0), cols[:1], masks, len(lists))
        ops.extend((np.add, (reg[1], c), reg[1]) for c in cols[1:])
        return reg

    zsup = _union([0], np.flatnonzero(z0.any(axis=0)))  # with the body
    tsup = np.flatnonzero(th0.any(axis=0))
    while True:
        nz, ncols = zsup.size, zsup.size + tsup.size
        used, consts, ops, products = [0], [], [], {}
        regs = {1: alloc(zsup), "t": alloc(tsup)}
        column(0j)  # the +0 column, number ncols
        if lo < 0:  # z^-1 = 1/body + sum_m (-soul)^m / body^(m+1)
            body = bpow = slice(0, 1)
            sums = {0: [op(partial(np.divide, 1.0), (body,), (), 1)[1].start]}
            ms = power = op(np.negative, (slice(1, nz),), zsup[1:])
            while power[2].size:
                bpow = op(np.multiply, (bpow, body), (), 1)[1]
                q = op(np.divide, (power[1], bpow), power[2])
                for m in power[2].tolist():
                    sums.setdefault(m, []).append(q[0][m])
                power = product(_restrict(n, power[2], zsup[1:]), power[0],
                                ms[0])
            regs[-1] = summation(list(sums.values()), list(sums))
        for k in (*range(2, hi + 1), *range(-2, lo - 1, -1)):
            s = 1 if k > 0 else -1
            regs[k] = product(_restrict(n, regs[k - s][2], regs[s][2]),
                              regs[k - s][0], regs[s][0])
        reach, value = [zsup, tsup], {}
        for f, (a, b) in enumerate(table):
            sums, vb = terms(a, {}), terms(b, {})
            if vb:  # theta b(z)
                if b[1:]:
                    right = summation(list(vb.values()), list(vb))[0]
                else:  # one term: its product, or the constant itself
                    k, c = b[0]
                    right = products[k, c.tobytes()][0] if k else c
                thb = _restrict(n, tsup, list(vb))
                tlut = product(thb, regs["t"][0], right)[0]
                for m in thb[0].tolist():
                    sums.setdefault(m, []).append(tlut[m])
            reach[f % 2] = _union(reach[f % 2], sums)
            pos = regs["t" if f % 2 else 1][0] + f // 2 * ncols
            value.update((pos[m], v) for m, v in sums.items())
        if reach[0].size == zsup.size and reach[1].size == tsup.size:
            break
        zsup, tsup = reach
    rows = range((len(table) + 1) // 2 * ncols)
    out = summation([value.get(p, []) for p in rows], ())[1]
    # column-major: a register is one block, a column contiguous over paths,
    # and no product's factors overlap its ``out`` (numpy would then take
    # its plain, non-FMA loop)
    W = np.zeros((len(z0), used[0]), dtype=complex, order="F")
    W[:, [c for c, _ in consts]] = [v for _, v in consts]
    W[:, :ncols] = np.hstack([z0[:, zsup], th0[:, tsup]])
    return _StepPlan(zsup, tsup, lo, ops, out), W


def _bind(plan: _StepPlan, W: np.ndarray) -> list:
    """``plan.ops`` as calls on views of W made once: an op on at most three
    column runs (a gather beats more, ``BENCH_31.json``) a call per run, a
    sum's +0 terms out."""
    calls, zero = [], plan.zsup.size + plan.tsup.size  # the +0 column
    for f, args, out in plan.ops:
        o = W[:, out]
        if all(isinstance(a, slice) for a in args):
            calls.append(partial(f, *[W[:, a] for a in args], out=o))
        else:  # rows: each position in out, then each argument's column
            runs = np.array([range(o.shape[1]), *(np.r_[a] for a in args)])
            if getattr(f, "func", f) is np.add:
                runs = runs[:, runs[-1] != zero]  # W starts at +0
            runs = [r for r in np.split(runs, 1 + np.flatnonzero(
                (np.diff(runs) != 1).any(axis=0)), axis=1) if r.size]
            if len(runs) > 3:
                calls.append(lambda f=f, a=args, o=o: f(
                    *[W[:, c] for c in a], out=o))
            else:
                for (p, *c), n in ((r[:, 0], r.shape[1]) for r in runs):
                    calls.append(partial(f, *[W[:, i:i + n] for i in c],
                                         out=o[:, p:p + n]))
    return calls


def _em_core(system: SdeSystem, z0: np.ndarray, th0: np.ndarray,
             increments: np.ndarray, dt: float, history: bool = True):
    """Batched explicit Euler; increments shape (paths, steps, dim).

    Returns (Z, TH) of shape (paths, steps+1, 2^n), or (paths, 1, 2^n) for
    the terminal states only without ``history``, and the first swallowing
    step index per path (steps+1 when never swallowed).  Swallowed paths
    are frozen at their last valid state.  ``_bind``'s calls step the batch
    on compact columns; a recorded state goes into Z and TH on its masks.
    """
    paths, steps, dim = increments.shape
    _check_brownian_dim(len(system.diffusion), dim)
    plan, W = _step_plan([*system.drift, *(
        f for pair in system.diffusion for f in pair)], z0, th0)
    nz = plan.zsup.size
    S = W[:, :nz + plan.tsup.size]
    calls, term = _bind(plan, W), np.empty_like(S)
    D = np.hsplit(W[:, plan.out], dim + 1)  # views: the drift, each dB's row
    Z = np.zeros((paths, steps + 1 if history else 1, z0.shape[-1]), complex)
    TH = np.zeros_like(Z)

    def record(rows):  # the state into those rows of Z and TH
        Z[:, rows, plan.zsup] = S[:, None, :nz]
        TH[:, rows, plan.tsup] = S[:, None, nz:]

    swallowed = np.full(paths, steps + 1, dtype=int)
    active = None  # None while no path is swallowed
    quiet = nullcontext  # np.errstate once a frozen row's body is 0
    for k in range(steps):
        if plan.lo < 0:
            size = np.abs(W[:, 0])
            hit = size < _SWALLOW_EPS
            if hit.any():
                swallowed[hit & (swallowed > steps)] = k
                active = swallowed > steps
                if not active.any():
                    record(slice(k + 1, None))
                    break
                if not size.all():  # its inf and nan steps are discarded
                    quiet = partial(np.errstate, divide="ignore",
                                    invalid="ignore")
        with quiet():
            for call in calls:
                call()
            new = S if active is None else S.copy()
            for h, row in zip((dt, *increments[:, k].T[..., None]), D):
                new += np.multiply(h, row, out=term)
        if active is not None:
            np.copyto(S, new, where=active[:, None])
        if history:
            record(slice(k + 1, k + 2))
    record(slice(-1, None))
    frozen = swallowed == 0  # z0 as given, with its signed zeros
    Z[frozen], TH[frozen] = z0[frozen, None], th0[frozen, None]
    if history or not steps:
        Z[:, 0], TH[:, 0] = z0, th0
    return Z, TH, swallowed


def _point_vectors(init: SuperPoint, n: int = 0):
    """z and theta of ``init`` over the masks of at least n generators."""
    n = max(n, init.z.n, init.theta.n)
    return _gvec(init.z, n), _gvec(init.theta, n)


def euler_maruyama(system: SdeSystem, init: SuperPoint,
                   path: BrownianPath) -> SuperPath:
    """Explicit Euler integration of dX = X_0' dt + sum_i X_i' dB_i.

    A path whose body of z is swallowed ends at the swallowing step, with
    ``swallowed_time`` set.
    """
    z0, th0 = _point_vectors(init)
    inc = path.increments.T[None, :, :]  # (1, steps, dim)
    Z, TH, swallowed = _em_core(system, z0[None, :], th0[None, :],
                                inc, path.dt)
    if swallowed[0] <= path.steps:
        k = int(swallowed[0])
        return SuperPath(times=path.times[:k + 1], Z=Z[0, :k + 1],
                         TH=TH[0, :k + 1], swallowed_time=float(k * path.dt))
    return SuperPath(times=path.times, Z=Z[0], TH=TH[0])


# -- closed-form solutions --------------------------------------------------------


def _spec32_units(kappa: float, n: int):
    """sqrt(kappa) and y, eta, y eta of the float spec 32 on n generators."""
    sk = math.sqrt(kappa)
    y, eta = spec_32(kappa, FLOAT).beta[0][-1]
    y, eta = _gvec(y, n) / sk, _gvec(eta, n) / sk
    return sk, y, eta, _mul(y, eta)


def _cf32_core(z0: np.ndarray, th0: np.ndarray, kappa: float, t, B):
    """Closed form of the one-Brownian evolution at times t and driving
    values B, each a scalar or a column: B of the times along one path, or
    of the terminal values across paths.  Returns (Z, TH)."""
    if abs(z0[0]) == 0.0:
        raise NotInvertible("initial z must have non-zero body")
    sk, y, eta, yeta = _spec32_units(kappa, z0.shape[-1].bit_length() - 1)
    powers, P = _inverse_body_powers(z0, z0[0])
    yeta_zinv = _mul(yeta, sum(power * Pk for power, Pk in zip(powers, P)))
    Z = z0 + t * _mul(th0, yeta_zinv) - B * (sk * (y + _mul(th0, eta)))
    TH = th0 + t * yeta_zinv - B * (sk * eta)
    return Z, TH


def closed_form_32(init: SuperPoint, path: BrownianPath, kappa) -> SuperPath:
    """Exact solution of the one-Brownian graded evolution along the path."""
    _check_brownian_dim(1, path.dim)
    z0, th0 = _point_vectors(init, 4)
    Z, TH = _cf32_core(z0, th0, float(kappa), path.times[:, None],
                       path.values[0][:, None])
    return SuperPath(times=path.times, Z=Z, TH=TH)


def _inverse_body_powers(z0: np.ndarray, body):
    """Series terms of the inverse of body + s, s the soul of z0.

    The inverse is sum_k (-s)^k P_k with P_k = body^-(k+1), for one body or
    an array of them, one per driving value.  Returns the non-zero (-s)^k
    and the matching P_k, shape (terms,) + body.shape.
    """
    minus_soul = -z0
    minus_soul[0] = 0.0
    powers, power = [], np.zeros_like(z0)
    power[0] = 1.0
    while power.any():  # the soul is nilpotent
        powers.append(power)
        power = _mul(power, minus_soul) if len(powers) > 1 else minus_soul
    return powers, np.array([body ** -k for k in range(1, len(powers) + 1)])


def _cf32alt_series(z0: np.ndarray, kappa: float, B1, B2):
    """The series of 1/(z0 - sqrt(kappa) B+) at the driving values."""
    body = z0[0] - math.sqrt(kappa) * (B1 + 1j * B2)
    if np.min(np.abs(body)) < _SWALLOW_EPS:
        raise DenominatorVanishes(
            "complex part of z - sqrt(kappa) B+ fell below epsilon")
    return _inverse_body_powers(z0, body)


def _cf32alt_state(z0: np.ndarray, th0: np.ndarray, kappa: float,
                   B1, B2, powers, J):
    """(Z, TH) of the two-Brownian closed form (y = 1) at the driving values.

    ``J[k]`` is the time integral of P_k up to the time of each driving
    value, so sum_k (-s)^k J_k integrates 1/(z - sqrt(kappa) B+).
    """
    sk = math.sqrt(kappa)
    shift = np.zeros(np.shape(B1) + z0.shape, dtype=complex)
    for power, Jk in zip(powers, J):
        shift = shift + power * Jk[..., None]
    shift[..., 0] -= sk * B1
    eta = np.zeros_like(z0)
    eta[1] = 1.0
    Z = np.broadcast_to(z0, shift.shape).copy()
    Z[..., 0] -= sk * (B1 + 1j * B2)
    Z = Z + _mul(_mul(th0, eta), shift)
    TH = th0 + _mul(eta, shift)
    return Z, TH


def closed_form_32alt(init: SuperPoint, path: BrownianPath,
                      kappa) -> SuperPath:
    """Exact solution of the two-Brownian graded evolution along the path."""
    _check_brownian_dim(2, path.dim)
    z0, th0 = _point_vectors(init, 2)
    B1, B2 = path.values
    powers, P = _cf32alt_series(z0, float(kappa), B1, B2)
    # left-endpoint Riemann sums on the path's own grid
    J = np.zeros_like(P)
    np.cumsum(path.dt * P[:, :-1], axis=1, out=J[:, 1:])
    Z, TH = _cf32alt_state(z0, th0, float(kappa), B1, B2, powers, J)
    return SuperPath(times=path.times, Z=Z, TH=TH)


# -- closed forms as superconformal maps ------------------------------------------


def closed_form_32_map(kappa, t=None, B=None):
    """The map (z, theta) -> (z'_t, theta'_t) as exact Laurent superfunctions.

    By default t and B are free symbols, so superconformality can be checked
    identically in t and the driving value.
    """
    if t is None:
        t = sp.Symbol("t")
    if B is None:
        B = sp.Symbol("B")
    spec = spec_32(kappa)
    sk = _sqrt_kappa(kappa, EXACT)
    y = spec.beta[0][-1][0] / sk
    eta = spec.beta[0][-1][1] / sk
    yeta = y * eta
    zp = LaurentSuperfunction({1: GrassmannNumber.scalar(1, 4),
                               0: -(y * (sk * B))},
                              {-1: yeta * t, 0: -(eta * (sk * B))})
    thetap = LaurentSuperfunction({-1: yeta * t, 0: -(eta * (sk * B))},
                                  {0: GrassmannNumber.scalar(1, 4)})
    return zp, thetap


def closed_form_32alt_map(kappa):
    """The two-Brownian closed-form map with I, B1, B2 as free symbols.

    I stands for the path integral of 1/(z - sqrt(kappa) B+); at frozen time
    it is just an even constant, so the superconformality check is algebraic.
    """
    I, B1, B2 = sp.symbols("I_v B_1 B_2")
    eta = make_generator(0, 2)
    sk = _sqrt_kappa(kappa, EXACT)
    shift = eta * (I - sk * B1)
    zp = LaurentSuperfunction(
        {1: GrassmannNumber.scalar(1, 2),
         0: GrassmannNumber.scalar(-sk * (B1 + sp.I * B2), 2)},
        {0: shift})
    thetap = LaurentSuperfunction({0: shift}, {0: GrassmannNumber.scalar(1, 2)})
    return zp, thetap


def conservation_check_32(init: SuperPoint, path: BrownianPath, kappa) -> dict:
    """Verify mu_t w_t = theta z + y eta t along the closed-form solution.

    Returns the worst grade-wise deviation of the conserved product and the
    worst drift of the body of w_t from the body of z.
    """
    sol = closed_form_32(init, path, kappa)
    sk, y, eta, yeta = _spec32_units(float(kappa), sol.n)
    z0, th0 = _point_vectors(init, 4)
    B = path.values[0]
    w = sol.Z + (y + _mul(sol.TH, eta)) * (sk * B[:, None])
    mu = sol.TH + sk * B[:, None] * eta
    conserved = _mul(th0, z0) + sol.times[:, None] * yeta
    residual = _mul(mu, w) - conserved
    return {
        "max_conservation_error": float(np.max(np.abs(residual))),
        "max_body_drift": float(np.max(np.abs(w[:, 0] - z0[0]))),
    }


# -- pathwise convergence study ----------------------------------------------------


_ERROR_FLOOR = 1e-12
# the reference grid is this many times finer than the smallest Euler dt
_REFINE = 10


def pathwise_convergence(system: SdeSystem, path_data, closed_form,
                         init: SuperPoint, T: float, dt_list, n_paths: int,
                         seed) -> dict:
    """Strong-error table of explicit Euler against a closed-form solution.

    Brownian paths are sampled once on a grid ten times finer than the
    smallest dt, and each Euler run uses the aggregated increments of the
    same underlying path, so the table isolates discretization error.  The
    reference has two parts: ``path_data(z0_vec, th0_vec, path)`` returns
    the tuple of arrays the closed form reads from one fine path, and
    ``closed_form(z0_vec, th0_vec, t, *data)``, given each stacked over the
    paths on a last axis and t the fine grid's horizon, returns the terminal
    (Z, TH) of all paths, shape (n_paths, 2^n).

    When every error sits at the rounding floor the scheme is exact for the
    system (graded coefficients constant along paths); the empirical order
    is then reported as infinity.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    dt_list = sorted(float(d) for d in dt_list)
    if len(set(dt_list)) < 2:
        raise ValueError("the dt ladder needs at least two distinct values")
    dt_ref = dt_list[0] / _REFINE
    steps_ref = round(T / dt_ref)
    for d in dt_list:
        k = d / dt_ref
        if abs(k - round(k)) > 1e-9 or steps_ref % round(k):
            raise ValueError("every dt must be an integer multiple of the "
                             "reference dt and divide the horizon")
    dim = len(system.diffusion)
    z0, th0 = _point_vectors(init)
    dts = sorted(dt_list, reverse=True)
    ks = [round(d / dt_ref) for d in dts]
    incs = [np.empty((n_paths, steps_ref // k, dim)) for k in ks]
    data = []
    for p, path_seed in enumerate(_path_seeds(seed, n_paths)):
        bp = BrownianPath.sample(dim, dt_ref, steps_ref, path_seed)
        data.append(path_data(z0, th0, bp))
        for k, inc in zip(ks, incs):
            inc[p] = bp.coarsen(k).increments.T
    ref_z, ref_th = closed_form(z0, th0, dt_ref * steps_ref, *(
        np.stack(d, axis=-1) for d in zip(*data)))
    errors = []
    for d, inc in zip(dts, incs):
        steps = inc.shape[1]
        Z, TH, swallowed = _em_core(system, np.tile(z0, (n_paths, 1)),
                                    np.tile(th0, (n_paths, 1)), inc, d,
                                    history=False)
        if np.any(swallowed <= steps):
            raise SwallowedPoint(float(np.min(swallowed)) * d)
        err = np.maximum(np.max(np.abs(Z[:, -1] - ref_z), axis=-1),
                         np.max(np.abs(TH[:, -1] - ref_th), axis=-1))
        errors.append(float(np.mean(err)))
    exact = all(e < _ERROR_FLOOR for e in errors)
    if exact:
        order = math.inf
    else:
        order = float(np.polyfit(np.log(np.array(dts)),
                                 np.log(np.array(errors)), 1)[0])
    return {"dt": dts, "mean_error": errors, "order": order,
            "exact_scheme": exact, "n_paths": n_paths, "seed": seed, "T": T}


def convergence_32(kappa, init: SuperPoint, T: float, dt_list, n_paths: int,
                   seed) -> dict:
    return pathwise_convergence(
        sde_system(spec_32(kappa, FLOAT)),
        lambda z0, th0, bp: (bp.values[0, -1],),  # B at T
        lambda z0, th0, t, B: _cf32_core(z0, th0, float(kappa), t, B[:, None]),
        init, T, dt_list, n_paths, seed)


def convergence_32alt(kappa, init: SuperPoint, T: float, dt_list,
                      n_paths: int, seed) -> dict:
    def path_data(z0, th0, bp):  # B+ at T and the integrals of the P_k
        B1, B2 = bp.values
        _powers, P = _cf32alt_series(z0, float(kappa), B1, B2)
        return B1[-1], B2[-1], bp.dt * np.sum(P[:, :-1], axis=1)

    return pathwise_convergence(
        sde_system(spec_32alt(kappa, FLOAT)), path_data,
        lambda z0, th0, t, B1, B2, J: _cf32alt_state(  # (-s)^k: z0's alone
            z0, th0, float(kappa), B1, B2,
            _inverse_body_powers(z0, z0[0])[0], J),
        init, T, dt_list, n_paths, seed)


# -- Monte-Carlo martingale check ---------------------------------------------------


def _element_data(elem: AlgebraElement):
    """[(word, {mask: complex coeff})] for a float-coefficient element."""
    return [(tuple(word), {m: complex(c) for m, c in g.terms.items()})
            for word, g in elem.terms.items() if g.terms]


def _reachable_masks(elements):
    """Closure of coefficient masks under right multiplication."""
    mus = sorted({mu for e in elements for _u, mtable in e for mu in mtable})
    n, masks = max(mus, default=0).bit_length(), np.zeros(1, dtype=int)
    while ((grown := _union(masks, _restrict(n, masks, mus)[0])).size
           > masks.size):
        masks = grown
    return masks.tolist()


def _reachable_transitions(elements, words, masks, module: VermaModule):
    """The (word, mask) index states reachable from state 0 (identity word,
    trivial mask) and each element's matrix of O -> O*E on them.

    A term u c psi_mu of E sends w psi_m to Pi^|mu|(w) act_word(w + u) times
    the Koszul-signed c psi_(m|mu): Pi flips odd words, which psi_mu moves
    past, words above the cutoff are trimmed and the module's (c, Delta) do
    not enter.  A state is reached through a non-zero accumulated entry.
    """
    widx = {w: i for i, w in enumerate(words)}
    midx = {m: j for j, m in enumerate(masks)}
    rows, todo = {}, [(0, 0)]
    while todo:
        if (state := todo.pop()) in rows:
            continue
        (w, m), acc = (words[state[0]], masks[state[1]]), {}
        for e, element in enumerate(elements):
            for u, mtable in element:
                if word_level(w) + word_level(u) > module.params.level_cutoff:
                    continue
                targets = module.act_word(w + u, ())
                for mu, cval in mtable.items():
                    if m & mu:
                        continue
                    sign = _merge_sign(m, mu) * (
                        -1 if word_parity(w) and mu.bit_count() & 1 else 1)
                    for w2, c in targets.items():
                        key = (e, widx[w2], midx[m | mu])
                        acc[key] = acc.get(key, 0j) + sign * float(c) * cval
        rows[state] = {k: v for k, v in acc.items() if v}
        todo += [k[1:] for k in rows[state]]
    live = sorted(rows)
    pos = {s: i for i, s in enumerate(live)}
    mats = [np.zeros((len(live), len(live)), dtype=complex) for _ in elements]
    for s in live:
        for (e, *t), v in rows[s].items():
            mats[e][pos[s], pos[tuple(t)]] = v
    return live, mats


def walk_elements(spec: WalkSpec, cutoff) -> list:
    """[alpha, beta_1, ...] as element data; CutoffOverflow above the cutoff."""
    elems = [_element_data(drift_generator(spec))] + [
        _element_data(beta_element(spec, i)) for i in range(spec.brownian_dim)]
    if any(word_level(u) > cutoff for elem in elems for u, _m in elem):
        raise CutoffOverflow("level cutoff too small for the walk")
    return elems


def _mc_evolve(S, Ra, Rb, seed, steps: int, dt: float):
    """S after `steps` steps S += S Ra dt + sum_i dB_i S Rb[i], in place, in
    balanced tiles of at most _BLAS_SERIAL / L^2 paths for L live states if
    that is _MC_TILE_MIN or more (else whole), one tile's generators at a time.
    """
    rows = _BLAS_SERIAL // S.shape[1]**2
    tiles = np.array_split(S, -(-len(S) // rows)) if rows >= _MC_TILE_MIN else [S]
    seeds = _path_seeds(seed, len(S))
    inc = np.empty((len(tiles[0]), min(_MC_BLOCK, steps), len(Rb)))
    delta, term = np.empty_like(tiles[0]), np.empty_like(tiles[0])
    for St in tiles:
        m = len(St)
        rngs = [np.random.default_rng(s) for s in itertools.islice(seeds, m)]
        d, t = delta[:m], term[:m]
        for k0 in range(0, steps, _MC_BLOCK):
            block = inc[:m, :steps - k0]
            for rng, row in zip(rngs, block):
                rng.standard_normal(out=row)
            block *= math.sqrt(dt)
            for k in range(block.shape[1]):
                np.matmul(St, Ra, out=d)
                d *= dt
                for i, R in enumerate(Rb):
                    np.matmul(St, R, out=t)
                    t *= block[:, k, i, None]
                    d += t
                St += d
        del rngs
    return S


def mc_martingale(spec: WalkSpec, params: ModuleParams,
                  cutoff: Fraction | None = None, n_paths: int = 1000,
                  T: float = 0.25, dt: float = 1e-3, seed=0) -> dict:
    """Monte-Carlo estimate of the drift of the projected state expectation.

    The enveloping-algebra operator O_t starting from the identity is evolved
    in place by right multiplication with 1 + alpha dt + sum_i beta_i dB_i
    (words above the cutoff trimmed), in path tiles (see _mc_evolve); path p
    draws BrownianPath.sample's normals for seed [seed, p] _MC_BLOCK steps at
    a time, so memory is flat in T/dt.  O_t on the highest-weight vector is
    projected to the quotient by the singular-vector submodule; the per-basis
    drift (v_T - v_0)/T is averaged grade-by-grade over paths.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if cutoff is None:
        cutoff = params.level_cutoff
    cutoff = Fraction(cutoff)
    elements = walk_elements(spec, cutoff)
    words = pbw_words(cutoff)
    masks = _reachable_masks(elements)
    nm = len(masks)
    module = VermaModule(ModuleParams(params.c, params.delta, cutoff))
    # step only the states reachable from O_0; the others stay exactly zero
    live, (Ra, *Rb) = _reachable_transitions(elements, words, masks, module)
    steps = round(T / dt)
    S = np.zeros((n_paths, len(live)), dtype=complex)
    S[:, 0] = 1.0
    S = _mc_evolve(S, Ra, Rb, seed, steps, dt)
    Pm = quotient_projection(params, cutoff, check_singular=False,
                             levels={word_level(words[i]) for i, _j in live}
                             ).matrix(words, [words[i] for i, _j in live])
    # statistics on the words that live states project onto (at least two
    # columns: numpy sums a lone one over the paths pairwise, not in order)
    cols = np.flatnonzero(Pm.any(axis=1))
    if len(cols) * nm < 2:
        cols = np.arange(len(words))
    proj = np.zeros((n_paths, len(cols), nm), dtype=complex)
    for s, (_i, j) in enumerate(live):
        proj[:, :, j] += S[:, s, None] * Pm[cols, s]
    proj0 = np.zeros((len(cols), nm), dtype=complex)
    proj0[0, 0] = 1.0  # O_0 projects to itself: chi's span starts at 3/2
    drifts = (proj - proj0[None, :, :]) / (T if T > 0 else 1.0)
    terminal, mean, se_re, se_im = (np.zeros((len(words), nm), dtype=d)
                                    for d in (complex, complex, float, float))
    terminal[cols] = proj.mean(axis=0)
    mean[cols] = drifts.mean(axis=0)
    if n_paths > 1:
        se_re[cols] = drifts.real.std(axis=0, ddof=1) / math.sqrt(n_paths)
        se_im[cols] = drifts.imag.std(axis=0, ddof=1) / math.sqrt(n_paths)

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
        "spec": spec.name,
        "c": str(params.c),
        "delta": str(params.delta),
        "cutoff": str(cutoff),
        "n_paths": n_paths,
        "T": T,
        "dt": dt,
        "seed": seed,
        "basis_size": len(words) * nm,
        "entries": entries,
        "max_z": max_z,
        "martingale": bool(max_z <= 3.0),
        "drift_detected": bool(max_z > 5.0),
    }


# -- Loewner flow and hulls ---------------------------------------------------------


@dataclass(frozen=True)
class HullRaster:
    """Boolean occupancy raster of a hull on a rectangular grid."""

    bounds: tuple       # (xmin, xmax, ymin, ymax)
    occupancy: np.ndarray  # shape (ny, nx)


@dataclass(frozen=True)
class LoewnerResult:
    """Per-point outcome of the upward Loewner flow."""

    z_grid: np.ndarray
    swallowed_time: np.ndarray  # nan where the point survived
    final_g: np.ndarray         # nan+0j (imaginary part 0) where swallowed

    @property
    def swallowed(self) -> np.ndarray:
        return np.isfinite(self.swallowed_time)


def loewner_flow(kappa, z_grid, T: float, dt: float, seed) -> LoewnerResult:
    """Explicit Euler for dg = 2 dt / (g - sqrt(kappa) B), per grid point.

    A point is declared swallowed when |f| = |g - sqrt(kappa) B| falls below
    eps = 1e-3 sqrt(dt), or when the discrete update leaves the closed upper
    half plane (an overshoot past the singular line, counted as swallowing).
    Only points with Im g < eps take that test: Im f = Im g, |f| >= |Im f|.
    """
    z_grid = np.asarray(z_grid, dtype=complex)
    steps = round(T / dt)
    sk = math.sqrt(float(kappa))
    B = BrownianPath.sample(1, dt, steps, seed).values[0]
    eps = 1e-3 * math.sqrt(dt)
    shift = sk * B
    g = z_grid.astype(complex).ravel()  # a copy, stepped in place
    f, near = np.empty_like(g), np.empty(g.shape, dtype=bool)
    swallowed_time = np.full(g.shape, np.nan)
    alive = np.arange(g.size)  # the points g still holds
    for k in range(steps):
        np.subtract(g, shift[k], out=f)
        cand = np.less(g.imag, eps, out=near).nonzero()[0]
        if cand.size:
            hit = cand[(np.abs(f[cand]) < eps) | (g.imag[cand] < 0.0)]
            if hit.size:
                swallowed_time[alive[hit]] = k * dt
                alive, g, f, near = (np.delete(a, hit)
                                     for a in (alive, g, f, near))
        np.divide(dt * 2.0, f, out=f)
        g += f
    final = np.full(swallowed_time.shape, np.nan, dtype=complex)
    final[alive] = g
    return LoewnerResult(z_grid=z_grid,
                         swallowed_time=swallowed_time.reshape(z_grid.shape),
                         final_g=final.reshape(z_grid.shape))


def _rasterize_polyline(points: np.ndarray, bounds, shape) -> np.ndarray:
    xmin, xmax, ymin, ymax = bounds
    ny, nx = shape
    occ = np.zeros((ny, nx), dtype=bool)
    cell = min((xmax - xmin) / nx, (ymax - ymin) / ny)
    # segment s gets k[s] samples a + (b - a) * (j / k[s]), j = 1..k[s]
    a, d = points[:-1], points[1:] - points[:-1]
    with np.errstate(all="ignore"):  # a zero cell: an inf or nan count
        k = np.abs(d) / (0.5 * cell)
    if not k.sum() < 2.0 ** 62:  # beyond the int cast and any allocation
        raise MemoryError(f"the trace needs {k.sum():.3g} raster samples")
    k = k.astype(int) + 1
    seg = np.repeat(np.arange(k.size), k)
    j = np.arange(1, seg.size + 1) - np.repeat(np.cumsum(k) - k, k)
    pts = np.concatenate([points[:1], a[seg] + d[seg] * (j / k[seg])])
    ix = np.floor((pts.real - xmin) / (xmax - xmin) * nx).astype(int)
    iy = np.floor((pts.imag - ymin) / (ymax - ymin) * ny).astype(int)
    keep = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    occ[iy[keep], ix[keep]] = True
    return occ


def _run_ids(free: np.ndarray) -> np.ndarray:
    """Flat label per cell, shared by the cells of each row run of free cells."""
    start = free.copy()
    start[:, 1:] &= ~free[:, :-1]
    return np.cumsum(start.ravel())


def _spread_runs(outside: np.ndarray, free: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
    """The free cells whose row run of free cells meets ``outside``."""
    hit = np.zeros(ids[-1] + 1, dtype=bool)
    hit[ids[outside.ravel()]] = True
    return hit[ids].reshape(free.shape) & free


def _fill_hull(occ: np.ndarray) -> np.ndarray:
    """Occupied cells plus the free cells not 4-connected to the border.

    The outside starts as a free one-cell frame around the raster.  Each
    pass spreads it over every row run, then every column run, of free
    cells that it meets, until it stops changing.
    """
    free = np.pad(~occ, 1, constant_values=True)
    outside = np.pad(np.zeros_like(occ), 1, constant_values=True)
    row_ids, col_ids = _run_ids(free), _run_ids(free.T)
    while True:
        grown = _spread_runs(outside, free, row_ids)
        grown = _spread_runs(grown.T, free.T, col_ids).T
        if np.array_equal(grown, outside):
            return ~outside[1:-1, 1:-1]
        outside = grown


def supertrace_hull(kappa, T: float, dt: float, seed, grid: int,
                    bounds=None):
    """Raster hull of the scaled complex Brownian trace sqrt(kappa) B+.

    ``grid`` is the raster resolution per axis.  Returns (HullRaster,
    polyline) where the polyline starts at the origin.
    """
    if grid < 1:
        raise ValueError("grid resolution must be positive")
    steps = round(T / dt)
    sk = math.sqrt(float(kappa))
    values = BrownianPath.sample(2, dt, steps, seed).values
    trace = sk * (values[0] + 1j * values[1])
    if bounds is None:
        margin = max(1e-6, 0.1 * max(np.ptp(trace.real), np.ptp(trace.imag)))
        bounds = (float(trace.real.min() - margin),
                  float(trace.real.max() + margin),
                  float(trace.imag.min() - margin),
                  float(trace.imag.max() + margin))
    occ = _rasterize_polyline(trace, bounds, (grid, grid))
    hull = _fill_hull(occ)
    return HullRaster(bounds=bounds, occupancy=hull), trace


# -- file output --------------------------------------------------------------------


def _config_lines(config: dict | None):
    if not config:
        return []
    return [f"# {k}={config[k]}" for k in sorted(config)]


def write_csv(header, columns, dest, config: dict | None = None,
              comment: str | None = None):
    """Equal-length float columns as rows under the config lines and
    ``comment``; a cell is its value's repr, and a NaN cell is empty.  Rows
    are formatted and written 4096 at a time, to bound the strings held,
    and a float64 block formats each distinct bit pattern once."""
    columns = [np.ravel(c) for c in columns]
    if len({c.size for c in columns}) > 1:
        raise ValueError("the CSV columns differ in length")
    lines = _config_lines(config) + ([comment] if comment else [])
    _write_text(dest, "\n".join([*lines, ",".join(header)]) + "\n", (
        "".join(f"{row}\n" for row in map(",".join, zip(*(
            _cells(c[i:i + 4096]) for c in columns))))
        for i in range(0, columns[0].size if columns else 0, 4096)))


def _cells(block: np.ndarray) -> list:
    keys, index = (np.unique(block.view(np.int64), return_inverse=True)
                   if block.dtype == np.float64 else (block, slice(None)))
    cells = ["" if v != v else repr(v) for v in keys.view(block.dtype).tolist()]
    return np.array(cells, object)[index].tolist()


def write_superpath_csv(sp_path: SuperPath, dest, config: dict | None = None):
    """CSV rows of (t, per-mask Re/Im of z and theta).

    A mask gets columns iff some state has a non-zero coefficient there;
    an exactly zero coefficient is written as 0.0,0.0 and a NaN part (the
    CLI refuses to write a non-finite path) as an empty cell.
    """
    used = (sp_path.Z != 0).any(axis=0) | (sp_path.TH != 0).any(axis=0)
    masks = np.flatnonzero(used).tolist() or [0]
    header, columns = ["t"], [sp_path.times]
    for name, X in (("z", sp_path.Z), ("theta", sp_path.TH)):
        X = X[:, masks]
        for m, x in zip(masks, np.where(X == 0, 0j, X).T):
            header += [f"{name}{m}_re", f"{name}{m}_im"]
            columns += [x.real, x.imag]
    t = sp_path.swallowed_time
    write_csv(header, columns, dest, config,
              None if t is None else f"# status=swallowed t={t!r}")


def write_pgm(raster: HullRaster, dest, config: dict | None = None):
    """Binary occupancy as a plain-text PGM image (1 = hull)."""
    ny, nx = raster.occupancy.shape
    lines = ["P2"]
    lines += _config_lines(config)
    lines += [f"{nx} {ny}", "1"]
    for row in raster.occupancy[::-1]:  # top row = largest imaginary part
        lines.append(" ".join("1" if v else "0" for v in row))
    _write_text(dest, "\n".join(lines) + "\n")


def write_json_report(report: dict, dest, config: dict | None = None):
    payload = {"config": config or {}, "report": report}
    _write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(dest, text: str, blocks=()):
    """text, then each string of ``blocks``, to a path or an open file."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            return _write_text(fh, text, blocks)
    dest.write(text)
    for block in blocks:
        dest.write(block)
