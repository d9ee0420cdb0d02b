"""One pass of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  The pass imports
supersle from the checkout's ``src/``, builds the workload's inputs from the
seed, runs every operation (timed, and traced with ``--trace 1``), then
checks every result outside the timed region.  It writes one JSON record:
wall and CPU time of the operations, peak RSS, the monotonic time at which
the first operation started (so the parent can compute set-up time), the
per-operation verdicts, digests of the files the CLI wrote, exact work
counts and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import sympy as sp  # noqa: E402

# Traced functions are called through their module, so the tracer's
# replacement is seen.
from supersle import cli, ns_algebra, sde, superfield  # noqa: E402
from supersle.grassmann import FLOAT, GrassmannNumber, make_generator  # noqa: E402
from supersle.ns_algebra import (  # noqa: E402
    ModuleParams,
    params_from_kappa_ns,
    singular_vector_32,
)
from supersle.superfield import LaurentSuperfunction, SuperPoint  # noqa: E402
from supersle.walk import spec_32, spec_32alt  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402

DT_LADDER = (1e-2, 1e-3, 1e-4)


# One workload operation: a call and the oracle that checks its result.
Op = collections.namedtuple("Op", "name call check")


def _init_point(n: int, theta_index: int) -> SuperPoint:
    return SuperPoint(GrassmannNumber.scalar(2.0, n, FLOAT),
                      make_generator(theta_index, n, FLOAT))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _expect(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def _cli(argv):
    """cli.main as an operation; the oracle reads the exit code first."""
    return lambda: cli.main(argv)


def _check_exit(code):
    _expect(code == 0, f"exit code {code}")


def _read_csv(path):
    header, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            if header is None:
                header = fields
            else:
                rows.append(fields)
    return header, rows


def _check_csv_finite(path):
    _header, rows = _read_csv(path)
    _expect(bool(rows), f"{path}: no rows")
    _expect(_finite([float(v) for r in rows for v in r if v != ""]),
            f"{path}: non-finite value")


def _check_pgm(path, grid, nonempty):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n")
                 if ln and not ln.startswith("#")]
    _expect(lines[0] == "P2" and lines[1] == f"{grid} {grid}"
            and lines[2] == "1", f"{path}: bad header")
    cells = " ".join(lines[3:]).split()
    _expect(len(cells) == grid * grid and set(cells) <= {"0", "1"},
            f"{path}: bad raster")
    _expect("1" in cells or not nonempty, f"{path}: empty hull")


# -- euler-batch ----------------------------------------------------------------


def euler_batch(rng, tiny, _tmp):
    T = 0.1
    ladder = DT_LADDER[:2] if tiny else DT_LADDER
    paths32, paths32alt = (4, 8) if tiny else (100, 200)
    s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
    init4, init2 = _init_point(4, 3), _init_point(2, 1)

    def check32(rep):
        _expect(_finite(rep["mean_error"]), "non-finite error")
        _expect(rep["exact_scheme"], "spec 32 Euler not exact")

    def check32alt(rep):
        errs = rep["mean_error"]
        _expect(_finite(errs) and math.isfinite(rep["order"]),
                "non-finite error")
        _expect(all(a > b for a, b in zip(errs, errs[1:])),
                f"errors not decreasing: {errs}")
        _expect(errs[-1] <= 5e-2, f"final error {errs[-1]} > 5e-2")

    ops = [
        Op("convergence_32",
           lambda: sde.convergence_32(2.0, init4, T, ladder, paths32, s1),
           check32),
        Op("convergence_32alt",
           lambda: sde.convergence_32alt(1.0, init2, T, ladder, paths32alt,
                                         s2),
           check32alt),
    ]
    steps = sum(round(T / d) for d in ladder)
    work = {"work.path_steps": (paths32 + paths32alt) * steps}
    return ops, work


# -- one-path -------------------------------------------------------------------


def one_path(rng, tiny, tmp):
    T = 0.1 if tiny else 1.0
    dt = 1e-3
    grid = 16 if tiny else 128
    n_cons = 3 if tiny else 30
    seeds = [rng.randrange(2**31) for _ in range(4)]
    cons_seeds = [rng.randrange(2**31) for _ in range(n_cons)]
    out = {k: os.path.join(tmp, k) for k in
           ("p32.csv", "p32alt.csv", "hull", "flow2", "flow0", "flow0ref")}
    common = ["--T", repr(T), "--dt", repr(dt)]
    init4 = _init_point(4, 3)

    def check_sde32(code):
        _check_exit(code)
        _check_csv_finite(out["p32.csv"])
        header, rows = _read_csv(out["p32.csv"])
        path = sde.BrownianPath.sample(1, dt, round(T / dt), seeds[0])
        ref = sde.closed_form_32(init4, path, 2.0)
        last = dict(zip(header, (float(v) for v in rows[-1])))
        for coord, g in (("z", ref.z[-1]), ("theta", ref.theta[-1])):
            for mask in range(16):
                c = complex(g.terms.get(mask, 0))
                got = complex(last.get(f"{coord}{mask}_re", 0.0),
                              last.get(f"{coord}{mask}_im", 0.0))
                _expect(abs(got - c) <= 1e-9,
                        f"terminal {coord}{mask} off closed form by "
                        f"{abs(got - c)}")

    def check_csv(name):
        def check(code):
            _check_exit(code)
            _check_csv_finite(out[name])
        return check

    def check_hull(code):
        _check_exit(code)
        _check_pgm(out["hull"] + ".pgm", grid, nonempty=True)
        _check_csv_finite(out["hull"] + "_trace.csv")

    def check_flow(name, points_grid):
        def check(code):
            _check_exit(code)
            # a drift-free flow may swallow no grid point at all
            _check_pgm(out[name] + ".pgm", points_grid, nonempty=False)
            _header, rows = _read_csv(out[name] + "_points.csv")
            _expect(len(rows) == points_grid ** 2, "missing grid points")
            _check_csv_finite(out[name] + "_points.csv")
        return check

    def check_flow_exact(code):
        # the pinned drift-free oracle: survivors follow sqrt(z^2 + 4T)
        check_flow("flow0ref", 8)(code)
        _header, rows = _read_csv(out["flow0ref"] + "_points.csv")
        alive = [r for r in rows if r[3] != ""]
        _expect(bool(alive), "every point swallowed")
        z = np.array([float(r[0]) + 1j * float(r[1]) for r in alive])
        g = np.array([float(r[3]) + 1j * float(r[4]) for r in alive])
        exact = np.sqrt(z ** 2 + 4.0)
        exact = np.where(exact.imag < 0, -exact, exact)
        err = float(np.max(np.abs(g - exact)))
        _expect(err < 1e-3, f"drift-free flow off sqrt(z^2+4T) by {err}")

    def conservation():
        return [sde.conservation_check_32(
            init4, sde.BrownianPath.sample(1, dt, 1000, s), 3.0)
            for s in cons_seeds]

    def check_conservation(reps):
        for rep in reps:
            _expect(_finite(list(rep.values())), "non-finite conservation")
            _expect(rep["max_conservation_error"] <= 1e-9,
                    f"conservation error {rep['max_conservation_error']}")
            _expect(rep["max_body_drift"] <= 1e-9,
                    f"body drift {rep['max_body_drift']}")

    ops = [
        Op("sde_32", _cli(["sde", "--spec", "32", "--kappa", "2", *common,
                           "--seed", str(seeds[0]), "--out", out["p32.csv"]]),
           check_sde32),
        Op("sde_32alt", _cli(["sde", "--spec", "32alt", "--kappa", "1",
                              *common, "--seed", str(seeds[1]),
                              "--out", out["p32alt.csv"]]),
           check_csv("p32alt.csv")),
        Op("trace_supertrace", _cli(["trace", "--mode", "supertrace",
                                     "--kappa", "2", *common,
                                     "--grid", str(grid),
                                     "--seed", str(seeds[2]),
                                     "--out", out["hull"]]),
           check_hull),
        Op("trace_loewner", _cli(["trace", "--mode", "loewner", "--kappa", "2",
                                  *common, "--grid", str(grid),
                                  "--seed", str(seeds[3]),
                                  "--out", out["flow2"]]),
           check_flow("flow2", grid)),
        # the README drift-free run, on its default grid
        Op("trace_loewner_k0", _cli(["trace", "--mode", "loewner",
                                     "--kappa", "0", "--T", "0.25",
                                     "--grid", str(grid),
                                     "--out", out["flow0"]]),
           check_flow("flow0", grid)),
        # the drift-free run at the step and off-axis grid the tests pin
        Op("trace_loewner_k0_exact", _cli(["trace", "--mode", "loewner",
                                           "--kappa", "0", "--T", "1",
                                           "--dt", "1e-4", "--grid", "8",
                                           "--bounds=-2,2,0.5,2",
                                           "--out", out["flow0ref"]]),
           check_flow_exact),
        Op("conservation_check_32", conservation, check_conservation),
    ]
    steps = round(T / dt)
    work = {"work.path_steps": 2 * steps,
            "work.grid_point_steps": grid * grid * (steps + 250)
            + 64 * 10000}
    return ops, work


# -- mc-martingale --------------------------------------------------------------


def mc_martingale(rng, tiny, _tmp):
    n_paths = 500 if tiny else 2000
    T, dt, cutoff, kappa = 0.25, 1e-3, Fraction(7, 2), 2
    params = params_from_kappa_ns(kappa)
    detuned = ModuleParams(params.c, params.delta + sp.Rational(1, 2),
                           params.level_cutoff)
    cases = [("mc_32_matched", spec_32(kappa), params, False),
             ("mc_32_detuned", spec_32(kappa), detuned, True),
             ("mc_32alt_matched", spec_32alt(kappa), params, False)]
    ops = []
    work = {"work.path_steps": len(cases) * n_paths * round(T / dt),
            "mc.basis_size": 0}
    for name, spec, prm, drift in cases:
        s = rng.randrange(2**31)

        def check(rep, drift=drift):
            work["mc.basis_size"] += rep["basis_size"]
            nums = [e[k] for e in rep["entries"] for k in
                    ("terminal_re", "terminal_im", "drift_re", "drift_im",
                     "se_re", "se_im")]
            _expect(_finite(nums), "non-finite report entry")
            _expect(rep["drift_detected"] is drift,
                    f"drift_detected={rep['drift_detected']} "
                    f"(max_z={rep['max_z']})")

        ops.append(Op(name, lambda spec=spec, prm=prm, s=s: sde.mc_martingale(
            spec, prm, cutoff=cutoff, n_paths=n_paths, T=T, dt=dt, seed=s),
            check))
    return ops, work


# -- exact-algebra --------------------------------------------------------------


def _draw_kappas(rng, per_denominator):
    """Positive rationals p/q in lowest terms, p <= 8, the same number for
    each q in 1..4, so every seed gets a like mix of heights."""
    out = []
    for q in range(1, 5):
        ps = [p for p in range(1, 9) if math.gcd(p, q) == 1]
        out += [Fraction(p, q) for p in rng.sample(ps, per_denominator)]
    rng.shuffle(out)
    return out


def exact_algebra(rng, tiny, tmp):
    per_q, cutoff = (1, Fraction(9, 2)) if tiny else (3, Fraction(13, 2))
    kappas = _draw_kappas(rng, per_q)
    k_map32, k_map32alt = _draw_kappas(rng, 1)[:2]
    ops = []
    for i, k in enumerate(kappas):
        dest = os.path.join(tmp, f"verify_{i}.json")

        def check_verify(code, dest=dest):
            _check_exit(code)
            with open(dest, encoding="utf-8") as fh:
                report = json.load(fh)["report"]
            _expect(all(c["passed"] for c in report["checks"]),
                    "a verify check failed")

        ops.append(Op(f"verify_{i}", _cli(["verify", "--kappa", str(k),
                                           "--out", dest]), check_verify))
        params = params_from_kappa_ns(sp.Rational(k.numerator, k.denominator))

        def check_projector(P, params=params):
            _expect(P(singular_vector_32(params)).is_zero(),
                    "projector does not annihilate chi")

        ops.append(Op(f"quotient_projection_{i}",
                      lambda params=params: ns_algebra.quotient_projection(
                          params, cutoff),
                      check_projector))

    grid = [(dk, ck) for dk in range(-8, 9) for ck in range(-10, 11)]
    if tiny:
        grid = grid[::20]

    def sweep():
        out = []
        for dk, ck in grid:
            params = ModuleParams(sp.Rational(ck, 2), sp.Rational(dk, 4))
            ok, _ = ns_algebra.is_singular(singular_vector_32(params))
            residual = ns_algebra.singular_condition_residual(params)
            out.append((ok, residual))
        return out

    def check_sweep(verdicts):
        _expect(len(verdicts) == len(grid), "sweep incomplete")
        bad = [i for i, (ok, res) in enumerate(verdicts) if ok != (res == 0)]
        _expect(not bad, f"{len(bad)} sweep verdicts disagree with residual")

    def superconformal():
        z2 = (LaurentSuperfunction({2: GrassmannNumber.scalar(1, 1)}, {}),
              LaurentSuperfunction({}, {0: GrassmannNumber.scalar(1, 1)}))
        return [superfield.is_superconformal(*m) for m in (
            sde.closed_form_32_map(sp.Rational(k_map32.numerator,
                                               k_map32.denominator)),
            sde.closed_form_32alt_map(sp.Rational(k_map32alt.numerator,
                                                  k_map32alt.denominator)),
            z2)]

    def check_superconformal(results):
        (ok32, r32), (okalt, ralt), (okz2, rz2) = results
        _expect(ok32 and r32.is_zero(), "spec 32 map not superconformal")
        _expect(okalt and ralt.is_zero(), "spec 32alt map not superconformal")
        _expect(not okz2 and not rz2.is_zero(), "z^2 control passed")

    ops.append(Op("singular_sweep", sweep, check_sweep))
    ops.append(Op("is_superconformal", superconformal, check_superconformal))
    return ops, {}


# -- driver ---------------------------------------------------------------------


WORKLOADS = {
    "euler-batch": euler_batch,
    "one-path": one_path,
    "mc-martingale": mc_martingale,
    "exact-algebra": exact_algebra,
}
WORK_KEYS = ("work.path_steps", "work.grid_point_steps", "mc.basis_size")


def environment() -> dict:
    """Versions, cores, BLAS build and threads as this process sees them."""
    # imported here, after the timed region, to keep them out of set-up time
    import ctypes
    import glob

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    thread_vars = {k: v for k, v in os.environ.items()
                   if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS_",
                                                     "MKL_", "BLIS_"))}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sp.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "thread_vars": thread_vars,
    }


def _digests(tmp: str) -> dict:
    out = {}
    for name in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True,
                    help="empty directory for the CLI's output files")
    ap.add_argument("--result", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    rng = random.Random(f"{args.workload}/{args.seed}")
    ops, work = WORKLOADS[args.workload](rng, args.tiny, args.tmp)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t_ready = time.monotonic()
    record = {"t_ready": t_ready}
    if not args.setup_only:
        results = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op in ops:
            try:
                if tracer:
                    results.append(("ok", tracer.operation(op.name, op.call)))
                else:
                    results.append(("ok", op.call()))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append(("error", f"{type(exc).__name__}: {exc}"))
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        failures = {}
        for op, (status, value) in zip(ops, results):
            if status == "ok":
                try:
                    op.check(value)
                    continue
                except Exception as exc:  # an oracle verdict, recorded
                    value = f"{type(exc).__name__}: {exc}"
            failures[op.name] = value
        record.update({
            "run_s": run_s,
            "cpu_s": cpu_s,
            "attempted": len(ops),
            "failures": failures,
            "digests": _digests(args.tmp),
            "work": {k: work.get(k, 0) for k in WORK_KEYS},
            "env": environment(),
        })
        if tracer:
            record["layers"] = summarize(tracer.spans)
            record["counts"] = tracer.counts
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
