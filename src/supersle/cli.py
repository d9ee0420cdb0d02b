"""Command-line interface: verification and simulation with deterministic outputs.

Subcommands
-----------
verify      exact-arithmetic checks of the singular-vector construction
sde         integrate a graded stochastic evolution; CSV path output
martingale  Monte-Carlo drift check of the projected state expectation
trace       supertrace hulls and Loewner-flow rasters

Exit codes (a non-zero exit prints exactly one line on stderr):
0  success / expectation met;
1  'FAIL ...': a mathematical check failed: a verify check, an unmet
   --expect-*, walk modes above the --cutoff level, a non-finite sde
   Euler path or a non-finite martingale statistic (then nothing is
   written);
2  'error: ...': usage, parse or file error, input the numerics refuse
   (swallowed point, vanishing denominator, non-invertible initial point,
   parity error), or a run too large to allocate (MemoryError).
--kappa, --cutoff and --delta-shift take rationals (2, 8/3, 0.5); --cutoff is
at most MAX_CUTOFF = 8, a basis of 315 PBW words (more exits 2).  The
seed falls back to SUPER_SLE_SEED, then 0.  All outputs embed the resolved
configuration as '# key=value' comment lines (CSV/PGM) or a "config"
object (JSON), so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import sympy as sp

from supersle.grassmann import (EXACT, FLOAT, GrassmannNumber, NotInvertible,
                                make_generator)
from supersle.ns_algebra import (
    AlgebraElement,
    CutoffOverflow,
    L,
    ModuleParams,
    bracket,
    is_singular,
    is_singular_level2,
    params_from_kappa_ns,
    params_from_kappa_virasoro,
    singular_condition_residual,
    singular_vector_32,
    virasoro_level2_vector,
)
from supersle.superfield import ParityError, SuperPoint
from supersle.walk import WalkSpec, match_singular, sde_system, standard_spec
from supersle import sde as sde_mod


MAX_CUTOFF = 8  # the Monte-Carlo matrices grow as (words x masks)^2


class UsageError(ValueError):
    pass


def _rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_kappa(text: str, allow_zero: bool = False) -> Fraction:
    kappa = _rational(text, "kappa")
    if kappa < 0 or (kappa == 0 and not allow_zero):
        raise UsageError("kappa must be a positive rational")
    return kappa


def _paths(args) -> int:
    if args.paths < 1:
        raise UsageError("--paths must be at least 1")
    return args.paths


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("SUPER_SLE_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"SUPER_SLE_SEED={env!r} is not an integer")
    if seed < 0:
        raise UsageError(f"the seed must be non-negative, got {seed}")
    return seed


def _steps_for(T: float, dt: float) -> int:
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0 or T <= 0:
        raise UsageError(f"need finite dt > 0 and T > 0, got dt={dt} T={T}")
    steps = round(T / dt)
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise UsageError(f"dt={dt} does not divide T={T}")
    return steps


def _load_spec(name: str, kappa: Fraction, ring):
    if name.startswith("file:"):
        path = name[5:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            spec = WalkSpec.from_json(data, ring)
            coeffs = [c for t in (spec.alpha0, *spec.beta)
                      for pair in t.values() for g in pair
                      for c in g.terms.values()]
            if not np.isfinite(np.array(coeffs, dtype=complex)).all():
                raise ValueError("coefficients must be finite numbers")
            return spec
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise UsageError(f"cannot load walk spec from {path!r}: {exc}")
    try:
        return standard_spec(name, kappa if ring is EXACT else float(kappa),
                             ring)
    except ValueError as exc:
        raise UsageError(str(exc))


def _config_dict(args, extra=None) -> dict:
    keys = ("command", "kappa", "spec", "dt", "T", "paths", "steps", "seed",
            "grid", "mode", "cutoff", "delta_shift")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = str(v)
    if extra:
        out.update({k: str(v) for k, v in extra.items()})
    return out


# -- verify -----------------------------------------------------------------------


def _verify_checks(kappa: Fraction):
    k = sp.Rational(kappa.numerator, kappa.denominator)
    ns = params_from_kappa_ns(k)
    vir = params_from_kappa_virasoro(k)
    jac = bracket(L(1), L(-1), sp.Symbol("c")) \
        == (bracket(L(0), L(0), sp.Symbol("c")) +
            AlgebraElement({(L(0),): 2}))
    checks = [
        ("algebra-bracket-sanity", jac),
        ("ns-singular-condition",
         singular_condition_residual(ns) == 0),
        ("ns-singular-vector",
         is_singular(singular_vector_32(ns))[0]),
        ("virasoro-level2-vector",
         is_singular_level2(virasoro_level2_vector(k))[0]),
        ("walk-32-matches-singular",
         match_singular(standard_spec("32", k), k)["matched"]),
        ("walk-32alt-matches-singular",
         match_singular(standard_spec("32alt", k), k)["matched"]),
    ]
    report = {
        "kappa": str(kappa),
        "ns": {"c": str(ns.c), "delta": str(ns.delta)},
        "virasoro": {"c": str(vir.c), "delta": str(vir.delta)},
        "checks": [{"name": n, "passed": bool(ok)} for n, ok in checks],
    }
    return checks, report


def cmd_verify(args) -> int:
    kappa = _parse_kappa(args.kappa)
    checks, report = _verify_checks(kappa)
    sde_mod.write_json_report(report, args.out or sys.stdout,
                              config=_config_dict(args))
    for name, ok in checks:
        if not ok:
            print(f"FAIL {name}", file=sys.stderr)
            return 1
    return 0


# -- sde --------------------------------------------------------------------------


def _initial_point(spec: WalkSpec, z0: complex) -> SuperPoint:
    n = spec.num_generators
    z = GrassmannNumber.scalar(z0, n, FLOAT)
    if spec.theta_index is not None and spec.theta_index < n:
        theta = make_generator(spec.theta_index, n, FLOAT)
    else:
        theta = GrassmannNumber.zero(n, FLOAT)
    return SuperPoint(z, theta)


def cmd_sde(args) -> int:
    kappa = _parse_kappa(args.kappa)
    seed = _resolve_seed(args)
    steps = _steps_for(args.T, args.dt)
    if not math.isfinite(args.z0):
        raise UsageError("--z0 must be finite")
    spec = _load_spec(args.spec, kappa, FLOAT)
    init = _initial_point(spec, complex(args.z0))
    config = _config_dict(args, {"seed": seed, "steps": steps,
                                 "z0": args.z0})
    if args.convergence:
        study = {"32": sde_mod.convergence_32,
                 "32alt": sde_mod.convergence_32alt}.get(spec.name)
        if study is None:
            raise UsageError("--convergence requires spec 32 or 32alt "
                             "(closed-form reference needed)")
        paths = _paths(args)
        for d in args.convergence_dts:
            _steps_for(args.T, d)
        try:
            rep = study(float(kappa), init, args.T, args.convergence_dts,
                        paths, seed)
        except ValueError as exc:  # a dt ladder the study cannot use
            raise UsageError(f"--convergence-dts: {exc}") from None
        sde_mod.write_json_report(rep, args.out or sys.stdout, config=config)
        return 0
    path = sde_mod.BrownianPath.sample(spec.brownian_dim, args.dt, steps,
                                       seed)
    with np.errstate(all="ignore"):  # non-finite states are reported below
        out = sde_mod.euler_maruyama(sde_system(spec), init, path)
    if not (np.isfinite(out.Z).all() and np.isfinite(out.TH).all()):
        print("FAIL sde: non-finite state on the Euler path", file=sys.stderr)
        return 1
    sde_mod.write_superpath_csv(out, args.out or sys.stdout, config=config)
    return 0


# -- martingale ---------------------------------------------------------------------


def cmd_martingale(args) -> int:
    kappa = _parse_kappa(args.kappa)
    paths = _paths(args)
    seed = _resolve_seed(args)
    _steps_for(args.T, args.dt)
    spec = _load_spec(args.spec, kappa, EXACT)
    k = sp.Rational(kappa.numerator, kappa.denominator)
    params = params_from_kappa_ns(k)
    if args.delta_shift is not None:
        shift = sp.Rational(_rational(args.delta_shift, "--delta-shift"))
        params = ModuleParams(params.c, params.delta + shift,
                              params.level_cutoff)
    cutoff = params.level_cutoff
    if args.cutoff is not None:
        cutoff = _rational(args.cutoff, "--cutoff")
        if cutoff < 0 or cutoff.denominator > 2:
            raise UsageError("--cutoff must be a non-negative multiple of 1/2")
        if cutoff > MAX_CUTOFF:
            raise UsageError(f"--cutoff must be at most {MAX_CUTOFF}")
    sde_mod.walk_elements(spec, cutoff)  # exit 1 comes before the paths check
    if paths < 2:
        raise UsageError("martingale needs --paths >= 2 for a standard error")
    with np.errstate(all="ignore"):  # non-finite statistics are reported below
        rep = sde_mod.mc_martingale(spec, params, cutoff=cutoff,
                                    n_paths=paths, T=args.T, dt=args.dt,
                                    seed=seed)
    # z is inf for a non-zero drift with zero standard error; the measured
    # statistics themselves must be finite
    stats = [e[k] for e in rep["entries"] for k in
             ("terminal_re", "terminal_im", "drift_re", "drift_im", "se_re",
              "se_im")]
    if not np.isfinite(stats).all():
        print("FAIL martingale: non-finite statistic in the report",
              file=sys.stderr)
        return 1
    config = _config_dict(args, {"seed": seed})
    sde_mod.write_json_report(rep, args.out or sys.stdout, config=config)
    verdict = ("martingale" if args.expect_martingale else
               "drift_detected" if args.expect_drift else None)
    if verdict and not rep[verdict]:
        print(f"FAIL {verdict}: max_z={rep['max_z']}", file=sys.stderr)
        return 1
    return 0


# -- trace ---------------------------------------------------------------------------


def _parse_bounds(text):
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --bounds {text!r}") from None
    if len(parts) != 4 or not all(math.isfinite(x) for x in parts):
        raise UsageError("--bounds needs finite xmin,xmax,ymin,ymax")
    xmin, xmax, ymin, ymax = parts
    if not (xmin < xmax and ymin < ymax):
        raise UsageError("--bounds needs xmin < xmax and ymin < ymax")
    return parts


def cmd_trace(args) -> int:
    kappa = _parse_kappa(args.kappa, allow_zero=True)
    if not args.out:
        raise UsageError("trace requires --out")
    if args.grid < 1:
        raise UsageError("--grid must be positive")
    seed = _resolve_seed(args)
    steps = _steps_for(args.T, args.dt)
    config = _config_dict(args, {"seed": seed, "steps": steps})
    bounds = _parse_bounds(args.bounds) if args.bounds else None
    if args.mode == "supertrace":
        raster, trace = sde_mod.supertrace_hull(float(kappa), args.T,
                                                args.dt, seed, args.grid,
                                                bounds=bounds)
        suffix, rows = "_trace.csv", ["t,re,im"]
        for i, p in enumerate(trace):
            rows.append(f"{float(i * args.dt)!r},{float(p.real)!r},"
                        f"{float(p.imag)!r}")
    else:  # loewner
        if bounds is None:
            if args.grid < 3:
                raise UsageError("loewner --grid must be at least 3 "
                                 "without --bounds")
            bounds = (-2.0, 2.0, 4.0 / args.grid, 2.0)
        xs = np.linspace(bounds[0], bounds[1], args.grid)
        ys = np.linspace(bounds[2], bounds[3], args.grid)
        z_grid = xs[None, :] + 1j * ys[:, None]
        res = sde_mod.loewner_flow(float(kappa), z_grid, args.T, args.dt,
                                   seed)
        raster = sde_mod.HullRaster(bounds=bounds, occupancy=res.swallowed)
        suffix, rows = "_points.csv", [
            "re,im,swallowed_time,final_g_re,final_g_im"]
        for z, t, g in zip(z_grid.ravel(), res.swallowed_time.ravel(),
                           res.final_g.ravel()):
            rows.append(",".join([
                repr(float(z.real)), repr(float(z.imag)),
                "" if np.isnan(t) else repr(float(t)),
                "" if np.isnan(g.real) else repr(float(g.real)),
                "" if np.isnan(g.imag) else repr(float(g.imag))]))
    sde_mod.write_pgm(raster, args.out + ".pgm", config=config)
    lines = sde_mod._config_lines(config) + rows
    sde_mod._write_text(args.out + suffix, "\n".join(lines) + "\n")
    return 0


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersle",
        description="Graded stochastic evolutions and superconformal "
                    "singular-vector checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kappa", required=True,
                       help="positive rational, e.g. 2 or 8/3")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (fallback: SUPER_SLE_SEED, then 0)")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("verify", help="exact singular-vector verification")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sde", help="integrate a graded SDE; CSV columns are "
                                   "t then Re/Im per Grassmann grade of z "
                                   "and theta")
    common(p)
    p.add_argument("--spec", default="32",
                   help="32 | 32alt | virasoro | file:walk.json")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=2.0,
                   help="body of the initial even coordinate")
    p.add_argument("--paths", type=int, default=100,
                   help="paths for --convergence studies")
    p.add_argument("--convergence", action="store_true",
                   help="write a strong-convergence JSON table instead")
    p.add_argument("--convergence-dts", type=float, nargs="+",
                   default=[1e-2, 1e-3], help="dt ladder for --convergence")
    p.set_defaults(func=cmd_sde)

    p = sub.add_parser("martingale",
                       help="Monte-Carlo drift check in the quotient module")
    common(p)
    p.add_argument("--spec", default="32",
                   help="32 | 32alt | virasoro | file:walk.json")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--T", type=float, default=0.25)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--cutoff", default=None,
                   help=f"level cutoff, a multiple of 1/2 <= {MAX_CUTOFF}; default 7/2")
    p.add_argument("--delta-shift", dest="delta_shift", default=None,
                   help="detune the highest weight by this rational")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--expect-martingale", action="store_true",
                       help="exit 0 iff every drift is within 3 SE of 0")
    group.add_argument("--expect-drift", action="store_true",
                       help="exit 0 iff some drift exceeds 5 SE")
    p.set_defaults(func=cmd_martingale)

    p = sub.add_parser("trace", help="supertrace hull or Loewner raster")
    common(p)
    p.add_argument("--mode", choices=("supertrace", "loewner"),
                   default="supertrace")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=128,
                   help="raster resolution per axis")
    p.add_argument("--bounds", default=None, help="xmin,xmax,ymin,ymax")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError, MemoryError, NotInvertible, ParityError,
            sde_mod.SwallowedPoint, sde_mod.DenominatorVanishes) as exc:
        code, message = 2, f"error: {exc}"
    except CutoffOverflow as exc:
        code, message = 1, f"FAIL cutoff: {exc}"
    print(" ".join(message.split()), file=sys.stderr)  # always one line
    return code


if __name__ == "__main__":
    sys.exit(main())
