"""Command-line interface: verification and simulation with deterministic outputs.

Subcommands
-----------
verify      exact-arithmetic checks of the singular-vector construction
sde         integrate a graded stochastic evolution; CSV path output
martingale  Monte-Carlo drift check of the projected state expectation
trace       supertrace hulls and Loewner-flow rasters

Exit codes: 0 success / expectation met, 1 mathematical check failed,
2 usage or parse error.  The environment variable SUPER_SLE_SEED is used
as seed when --seed is not given.  All outputs embed the resolved
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

from supersle.grassmann import EXACT, FLOAT, GrassmannNumber, make_generator
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
from supersle.superfield import SuperPoint
from supersle.walk import WalkSpec, match_singular, sde_system, standard_spec
from supersle import sde as sde_mod


class UsageError(ValueError):
    pass


def _parse_kappa(text: str, allow_zero: bool = False) -> Fraction:
    try:
        kappa = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse kappa {text!r}: {exc}") from None
    if kappa < 0 or (kappa == 0 and not allow_zero):
        raise UsageError("kappa must be a positive rational")
    return kappa


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SUPER_SLE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"SUPER_SLE_SEED={env!r} is not an integer")
    return 0


def _steps_for(T: float, dt: float) -> int:
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0 or T < 0:
        raise UsageError("need finite dt > 0 and T >= 0")
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
            return WalkSpec.from_json(data, ring)
        except (OSError, ValueError, KeyError, TypeError) as exc:
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


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8"), True
    return sys.stdout, False


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
    dest, close = _open_out(args)
    try:
        sde_mod.write_json_report(report, dest, config=_config_dict(args))
    finally:
        if close:
            dest.close()
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
        if spec.name == "32":
            rep = sde_mod.convergence_32(float(kappa), init, args.T,
                                         args.convergence_dts, args.paths,
                                         seed)
        elif spec.name == "32alt":
            rep = sde_mod.convergence_32alt(float(kappa), init, args.T,
                                            args.convergence_dts, args.paths,
                                            seed)
        else:
            raise UsageError("--convergence requires spec 32 or 32alt "
                             "(closed-form reference needed)")
        dest, close = _open_out(args)
        try:
            sde_mod.write_json_report(rep, dest, config=config)
        finally:
            if close:
                dest.close()
        return 0
    path = sde_mod.BrownianPath.sample(spec.brownian_dim, args.dt, steps,
                                       seed)
    out = sde_mod.euler_maruyama(sde_system(spec), init, path,
                                 on_swallow="truncate")
    dest, close = _open_out(args)
    try:
        sde_mod.write_superpath_csv(out, dest, config=config)
    finally:
        if close:
            dest.close()
    return 0


# -- martingale ---------------------------------------------------------------------


def cmd_martingale(args) -> int:
    kappa = _parse_kappa(args.kappa)
    if args.paths < 1:
        raise UsageError("--paths must be at least 1")
    seed = _resolve_seed(args)
    _steps_for(args.T, args.dt)
    spec = _load_spec(args.spec, kappa, EXACT)
    k = sp.Rational(kappa.numerator, kappa.denominator)
    params = params_from_kappa_ns(k)
    if args.delta_shift:
        shift = sp.nsimplify(sp.sympify(args.delta_shift), rational=True)
        params = ModuleParams(params.c, params.delta + shift,
                              params.level_cutoff)
    cutoff = Fraction(args.cutoff) if args.cutoff else None
    try:
        rep = sde_mod.mc_martingale(spec, params, cutoff=cutoff,
                                    n_paths=args.paths, T=args.T, dt=args.dt,
                                    seed=seed)
    except CutoffOverflow as exc:
        print(f"FAIL cutoff: {exc}", file=sys.stderr)
        return 1
    config = _config_dict(args, {"seed": seed})
    dest, close = _open_out(args)
    try:
        sde_mod.write_json_report(rep, dest, config=config)
    finally:
        if close:
            dest.close()
    if args.expect_martingale:
        return 0 if rep["martingale"] else 1
    if args.expect_drift:
        return 0 if rep["drift_detected"] else 1
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
        with open(args.out + ".pgm", "w", encoding="utf-8") as fh:
            sde_mod.write_pgm(raster, fh, config=config)
        lines = [f"# {k}={v}" for k, v in sorted(config.items())]
        lines.append("t,re,im")
        dt = args.dt
        for i, p in enumerate(trace):
            lines.append(f"{float(i * dt)!r},{float(p.real)!r},"
                         f"{float(p.imag)!r}")
        with open(args.out + "_trace.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0
    # loewner
    if bounds is None:
        bounds = (-2.0, 2.0, 4.0 / args.grid, 2.0)
    xs = np.linspace(bounds[0], bounds[1], args.grid)
    ys = np.linspace(bounds[2], bounds[3], args.grid)
    z_grid = xs[None, :] + 1j * ys[:, None]
    res = sde_mod.loewner_flow(float(kappa), z_grid, args.T, args.dt, seed)
    raster = sde_mod.HullRaster(bounds=bounds, occupancy=res.swallowed,
                                horizon=args.T)
    with open(args.out + ".pgm", "w", encoding="utf-8") as fh:
        sde_mod.write_pgm(raster, fh, config=config)
    lines = [f"# {k}={v}" for k, v in sorted(config.items())]
    lines.append("re,im,swallowed_time,final_g_re,final_g_im")
    for iy in range(args.grid):
        for ix in range(args.grid):
            z = z_grid[iy, ix]
            t = res.swallowed_time[iy, ix]
            g = res.final_g[iy, ix]
            lines.append(",".join([
                repr(float(z.real)), repr(float(z.imag)),
                "" if np.isnan(t) else repr(float(t)),
                "" if np.isnan(g.real) else repr(float(g.real)),
                "" if np.isnan(g.imag) else repr(float(g.imag))]))
    with open(args.out + "_points.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
                   help="level cutoff as a rational, default 7/2")
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
    if args.command == "trace" and not args.out:
        print("error: trace requires --out", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
