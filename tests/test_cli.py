import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import supersle.sde as sde_mod
from supersle.cli import MAX_CUTOFF, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_kappa1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--kappa", "1")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["ns"] == {"c": "3/2", "delta": "1/2"}
        assert all(c["passed"] for c in data["report"]["checks"])

    def test_kappa4_virasoro_values(self, capsys):
        code, out, _ = run(capsys, "verify", "--kappa", "4")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["virasoro"] == {"c": "1", "delta": "1/4"}

    def test_kappa_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--kappa", "0")
        assert code == 2
        assert "kappa" in err

    def test_kappa_rational_string(self, capsys):
        code, out, _ = run(capsys, "verify", "--kappa", "8/3")
        assert code == 0


class TestSde:
    def test_first_row_matches_init(self, capsys):
        code, out, _ = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                           "--dt", "1e-3", "--T", "0.01", "--seed", "7")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["t"]) == 0.0
        assert float(first["z0_re"]) == 2.0

    def test_deterministic(self, capsys):
        a = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                "--dt", "1e-3", "--T", "0.01", "--seed", "7")
        b = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                "--dt", "1e-3", "--T", "0.01", "--seed", "7")
        assert a == b

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPER_SLE_SEED", "7")
        a = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                "--dt", "1e-3", "--T", "0.01")
        b = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                "--dt", "1e-3", "--T", "0.01", "--seed", "7")
        assert a[1].replace("# seed=7\n", "") == b[1].replace("# seed=7\n", "")

    def test_convergence_json(self, capsys):
        code, out, _ = run(capsys, "sde", "--spec", "32alt", "--kappa", "1",
                           "--T", "0.1", "--paths", "5", "--convergence",
                           "--convergence-dts", "1e-2", "1e-3",
                           "--seed", "3")
        assert code == 0
        data = json.loads(out)
        errs = data["report"]["mean_error"]
        assert errs[1] < errs[0]

    def test_malformed_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "my.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "sde", "--spec", f"file:{bad}",
                           "--kappa", "1", "--T", "0.01")
        assert code == 2
        assert "walk spec" in err

    def test_spec_file_round_trip(self, capsys, tmp_path):
        from supersle.grassmann import FLOAT
        from supersle.walk import spec_32

        f = tmp_path / "walk.json"
        f.write_text(json.dumps(spec_32(2.0, FLOAT).to_json()))
        code, out, _ = run(capsys, "sde", "--spec", f"file:{f}",
                           "--kappa", "2", "--T", "0.01", "--seed", "1")
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "path.csv"
        code, out, _ = run(capsys, "sde", "--spec", "virasoro", "--kappa",
                           "2", "--T", "0.01", "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().splitlines()[-1]

    def test_terminal_row_matches_closed_form(self, capsys):
        from supersle.grassmann import FLOAT, GrassmannNumber, make_generator
        from supersle.sde import BrownianPath, closed_form_32
        from supersle.superfield import SuperPoint

        code, out, _ = run(capsys, "sde", "--spec", "32", "--kappa", "2",
                           "--dt", "1e-3", "--T", "0.1", "--seed", "7")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        last = dict(zip(lines[0].split(","),
                        (float(v) for v in lines[-1].split(","))))
        init = SuperPoint(GrassmannNumber.scalar(2.0, 4, FLOAT),
                          make_generator(3, 4, FLOAT))
        ref = closed_form_32(init, BrownianPath.sample(1, 1e-3, 100, 7), 2)
        for coord, g in (("z", ref.z[-1]), ("theta", ref.theta[-1])):
            for mask in range(16):
                got = complex(last.get(f"{coord}{mask}_re", 0.0),
                              last.get(f"{coord}{mask}_im", 0.0))
                assert abs(got - complex(g.coefficient(mask))) < 1e-9

    @pytest.mark.parametrize("n", [7, 8])
    def test_walk_file_beyond_six_generators(self, capsys, tmp_path, n):
        f = tmp_path / "walk.json"
        f.write_text(json.dumps({
            "n": n, "b": 1, "alpha0": {"-1": {"y": "1"}},
            "beta": [{"-1": {"y": "1", "eta": f"1*p0 + 1*p{n - 1}"}}]}))
        code, out, _ = run(capsys, "sde", "--spec", f"file:{f}",
                           "--kappa", "1", "--T", "0.01", "--seed", "1")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 11
        assert all(math.isfinite(float(v)) for r in rows for v in r)


@pytest.mark.parametrize("argv", [
    ["sde", "--T", "nan"],
    ["sde", "--dt", "inf"],
    ["sde", "--z0", "nan"],
    ["trace", "--bounds", "1,0,1,0"],
    ["trace", "--bounds", "0,1,x,2"],
    ["sde", "--spec", "32", "--convergence", "--paths", "0", "--T", "0.1"],
    ["sde", "--spec", "32", "--convergence", "--paths", "-3", "--T", "0.1"],
    ["sde", "--spec", "32alt", "--z0", "0", "--convergence", "--T", "0.1",
     "--paths", "5"],
    ["sde", "--spec", "32", "--z0", "0", "--convergence", "--T", "0.1",
     "--paths", "5"],
    *(["sde", "--spec", "32", "--convergence", "--T", "0.1", "--paths", "5",
       "--convergence-dts", d] for d in ("0.03", "0", "nan", "-0.01")),
    ["sde", "--spec", "32", "--convergence", "--T", "0.12", "--paths", "2",
     "--convergence-dts", "0.04", "0.03"],
    ["sde", "--spec", "32", "--convergence", "--T", "0.02", "--paths", "2",
     "--convergence-dts", "0.01"],
    ["sde", "--T", "0.01", "--seed", "-1"],
    *(["martingale", "--T", "0.01", "--dt", "1e-2", "--paths", "2",
       "--cutoff", c] for c in ("abc", "1/3", "-1")),
    *(["martingale", "--T", "0.01", "--dt", "1e-2", "--paths", "2",
       "--delta-shift", d] for d in ("x+", "x")),
    ["martingale", "--T", "0", "--paths", "2"],
    ["trace", "--T", "0"],
    ["martingale", "--T", "0.02", "--paths", "1"],
    *(["trace", "--mode", "loewner", "--T", "0.02", "--grid", g]
      for g in ("1", "2")),
])
def test_non_finite_or_inverted_input_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--kappa", "1",
                         "--out", str(tmp_path / "x"))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, walk, argv, expected", [
    ("sde", "[1, 2]", ["--T", "0.01"], 2),
    ("martingale", {"n": 4, "b": 1, "beta": [{"-1": {"y": "{x}*p0p1"}}]},
     ["--T", "0.01", "--dt", "1e-2", "--paths", "2"], 2),
    ("martingale", {"n": 4, "b": 1, "beta": [{"-1": {"y": "{nan}*p0p1"}}]},
     ["--T", "0.01", "--dt", "1e-2", "--paths", "2"], 2),
    # the Euler path overflows: a check failure, and no CSV of NaN rows
    ("sde", {"n": 1, "b": 1, "alpha0": {"3": {"y": "1"}},
             "beta": [{"1": {"y": "1"}}]}, ["--z0", "-3", "--T", "1"], 1),
    # brace coefficients are parsed, never evaluated as Python
    *((command, {"n": 4, "b": 1, "beta": [{"-1": {
        "y": "{__import__('os').system('touch marker')}*p0p1"}}]},
       ["--T", "0.01", "--dt", "1e-2", "--paths", "2"], 2)
      for command in ("sde", "martingale")),
    # the operator evolution overflows: no JSON of NaN and inf statistics
    ("martingale", {"n": 4, "b": 1,
                    "alpha0": {"-2": {"eta": "-1e200*p0p1p2"}},
                    "beta": [{"-1": {"y": "1e200*p0p1", "eta": "1e200*p2"}}]},
     ["--paths", "10", "--T", "0.01"], 1),
])
def test_bad_walk_file_exit_code(capsys, tmp_path, monkeypatch, command,
                                 walk, argv, expected):
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "walk.json"
    spec.write_text(walk if isinstance(walk, str) else json.dumps(walk))
    dest = tmp_path / "x"
    code, out, err = run(capsys, command, "--spec", f"file:{spec}",
                         "--kappa", "1", *argv, "--out", str(dest))
    assert code == expected
    assert out == "" and len(err.strip().splitlines()) == 1
    assert not dest.exists()
    assert not (tmp_path / "marker").exists()


@st.composite
def cli_argv(draw):
    """argv that argparse accepts, with every run kept tiny: finite
    positive values satisfy T <= 0.02, dt >= 1e-3, paths <= 5, grid <= 8.

    Each flag takes a junk value about one time in six, so most examples
    get past the input checks into the numerics."""
    def pick(valid, junk=()):
        junky = junk and draw(st.integers(0, 5)) == 0
        return draw(st.sampled_from(junk if junky else valid))

    steps = (["0.001", "0.005", "0.01"], ["0", "-0.001", "nan", "inf"])
    rationals = (["0", "1/2", "7/2", "1", "3/2"],
                 ["1/3", "-1", "abc", "1/0", "nan", "x+", ""])
    command = pick(["verify", "sde", "martingale", "trace"])
    argv = [command, "--kappa", pick(["1", "2", "8/3", "1/2"],
                                     ["0", "-1", "abc", "1/0", "nan", "inf"])]
    if draw(st.booleans()):
        argv += ["--seed", pick(["0", "7"], ["-1"])]
    if command != "verify":
        argv += ["--T", pick(["0.01", "0.02"], ["0", "-1", "nan", "inf"]),
                 "--dt", pick(*steps)]
    if command in ("sde", "martingale"):
        argv += ["--spec", pick(["32", "32alt", "virasoro"], ["nope"]),
                 "--paths", pick(["1", "5"], ["-1", "0"])]
    if command == "sde":
        argv += ["--z0", pick(["2", "-1", "0.5"], ["0", "nan", "inf"])]
        if draw(st.booleans()):
            argv += ["--convergence", "--convergence-dts",
                     *(pick(*steps) for _ in range(draw(st.integers(1, 3))))]
    if command == "martingale":
        for flag in ("--cutoff", "--delta-shift"):
            if draw(st.booleans()):
                argv += [flag, pick(*rationals)]
        argv += pick([[], ["--expect-martingale"], ["--expect-drift"]])
    if command == "trace":
        argv += ["--mode", pick(["supertrace", "loewner"]),
                 "--grid", pick(["1", "8"], ["-1", "0"])]
        if draw(st.booleans()):
            argv.append("--bounds=" + pick(["-1,1,0.1,1"], ["1,0,1,0",
                                                            "0,1,x,2",
                                                            "nan,1,0,1"]))
    return argv, draw(st.booleans()) or command == "trace"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cli_argv())
def test_fuzzed_argv_exit_contract(case):
    argv, to_file = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if to_file:
            argv = argv + ["--out", os.path.join(tmp, "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(stderr.getvalue().strip().splitlines()) == 1


class TestMartingale:
    def test_matched_expectation(self, capsys):
        code, out, _ = run(capsys, "martingale", "--spec", "32", "--kappa",
                           "2", "--paths", "300", "--T", "0.1", "--dt",
                           "1e-2", "--seed", "3", "--expect-martingale")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["martingale"]

    def test_detuned_expectation(self, capsys):
        code, out, _ = run(capsys, "martingale", "--spec", "32", "--kappa",
                           "2", "--paths", "300", "--T", "0.1", "--dt",
                           "1e-2", "--seed", "3", "--delta-shift", "1/2",
                           "--expect-drift")
        assert code == 0

    def test_expectation_failure_exit_1(self, capsys):
        # a matched walk must not report drift
        code, _, err = run(capsys, "martingale", "--spec", "32", "--kappa",
                           "2", "--paths", "300", "--T", "0.1", "--dt",
                           "1e-2", "--seed", "3", "--expect-drift")
        assert code == 1
        assert err.startswith("FAIL") and "max_z=" in err
        assert len(err.strip().splitlines()) == 1

    def test_noiseless_drift_has_infinite_z(self, capsys, tmp_path):
        # every path drifts alike: zero standard error, finite statistics
        spec = tmp_path / "walk.json"
        spec.write_text(json.dumps({"n": 4, "b": 1, "beta": [{}], "alpha0": {
            "-2": {"eta": "1*p0p1p2"}}}))
        code, out, err = run(capsys, "martingale", "--spec", f"file:{spec}",
                             "--kappa", "2", "--paths", "5", "--T", "0.01",
                             "--expect-drift")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["max_z"] == math.inf

    def test_paths_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "martingale", "--kappa", "2",
                           "--paths", "0")
        assert code == 2

    def test_cutoff_too_small(self, capsys):
        code, _, err = run(capsys, "martingale", "--kappa", "2", "--paths",
                           "1", "--T", "0.01", "--dt", "1e-2",
                           "--cutoff", "1")
        assert code == 1
        assert "cutoff" in err

    @pytest.mark.parametrize("cutoff", ["0", "1/2", "1"])
    def test_cutoff_below_chi(self, capsys, tmp_path, cutoff):
        # no descendant of chi fits: the projector is the identity
        spec = tmp_path / "walk.json"
        spec.write_text(json.dumps({"n": 0, "b": 1, "alpha0": {},
                                    "beta": [{"0": {"y": "1"}}]}))
        code, out, err = run(capsys, "martingale", "--spec", f"file:{spec}",
                             "--kappa", "2", "--cutoff", cutoff,
                             "--paths", "4", "--T", "0.01")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["basis_size"] == 2 * Fraction(cutoff) + 1

    @pytest.mark.parametrize("cutoff", ["1e400", str(MAX_CUTOFF + Fraction(1, 2))])
    def test_cutoff_above_maximum_refused_first(self, capsys, monkeypatch,
                                                cutoff):
        # refused before the walk check and any PBW enumeration
        def fail(*args, **kwargs):
            raise AssertionError("cutoff reached the algebra")

        monkeypatch.setattr(sde_mod, "walk_elements", fail)
        monkeypatch.setattr(sde_mod, "pbw_words", fail)
        code, out, err = run(capsys, "martingale", "--spec", "32", "--kappa",
                             "2", "--paths", "4", "--T", "0.01",
                             "--cutoff", cutoff)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--cutoff" in err

    def test_cutoff_at_maximum_accepted(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(sde_mod, "mc_martingale", reached)
        with pytest.raises(Reached):
            main(["martingale", "--spec", "32", "--kappa", "2", "--paths",
                  "4", "--T", "0.01", "--cutoff", str(MAX_CUTOFF)])

    def test_paths_one_refused_before_stepping(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("mc_martingale called")

        monkeypatch.setattr(sde_mod, "mc_martingale", fail)
        code, out, err = run(capsys, "martingale", "--kappa", "2",
                             "--paths", "1", "--T", "100")
        assert code == 2
        assert out == "" and "--paths >= 2" in err


class TestTrace:
    def test_supertrace_files(self, capsys, tmp_path):
        out = tmp_path / "hull"
        code, _, _ = run(capsys, "trace", "--mode", "supertrace", "--kappa",
                         "2", "--T", "0.1", "--dt", "1e-3", "--seed", "1",
                         "--grid", "32", "--out", str(out))
        assert code == 0
        pgm = (tmp_path / "hull.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        trace = (tmp_path / "hull_trace.csv").read_text()
        rows = [l for l in trace.splitlines() if not l.startswith("#")]
        assert rows[1].startswith("0.0,0.0,0.0")
        assert "# seed=1" in trace

    def test_loewner_deterministic_hull(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run(capsys, "trace", "--mode", "loewner",
                             "--kappa", "0", "--T", "0.25", "--dt", "1e-3",
                             "--seed", "5", "--grid", "16",
                             "--out", str(tmp_path / name))
            assert code == 0
        a = (tmp_path / "a.pgm").read_text()
        b = (tmp_path / "b.pgm").read_text()
        assert a == b

    def test_grid_zero_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "trace", "--kappa", "1", "--grid", "0",
                           "--out", str(tmp_path / "x"))
        assert code == 2

    def test_unallocatable_grid_exit_2(self, capsys, tmp_path):
        # numpy refuses the 90.9 TiB raster outright, before any work
        code, _, err = run(capsys, "trace", "--kappa", "2", "--T", "0.01",
                           "--grid", "10000000", "--out", str(tmp_path / "h"))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, "trace", "--kappa", "1")
        assert code == 2


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_kappa(self, capsys):
        assert main(["verify"]) == 2


def python_stdout(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this src."""
    src = os.path.dirname(os.path.dirname(sde_mod.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip()


def test_import_loads_no_scipy():
    # the package needs numpy and sympy only; keep scipy out of its imports
    assert python_stdout(
        "import sys, supersle, supersle.cli; print(sorted(m for m in "
        "sys.modules if m == 'scipy' or m.startswith('scipy.')))") == "[]"


# the package's exports by defining module, in the order of __all__
EXPORTS = {
    "grassmann": "EXACT FLOAT CoefficientRing GrassmannNumber NotInvertible "
                 "make_generator",
    "superfield": "LaurentSuperfunction ParityError SuperPoint "
                  "is_superconformal",
    "ns_algebra": "AlgebraElement CutoffOverflow G L Mode ModuleParams "
                  "VermaModule VermaVector bracket is_singular "
                  "is_singular_level2 params_from_kappa_ns "
                  "params_from_kappa_virasoro pbw_words quotient_projection "
                  "singular_condition_residual singular_vector_32 "
                  "singularity_report virasoro_level2_vector",
    "walk": "SdeSystem WalkSpec diffusion_from_spec drift_from_spec "
            "drift_generator drift_vector martingale_drift match_singular "
            "reduced_drift_vector sde_system spec_32 spec_32alt spec_virasoro "
            "standard_spec",
    "sde": "BrownianPath DenominatorVanishes HullRaster LoewnerResult "
           "SuperPath SwallowedPoint closed_form_32 closed_form_32_map "
           "closed_form_32alt closed_form_32alt_map conservation_check_32 "
           "convergence_32 convergence_32alt euler_maruyama loewner_flow "
           "mc_martingale pathwise_convergence supertrace_hull "
           "write_json_report write_pgm write_superpath_csv",
}


def test_import_is_lazy():
    loaded = python_stdout(
        "import sys, supersle; print(sorted(m for m in sys.modules if "
        "m.startswith('supersle.') or m.split('.')[0] == 'sympy'))")
    assert loaded == "[]"


def test_exports_resolve_to_defining_modules():
    import importlib

    import supersle

    pairs = [(name, module) for module, names in EXPORTS.items()
             for name in names.split()]
    assert supersle.__all__ == [name for name, _ in pairs]
    assert len(pairs) == 64
    for name, module in pairs:
        defined = getattr(importlib.import_module(f"supersle.{module}"), name)
        assert getattr(supersle, name) is defined, name
    star = {}
    exec("from supersle import *", star)
    assert all(star[name] is getattr(supersle, name) for name, _ in pairs)
    assert set(supersle.__all__) <= set(dir(supersle))
    with pytest.raises(AttributeError):
        supersle.no_such_name
