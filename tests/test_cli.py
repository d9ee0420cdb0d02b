import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
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

    def test_failed_check_exit_1(self, capsys, monkeypatch):
        import supersle.cli as cli

        monkeypatch.setattr(cli, "singular_condition_residual", lambda p: 1)
        code, out, err = run(capsys, "verify", "--kappa", "1")
        assert code == 1
        assert err == "FAIL ns-singular-condition\n"
        checks = json.loads(out)["report"]["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == [
            "ns-singular-condition"]


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

    def test_env_seed_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPER_SLE_SEED", "abc")
        code, out, err = run(capsys, "sde", "--spec", "32", "--kappa", "1",
                             "--dt", "1e-3", "--T", "0.01")
        assert code == 2 and out == ""
        assert err == "error: SUPER_SLE_SEED='abc' is not an integer\n"

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
        from supersle.cli import _load_spec
        from supersle.grassmann import FLOAT
        from supersle.walk import spec_32

        # spec 32 at kappa = 2: y = sqrt(2) p0p1, eta = sqrt(2) p2
        f = tmp_path / "walk.json"
        f.write_text('{"n": 4, "b": 1, "alpha0": {"-2": {"eta": "-1*p0p1p2"}},'
                     ' "beta": [{"-1": {"y": "1.4142135623730951*p0p1",'
                     ' "eta": "1.4142135623730951*p2"}}]}')
        code, out, _ = run(capsys, "sde", "--spec", f"file:{f}",
                           "--kappa", "2", "--T", "0.01", "--seed", "1")
        assert code == 0
        spec, want = _load_spec(f"file:{f}", 2, FLOAT), spec_32(2.0, FLOAT)
        assert (spec.alpha0, spec.beta) == (want.alpha0, want.beta)

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
    # the = form, since -inf starts with a dash
    *(["trace", f"--bounds={b}"] for b in ("nan,1,0,1", "-inf,1,0,1")),
    # a starting body inside the swallowing ball: an empty run, no CSV
    ["sde", "--spec", "32", "--z0", "0", "--T", "0.1"],
    ["sde", "--spec", "32alt", "--z0", "1e-7", "--T", "0.1"],
    ["sde", "--spec", "virasoro", "--z0", "0", "--T", "0.1"],
    # a raster of 2^62 or more samples, or a --bounds span beyond the float
    # range
    *(["trace", "--mode", "supertrace", "--T", "0.01", f"--bounds={b}"]
      for b in ("0,1e-18,0,1", "0,1e-300,0,1", "-1e308,1e308,0,1")),
    ["trace", "--mode", "loewner", "--T", "0.01", "--grid", "4",
     "--bounds=-1e308,1e308,0,1"],
])
def test_non_finite_or_inverted_input_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--kappa", "1",
                         "--out", str(tmp_path / "x"))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, expected", [
    (["sde", "--T", "0.01"], 2),
    (["sde", "--T", "0.01", "--convergence", "--paths", "2"], 2),
    (["trace", "--mode", "supertrace", "--T", "0.01"], 2),
    (["trace", "--mode", "loewner", "--T", "0.01"], 2),
    # the exact ring takes any rational kappa
    (["verify"], 0),
    (["martingale", "--T", "0.01", "--paths", "4"], 1),
])
def test_kappa_beyond_float_range(capsys, tmp_path, argv, expected):
    dest = tmp_path / "x"
    code, out, err = run(capsys, *argv, "--kappa", "1e400",
                         "--out", str(dest))
    assert code == expected
    if code:
        assert out == "" and len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())
    if code == 2:
        assert err == "error: kappa is beyond the float range\n"


class TableBuilt(Exception):
    pass


@pytest.mark.parametrize("command, argv", [
    ("sde", ["--T", "0.01"]),
    ("martingale", ["--T", "0.01", "--paths", "2"]),
])
@pytest.mark.parametrize("n", [12, 16])
def test_walk_file_generator_bound(capsys, tmp_path, monkeypatch, command,
                                   argv, n):
    """A file spec above MAX_SPEC_GENERATORS = 12 exits 2 before any
    pair table is built; one at the bound goes on to build one."""
    from supersle import kernel

    def fail(n, lsup, rsup):
        raise TableBuilt(n)

    monkeypatch.setattr(kernel, "_live_table", fail)
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"n": n, "b": 1, "beta": [
        {"-1": {"y": "1", "eta": f"1*p{n - 1}"}}]}))
    argv = [command, "--spec", f"file:{spec}", "--kappa", "1", *argv]
    if n <= 12:
        with pytest.raises(TableBuilt):
            main(argv)
        return
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: cannot load walk spec from '{spec}': {n} "
                   f"generators, at most 12 allowed\n")


@pytest.mark.parametrize("key", [64, -64, 65, -1000000])
def test_sde_walk_key_bound(capsys, tmp_path, key):
    """sde takes walk-file keys up to |key| <= MAX_SDE_KEY = 64 and refuses
    a larger one with a line that names it; martingale takes any key."""
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"n": 1, "b": 1, "beta": [
        {str(key): {"y": "1"}}]}))
    code, out, err = run(capsys, "sde", "--spec", f"file:{spec}", "--kappa",
                         "1", "--z0", "0.5", "--T", "0.01")
    if abs(key) <= 64:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err == (f"error: walk spec key {key} is beyond the sde bound "
                       f"|key| <= 64\n")
    code, _out, err = run(capsys, "martingale", "--spec", f"file:{spec}",
                          "--kappa", "1", "--T", "0.01", "--paths", "2")
    assert code in (0, 1) and "key" not in err


# brace powers whose exact value would reach 10^10000: building one takes
# seconds (10**10**7) or does not finish (10**10**8)
BIG_BRACE_POWERS = ("{10**10**7}", "{10**10**8}", "{sqrt(2)**10**9}")


@pytest.mark.parametrize("command", ["sde", "martingale"])
@pytest.mark.parametrize("y", BIG_BRACE_POWERS)
def test_brace_power_bound(capsys, tmp_path, command, y):
    """A brace power with |exp| |log10 |base|| >= 10^4 exits 2 in process
    within 0.1 s, with one line that names the brace."""
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"n": 4, "b": 1, "alpha0": {"-1": {"y": y}},
                                "beta": [{"-1": {"y": "1"}}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--spec", f"file:{spec}",
                         "--kappa", "1", "--T", "0.01", "--paths", "2")
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == (f"error: cannot load walk spec from '{spec}': power "
                   f"reaching 10^+-10000 in {y}\n")


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
    # a coefficient beyond the float range of the sde ring
    ("sde", {"n": 4, "b": 1, "beta": [{"-1": {"y": "1e400"}}]},
     ["--T", "0.01"], 2),
    # a zero denominator, in both rings and in a real or complex pair
    *((command, {"n": 4, "b": 1, "beta": [{"-1": {"y": y}}]},
       ["--T", "0.01", "--paths", "2"], 2)
      for command in ("sde", "martingale") for y in ("1/0", "(1/0,0)")),
    # a decimal exponent beyond +-9999, refused before 10^exp is built
    *((command, {"n": 4, "b": 1, "beta": [{"-1": {"y": y}}]},
       ["--T", "0.01", "--paths", "2"], 2)
      for command in ("sde", "martingale")
      for y in ("1e99999999", "(1,1e-99999999)")),
    # an sde z power key beyond |key| <= 64 (cli.MAX_SDE_KEY), refused
    # before the step program builds one register per power
    *(("sde", {"n": 1, "b": 1, "alpha0": {key: {"y": "1"}},
               "beta": [{"-1": {"y": "1"}}]}, ["--T", "0.01"], 2)
      for key in ("65", "-3000", "1000000")),
    # a brace power reaching 10^+-10000, refused before it is built
    *((command, {"n": 4, "b": 1, "alpha0": {"-1": {"y": y}},
                 "beta": [{"-1": {"y": "1"}}]},
       ["--T", "0.01", "--paths", "2"], 2)
      for command in ("sde", "martingale") for y in BIG_BRACE_POWERS),
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


# walk-file coefficient tokens by the grammar of grassmann.parse_grassmann
WALK_COEFFS = ("1", "-2", "3", "0.5", "-0.0", "5e-324", "1e300", "3/7",
               "-1/2", "(1/2,1/3)", "(0.5,-2)", "{sqrt(2)}", "{I}", "{2**60}")
# and junk values, one of which goes into a share of the files
WALK_JUNK = {"n": (-1, 13, 40), "b": (0, 3),
             "key": ("65", "-3000", "1000000"),
             "coeff": ("1/0", "1e99999999", "{10**10**7}", "abc", "(1,", "")}


@st.composite
def walk_file(draw):
    """A command and a walk file: n of 0-6 generators, b = len(beta), keys
    -3..3, y on even and eta on odd monomials; about one file in four then
    takes one junk n, b, key or coefficient."""
    junk = draw(st.sampled_from([None] * 12 + list(WALK_JUNK)))
    n = draw(st.integers(0, 6))

    def value(odd):
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            mask = draw(st.integers(0, 2 ** n - 1))
            if mask.bit_count() % 2 != odd:
                mask ^= 1
            mono = "".join(f"p{i}" for i in range(n) if mask >> i & 1)
            coeff = draw(st.sampled_from(WALK_COEFFS))
            terms.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(terms)

    def table(least):
        out = {}
        for _ in range(draw(st.integers(least, 2))):
            entry = {}
            if draw(st.booleans()):
                entry["y"] = value(0)
            if n and draw(st.booleans()):  # no odd monomial without generators
                entry["eta"] = value(1)
            out[str(draw(st.integers(-3, 3)))] = entry
        return out

    walk = {"n": n, "b": draw(st.integers(1, 2)), "alpha0": table(0)}
    walk["beta"] = [table(1) for _ in range(walk["b"])]
    if junk:
        bad = draw(st.sampled_from(WALK_JUNK[junk]))
        if junk == "key":
            walk["beta"][0][bad] = {"y": "1"}
        elif junk == "coeff":
            walk["alpha0"]["-2"] = {"y": bad}
        else:
            walk[junk] = bad
    return draw(st.sampled_from(["sde", "martingale"])), walk


def _check_finite_output(command, out):
    if command == "sde":
        rows = [line.split(",") for line in out.splitlines()
                if not line.startswith("#")][1:]
        assert rows and all(cell and math.isfinite(float(cell))
                            for row in rows for cell in row)
    else:
        for entry in json.loads(out)["report"]["entries"]:
            assert all(math.isfinite(entry[k]) for k in (
                "terminal_re", "terminal_im", "drift_re", "drift_im",
                "se_re", "se_im"))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(walk_file())
def test_fuzzed_walk_file_exit_contract(case):
    """Any walk file exits 0, 1 or 2 within 2 s; a non-zero exit prints one
    stderr line, and exit 0 comes only with finite output."""
    command, walk = case
    argv = {"sde": ["--T", "0.01"],
            "martingale": ["--T", "0.01", "--paths", "4", "--dt", "1e-3",
                           "--cutoff", "4"]}[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "walk.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(walk, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([command, "--spec", f"file:{spec}", "--kappa", "2",
                         *argv])
        assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    if code:
        assert len(stderr.getvalue().strip().splitlines()) == 1
    else:
        _check_finite_output(command, stdout.getvalue())


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

    @pytest.mark.parametrize("argv", [
        ("sde", "--spec", "32", "--kappa", "2", "--T", "1e-10"),
        ("martingale", "--spec", "32", "--kappa", "2", "--T", "1e-10",
         "--paths", "5", "--expect-martingale"),
        ("trace", "--mode", "loewner", "--kappa", "2", "--T", "1e-10"),
        ("sde", "--spec", "32", "--kappa", "2", "--T", "1.5e-9",
         "--dt", "1e-9"),
    ], ids=["sde", "martingale", "loewner", "one-and-a-half-steps"])
    def test_horizon_of_no_whole_steps_exit_2(self, capsys, tmp_path, argv):
        # a T far below dt rounds to zero steps, an empty run, and 1.5e-9
        # is one and a half steps of 1e-9: the tolerance is relative to T
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("sde", "--spec", "32", "--T", "1e300", "--dt", "1e-300"),
        ("martingale", "--spec", "32", "--T", "1e300", "--dt", "1e-300",
         "--paths", "5"),
        ("trace", "--T", "1e300", "--dt", "1e-300"),
        ("sde", "--spec", "32", "--T", "2e18", "--dt", "1"),
        ("sde", "--spec", "32", "--T", "1e20", "--dt", "1"),
        ("trace", "--T", "2e18", "--dt", "1"),
        ("trace", "--T", "1e20", "--dt", "1"),
    ], ids=["sde-inf", "martingale-inf", "trace-inf", "sde-2e18",
            "sde-1e20", "trace-2e18", "trace-1e20"])
    def test_step_count_beyond_range_exit_2(self, capsys, tmp_path, argv):
        # T/dt = 1e600 is no float; 2e18 and 1e20 steps of one float64
        # increment are more bytes than an address can reach
        code, out, err = run(capsys, *argv, "--kappa", "2",
                             "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_horizon_of_four_tiny_steps_runs(self, capsys):
        code, out, _ = run(capsys, "sde", "--spec", "32", "--kappa", "2",
                           "--T", "4e-10", "--dt", "1e-10", "--seed", "1")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 5  # the header, then t = 0 to 4 dt


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


def test_import_loads_no_numpy_random():
    # numpy.random costs about 6 MiB; verify never draws, so only the
    # commands that do should load it
    assert python_stdout(
        "import sys, supersle, supersle.cli; "
        "print('numpy.random' in sys.modules)") == "False"


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
