import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st

from supersle.grassmann import (
    EVEN,
    EXACT,
    FLOAT,
    MIXED,
    ODD,
    GrassmannNumber,
    NotInvertible,
    format_grassmann,
    make_generator,
    parse_grassmann,
)

from exact_eval import inverse, soul


def gens(n=4, ring=EXACT):
    return [make_generator(i, n, ring) for i in range(n)]


def scalar(x, n=4, ring=EXACT):
    return GrassmannNumber.scalar(x, n, ring)


class TestBasics:
    def test_generator_definition(self):
        p0 = make_generator(0)
        assert p0.terms == {0b1: 1}
        assert p0.parity() == ODD

    def test_nilpotency(self):
        p0 = make_generator(0)
        assert (p0 * p0).is_zero()

    def test_single_generator_parity(self):
        assert make_generator(2).parity() == ODD

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_generator(3, n=2)
        with pytest.raises(ValueError):
            make_generator(16)

    def test_anticommutation(self):
        p0, p1, _, _ = gens()
        assert p1 * p0 == -(p0 * p1)

    def test_even_unit_pair(self):
        p0, p1, _, _ = gens()
        u = p0 * p1
        assert (scalar(1) + u) * (scalar(1) - u) == scalar(1)

    def test_even_element_central(self):
        p0, p1, p2, _ = gens()
        u = p0 * p1
        assert u * p2 == p2 * u

    def test_parity_cases(self):
        p0, p1, p2, _ = gens()
        assert (p0 + p0 * p1 * p2).parity() == ODD
        assert (scalar(1) + p0).parity() == MIXED
        assert (scalar(1) + p0 * p1).parity() == EVEN
        assert GrassmannNumber.zero(4).parity() == EVEN


class TestInverse:
    def test_scalar(self):
        assert inverse(scalar(2)) == scalar(sp.Rational(1, 2))

    def test_unit_plus_nilpotent(self):
        p0, p1, _, _ = gens()
        x = scalar(1) + p0 * p1
        assert inverse(x) == scalar(1) - p0 * p1
        assert x * inverse(x) == scalar(1)

    def test_zero_body(self):
        with pytest.raises(NotInvertible):
            inverse(make_generator(0))


# -- randomized algebra properties -------------------------------------------

coeffs = st.integers(-4, 4).map(sp.Integer) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4).map(sp.Rational)


@st.composite
def grassmann_numbers(draw, n=3, ring=EXACT, homogeneous=None):
    masks = list(range(1 << n))
    if homogeneous == EVEN:
        masks = [m for m in masks if m.bit_count() % 2 == 0]
    elif homogeneous == ODD:
        masks = [m for m in masks if m.bit_count() % 2 == 1]
    chosen = draw(st.lists(st.sampled_from(masks), max_size=4))
    terms = {}
    for m in chosen:
        terms[m] = terms.get(m, 0) + draw(coeffs)
    return GrassmannNumber(n, ring, terms)


@settings(deadline=None, max_examples=60)
@given(grassmann_numbers(), grassmann_numbers(), grassmann_numbers())
def test_associativity_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=60)
@given(
    grassmann_numbers(homogeneous=EVEN) | grassmann_numbers(homogeneous=ODD),
    grassmann_numbers(homogeneous=EVEN) | grassmann_numbers(homogeneous=ODD),
)
def test_graded_anticommutation(a, b):
    sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
    assert a * b == (b * a) * sign


@settings(deadline=None, max_examples=40)
@given(grassmann_numbers())
def test_soul_nilpotent(a):
    s = soul(a)
    power = GrassmannNumber.scalar(1, s.n, s.ring)
    for _ in range(s.n + 1):
        power = power * s
    assert power.is_zero()


@settings(deadline=None, max_examples=40)
@given(grassmann_numbers(), st.integers(-5, 5).filter(lambda k: k != 0))
def test_inverse_round_trip(a, k):
    x = soul(a) + k
    assert x * inverse(x) == GrassmannNumber.scalar(1, x.n)


def isclose(a, b, tol):
    """Every coefficient of the float Grassmann numbers a and b within tol."""
    return all(abs(a.coefficient(m) - b.coefficient(m)) <= tol
               for m in set(a.terms) | set(b.terms))


def test_float_associativity_tolerance():
    import random

    rnd = random.Random(7)
    for _ in range(30):
        xs = []
        for _k in range(3):
            terms = {m: complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
                     for m in rnd.sample(range(8), 4)}
            xs.append(GrassmannNumber(3, FLOAT, terms))
        a, b, c = xs
        assert isclose((a * b) * c, a * (b * c), tol=1e-12)


class TestSerialization:
    def test_spec_shape(self):
        p0, p1, _, _ = gens()
        x = scalar(sp.Rational(3, 2)) + (p0 * p1) * sp.I
        assert format_grassmann(x) == "3/2 + (0,1)*p0p1"

    @settings(deadline=None, max_examples=60)
    @given(grassmann_numbers(n=4))
    def test_round_trip_exact(self, x):
        s = format_grassmann(x)
        assert parse_grassmann(s, 4, EXACT) == x

    def test_round_trip_float(self):
        x = GrassmannNumber(3, FLOAT, {0: 0.1 + 0.2j, 0b101: -3.5e-7j})
        s = format_grassmann(x)
        y = parse_grassmann(s, 3, FLOAT)
        assert x.terms == y.terms

    def test_parse_float_gaussian_rational(self):
        # one grammar for both rings: the float ring reads a Gaussian
        # rational as the rounded exact value, and a literal keeps its bits
        text = "(3/10,7/10)*p0 + 1/3 + (-0.0,5e-324)*p1"
        x = parse_grassmann(text, 2, FLOAT)
        exact = parse_grassmann(text, 2, EXACT)
        assert x.terms == {m: complex(c) for m, c in exact.terms.items()} | {
            0b10: complex(-0.0, 5e-324)}
        assert x.terms[0b01] == complex(0.3, 0.7)
        assert repr(x.terms[0b10]) == "(-0+5e-324j)"
        y = GrassmannNumber(2, FLOAT, {0b01: complex(-0.0, -2.5e-320),
                                       0b11: complex(1e-310, -0.0)})
        back = parse_grassmann(format_grassmann(y), 2, FLOAT)
        assert list(map(repr, back.terms.values())) == list(map(
            repr, y.terms.values()))

    def test_round_trip_symbolic(self):
        t = sp.Symbol("t")
        x = GrassmannNumber(2, EXACT, {0b11: t * sp.sqrt(2)})
        assert parse_grassmann(format_grassmann(x), 2, EXACT) == x

    @pytest.mark.parametrize("text, value", [
        ("{1 + sqrt(2)}", 1 + sp.sqrt(2)),
        ("{2*sqrt(6)/3}", 2 * sp.sqrt(6) / 3),
    ])
    def test_brace_scalar(self, text, value):
        x = parse_grassmann(text, 0, EXACT)
        assert x == GrassmannNumber.scalar(value, 0)
        assert parse_grassmann(format_grassmann(x), 0, EXACT) == x

    def test_brace_separators_inside_braces(self):
        x = parse_grassmann("{1 + sqrt(2)*I}*p0p1 + {t**2/3}*p1", 2, EXACT)
        t = sp.Symbol("t")
        assert x == GrassmannNumber(2, EXACT, {0b11: 1 + sp.sqrt(2) * sp.I,
                                               0b10: t**2 / 3})

    @pytest.mark.parametrize("text", [
        "-x**2 + 2**-1*3 - (1 + I)/3",
        "2**3**2 - a - b - c",
        "+-0.5e-3*sqrt(t)/.25",
    ])
    def test_brace_grammar_matches_python_precedence(self, text):
        assert parse_grassmann("{" + text + "}", 0, EXACT) == \
            GrassmannNumber.scalar(sp.sympify(text), 0)

    @pytest.mark.parametrize("text", [
        "__import__('os').getcwd()", "x.real", "f(2)", "sqrt 2", "(1",
        "1)", "1 +", "", "[1]", "lambda: 1", "x;y", "(" * 2000 + "1",
    ])
    def test_brace_rejects_other_input(self, text):
        with pytest.raises(ValueError):
            parse_grassmann("{" + text + "}", 0, EXACT)


class TestConversion:
    def test_ring_mismatch(self):
        a = scalar(1, ring=EXACT)
        b = scalar(1, ring=FLOAT)
        with pytest.raises(ValueError):
            a * b

    def test_promotion_across_sizes(self):
        a = make_generator(0, 1)
        b = make_generator(2, 3)
        assert (a * b).n == 3
        assert (a * b).terms == {0b101: 1}
