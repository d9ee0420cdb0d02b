"""Finite-dimensional Grassmann algebra arithmetic.

Elements are sparse linear combinations of monomials in anticommuting
generators p0, ..., p{N-1}.  Monomials are encoded as bitmasks over the
generator indices, kept in canonical (increasing-index) order; the sign of a
product is the parity of the transpositions needed to merge the two index
sequences.

Two coefficient rings are supported:

* ``EXACT`` -- sympy expressions.  Gaussian rationals are the common case,
  but square roots of rationals and free symbols (formal time, driving
  values) are handled exactly as well.  Zero tests are exact.
* ``FLOAT`` -- complex float64, for Monte-Carlo work.  Zero tests are
  exact comparisons with 0.
"""
from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import sympy as sp

MAX_GENERATORS = 16

EVEN = "even"
ODD = "odd"
MIXED = "mixed"


class NotInvertible(ArithmeticError):
    """Raised when inverting an element whose body vanishes."""


@dataclass(frozen=True)
class CoefficientRing:
    """Scalar ring of the algebra: exact (sympy) or complex float64."""

    kind: str          # "exact" | "float"

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown ring kind {self.kind!r}")

    def coerce(self, x):
        if self.kind == "exact":
            return sp.expand(sp.sympify(x))
        return complex(x)


EXACT = CoefficientRing("exact")
FLOAT = CoefficientRing("float")


def _merge_sign(m1: int, m2: int) -> int:
    """Koszul sign of psi_S * psi_T for disjoint masks, sorting S++T."""
    sign = 1
    t = m2
    while t:
        low = t & -t
        t ^= low
        higher = m1 & ~((low << 1) - 1)
        if higher.bit_count() & 1:
            sign = -sign
    return sign


class GrassmannNumber:
    """Immutable element of the Grassmann algebra on ``n`` generators."""

    __slots__ = ("n", "ring", "terms")

    def __init__(self, n: int, ring: CoefficientRing, terms=None):
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"number of generators must be in [0, {MAX_GENERATORS}]")
        clean = {}
        for mask, coeff in (terms or {}).items():
            if mask >> n:
                raise ValueError(f"monomial mask {mask:#b} uses generators >= {n}")
            c = ring.coerce(coeff)
            if c != 0:
                clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannNumber is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def scalar(cls, value, n: int = 0, ring: CoefficientRing = EXACT):
        return cls(n, ring, {0: value})

    @classmethod
    def zero(cls, n: int = 0, ring: CoefficientRing = EXACT):
        return cls(n, ring, {})

    # -- ring compatibility ----------------------------------------------

    def _join(self, other: "GrassmannNumber"):
        if self.ring.kind != other.ring.kind:
            raise ValueError("mixed coefficient rings (exact vs float)")
        return max(self.n, other.n), self.ring

    def _as_grassmann(self, x):
        """x as a GrassmannNumber, or NotImplemented if x is not a scalar."""
        if isinstance(x, GrassmannNumber):
            return x
        try:
            return GrassmannNumber(self.n, self.ring, {0: x})
        except (TypeError, sp.SympifyError):
            return NotImplemented

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        other = self._as_grassmann(other)
        if other is NotImplemented:
            return other
        n, ring = self._join(other)
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            terms[mask] = terms.get(mask, 0) + c
        return GrassmannNumber(n, ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannNumber(self.n, self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._as_grassmann(other)
        return other if other is NotImplemented else self + (-other)

    # -- multiplication ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, GrassmannNumber):
            n, ring = self._join(other)
            terms = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    if m1 & m2:
                        continue
                    tgt = m1 ^ m2
                    terms[tgt] = terms.get(tgt, 0) + _merge_sign(m1, m2) * c1 * c2
            return GrassmannNumber(n, ring, terms)
        try:
            c = self.ring.coerce(other)
        except (TypeError, sp.SympifyError):
            return NotImplemented
        return GrassmannNumber(self.n, self.ring, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything, so left scalar mult == right
        return self.__mul__(other)

    def __truediv__(self, other):
        return self * (sp.S.One / sp.sympify(other))

    # -- structure --------------------------------------------------------

    def body(self):
        """Coefficient of the empty monomial."""
        return self.coefficient(0)

    def parity(self) -> str:
        has_even = any(m.bit_count() % 2 == 0 for m in self.terms)
        has_odd = any(m.bit_count() % 2 == 1 for m in self.terms)
        if has_even and has_odd:
            return MIXED
        if has_odd:
            return ODD
        return EVEN  # zero counts as even

    def grade_involution(self) -> "GrassmannNumber":
        """Flip the sign of the odd part (x -> (-1)^{|x|} x gradewise)."""
        return GrassmannNumber(
            self.n, self.ring,
            {m: (-c if m.bit_count() % 2 else c) for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int):
        return self.terms[mask] if mask in self.terms else self.ring.coerce(0)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        other = self._as_grassmann(other)
        if other is NotImplemented:
            return other
        if self.ring.kind != other.ring.kind:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        for m, c in self.terms.items():
            if self.ring.kind == "exact":
                if sp.expand(c - other.terms[m]) != 0:
                    return False
            elif c != other.terms[m]:
                return False
        return True

    def __hash__(self):
        return hash((self.n, self.ring.kind, frozenset(self.terms.items())))

    def __repr__(self):
        return f"GrassmannNumber({format_grassmann(self)!r})"

    def __str__(self):
        return format_grassmann(self)


def make_generator(index: int, n: int | None = None,
                   ring: CoefficientRing = EXACT) -> GrassmannNumber:
    """The generator psi_index; odd, squares to zero."""
    if index < 0 or index >= MAX_GENERATORS:
        raise ValueError(f"generator index {index} out of range")
    if n is None:
        n = index + 1
    if index >= n:
        raise ValueError(f"generator index {index} out of range for n={n}")
    return GrassmannNumber(n, ring, {1 << index: 1})


# -- textual serialization ----------------------------------------------------
#
# "3/2 + (0,1)*p0p1": coefficients are rationals, Gaussian rationals "(a,b)",
# or (escape hatch) exact expressions in braces; monomials are concatenated
# generator names.  One grammar and a bit-exact round trip for both rings.
# Brace content is never evaluated as code: its syntax tree is walked, and
# only numbers, "I", symbol names, sqrt(...), + - * / **, unary signs and
# parentheses are accepted, with Python's precedence.  Integers stay exact,
# decimals become sympy Floats of the written digits, and other names free
# symbols.  A power of finite numbers is refused before it is built when
# |exp| |log10 |base|| >= 10^4.  " + " and "*" are only split outside braces.

_MONO_RE = re.compile(r"^(p\d+)+$")
_BRACE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.USub: operator.neg,
              ast.UAdd: operator.pos}


def _format_coeff(c, ring: CoefficientRing) -> str:
    if ring.kind == "float":
        return f"({c.real!r},{c.imag!r})"
    c = sp.sympify(c)
    if c.is_Rational:
        return str(c)
    if not c.free_symbols:
        re_, im_ = c.as_real_imag()
        if re_.is_Rational and im_.is_Rational:
            return f"({re_},{im_})"
    return "{" + str(c) + "}"


def _parse_brace(text: str):
    """Sympy value of a brace coefficient, by the grammar above."""
    def value(node):
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and \
                type(node.op) in _BRACE_OPS:
            args = [*map(value, [node.left, node.right] if isinstance(
                node, ast.BinOp) else [node.operand])]
            if type(node.op) is ast.Pow and all(a.is_finite for a in args):
                b, e = (sp.N(abs(a)) for a in args)
                if b and e * abs(sp.log(b, 10)) >= 10000:
                    raise ValueError(f"power reaching 10^+-10000 in {{{text}}}")
            return _BRACE_OPS[type(node.op)](*args)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if type(node.value) is int:
                return sp.Integer(node.value)
            return sp.Float(ast.get_source_segment(text, node))
        if isinstance(node, ast.Name):
            return sp.I if node.id == "I" else sp.Symbol(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sqrt" and len(node.args) == 1 \
                and not node.keywords:
            return sp.sqrt(value(node.args[0]))
        raise ValueError(f"brace coefficient {{{text}}} is outside the grammar")

    text = text.strip()
    try:
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError):
        raise ValueError(f"cannot parse brace coefficient {{{text}}}") \
            from None


def _parse_real(tok: str, ring: CoefficientRing):
    """A decimal or a quotient of two, read by ``sp.Rational`` (spaces
    dropped); a float decimal keeps its bits: -0.0, subnormals, 1e400 inf.
    A decimal exponent beyond +-9999 is refused before it is read, since
    ``sp.Rational`` builds 10^exp as an exact integer."""
    if re.search(r"[eE][+-]?0*[1-9]\d{4}", re.sub("[ _]", "", tok)):
        raise ValueError(f"decimal exponent beyond +-9999 in {tok.strip()!r}")
    try:
        q = sp.Rational(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok.strip()!r}") from None
    tok = tok.replace(" ", "")
    return q if ring.kind == "exact" else float(q if "/" in tok else tok)


def _parse_coeff(tok: str, ring: CoefficientRing):
    tok = tok.strip()
    if tok.startswith("{") and tok.endswith("}"):
        return _parse_brace(tok[1:-1])
    pair = tok.startswith("(") and tok.endswith(")")
    re_, im = (_parse_real(t, ring)
               for t in (tok[1:-1].split(",") if pair else (tok, "0")))
    return complex(re_, im) if ring.kind == "float" else re_ + sp.I * im


def format_grassmann(g: GrassmannNumber) -> str:
    if not g.terms:
        return "0"
    parts = []
    for mask in sorted(g.terms, key=lambda m: (m.bit_count(), m)):
        cs = _format_coeff(g.terms[mask], g.ring)
        if mask == 0:
            parts.append(cs)
        else:
            mono = "".join(f"p{i}" for i in range(g.n) if mask >> i & 1)
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts)


def _split_outside_braces(s: str, sep: str) -> list:
    """s.split(sep), skipping a separator that a "}" follows before any "{"."""
    return re.split(re.escape(sep) + r"(?![^{]*\})", s)


def parse_grassmann(s: str, n: int, ring: CoefficientRing = EXACT) -> GrassmannNumber:
    s = s.strip()
    if s == "0":
        return GrassmannNumber.zero(n, ring)
    terms = {}
    for part in _split_outside_braces(s, " + "):
        part = part.strip()
        *cs, mono = _split_outside_braces(part, "*")
        if cs:
            cs = "*".join(cs)
            if not _MONO_RE.match(mono):
                raise ValueError(f"bad monomial {mono!r}")
            mask = 0
            for idx in re.findall(r"p(\d+)", mono):
                bit = 1 << int(idx)
                if mask & bit:
                    raise ValueError(f"repeated generator in {mono!r}")
                mask |= bit
        else:
            cs, mask = part, 0
        c = _parse_coeff(cs, ring)  # the first keeps its bits, -0.0 too
        terms[mask] = terms[mask] + c if mask in terms else c
    return GrassmannNumber(n, ring, terms)
