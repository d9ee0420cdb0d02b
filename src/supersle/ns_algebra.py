"""The N=1 Neveu-Schwarz superconformal algebra and its Verma modules.

Modes are L_n (n integer, even) and G_r (r half-odd-integer, odd), with

    [L_n, L_m] = (n-m) L_{n+m} + c/12 n(n^2-1) delta_{n+m,0}
    [L_n, G_r] = (n/2 - r) G_{n+r}
    {G_r, G_s} = 2 L_{r+s} + c/3 (r^2 - 1/4) delta_{r+s,0}

Verma-module vectors are kept in the PBW basis
L_{-n1}...L_{-nk} G_{-r1}...G_{-rm} |Delta> with n1 >= ... >= nk >= 1 and
r1 > ... > rm >= 1/2.  Normal ordering commutes annihilators to the right
recursively, over the ground domain of (c, Delta): QQ for rationals, a
fraction field over free symbols, EX otherwise.  Coefficients of vectors are
Grassmann numbers, and odd coefficients pick up a sign when a word with an
odd number of G modes moves past them.  Algebra elements and vectors share
one immutable {word: coefficient} core: init, +, -, == and repr.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import CoercionFailed

from supersle.grassmann import EXACT, GrassmannNumber, format_grassmann

HALF = Fraction(1, 2)


class CutoffOverflow(ValueError):
    """A word of a walk lies above the level cutoff of the truncated module."""


@dataclass(frozen=True)
class Mode:
    """A generator L_n (kind 'L') or G_r (kind 'G', r strictly half-integer)."""

    kind: str
    index: Fraction
    _hash: int = field(init=False, compare=False)  # Fraction hashing is slow

    def __post_init__(self):
        object.__setattr__(self, "index", Fraction(self.index))
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))
        if self.kind == "L":
            if self.index.denominator != 1:
                raise ValueError("L modes carry integer indices")
        elif self.kind == "G":
            if self.index.denominator != 2:
                raise ValueError("G modes carry half-odd-integer indices (NS sector)")
        else:
            raise ValueError(f"unknown mode kind {self.kind!r}")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored, on unpickling: str hashes vary by process
        return Mode, (self.kind, self.index)

    @property
    def odd(self) -> bool:
        return self.kind == "G"

    @property
    def lowering(self) -> bool:
        return self.index < 0

    def __repr__(self):
        return f"{self.kind}[{self.index}]"


_interned = cache(Mode)


def L(n) -> Mode:
    return _interned("L", Fraction(n))


def G(r) -> Mode:
    return _interned("G", Fraction(r))


@cache
def word_level(word) -> Fraction:
    return -sum((m.index for m in word), Fraction(0))


def word_parity(word) -> int:
    return sum(1 for m in word if m.odd) % 2


def _word_str(word) -> str:
    return "1" if not word else " ".join(repr(m) for m in word)


@dataclass(frozen=True)
class ModuleParams:
    """Central charge, highest weight, level cutoff of a truncated Verma module."""

    c: object
    delta: object
    level_cutoff: Fraction = Fraction(7, 2)

    def __post_init__(self):
        def coerce(x):
            if isinstance(x, (int, Fraction, sp.Rational)):
                return sp.Rational(x)
            x = sp.sympify(x)
            return sp.nsimplify(x, rational=True) if x.is_number else x

        object.__setattr__(self, "c", coerce(self.c))
        object.__setattr__(self, "delta", coerce(self.delta))
        object.__setattr__(self, "level_cutoff", Fraction(self.level_cutoff))
        if self.level_cutoff < 0 or self.level_cutoff.denominator not in (1, 2):
            raise ValueError("level cutoff must be a non-negative multiple of 1/2")


@cache
def _bracket_terms(a: Mode, b: Mode, c, K=None):
    """[a, b] (anticommutator if both odd) as ((scalar, Mode-or-None), ...).

    Scalars are sympy numbers, or elements of the ground domain K (c then
    lies in K too)."""
    q = sp.Rational if K is None else (lambda x: K.from_sympy(sp.Rational(x)))
    n, m = a.index, b.index
    if a.kind == "L" and b.kind == "L":
        out = [(q(n - m), L(n + m)), (c * q(n * (n * n - 1) / 12), None)]
    elif a.kind == "L" and b.kind == "G":
        out = [(q(n / 2 - m), G(n + m))]
    elif a.kind == "G" and b.kind == "L":
        out = [(q(n - m / 2), G(n + m))]  # [G_r, L_n] = -[L_n, G_r]
    else:
        out = [(q(2), L(n + m)), (c * q((n * n - HALF / 2) / 3), None)]
    if K is None:
        out = [(sp.expand(s), w) for s, w in out]
    return tuple((s, w) for s, w in out if s != 0 and (w or n + m == 0))


def bracket(a: Mode, b: Mode, c) -> "AlgebraElement":
    """The (anti)commutator of two modes, central term included."""
    # sympified first: 1 and 1.0 are one cache key but distinct central charges
    return AlgebraElement({() if m is None else (m,): s
                           for s, m in _bracket_terms(a, b, sp.sympify(c))})


class _Combination:
    """Immutable {word: GrassmannNumber} map in first-insertion order, scalars
    wrapped and zero terms dropped; subclasses name the map publicly."""

    __slots__ = ("_terms",)
    _ket = ""  # printed after each word by repr

    def __init__(self, terms=None):
        clean = {}
        for word, c in (terms or {}).items():
            c = c if isinstance(c, GrassmannNumber) else GrassmannNumber.scalar(c)
            if not c.is_zero():
                clean[tuple(word)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms):
        """A combination of this type, over the same module, with these terms."""
        return type(self)(terms)

    def __add__(self, other):
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return self._like(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({w: -c for w, c in self._terms.items()})

    def __eq__(self, other):
        return (not (self - other)._terms if isinstance(other, type(self))
                else NotImplemented)

    def _shown(self):
        return self._terms.items()

    def __repr__(self):
        bits = [f"({format_grassmann(c)})*{_word_str(w)}{self._ket}"
                for w, c in self._shown()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class AlgebraElement(_Combination):
    """Finite linear combination of generator words with Grassmann coefficients."""

    __slots__ = ()
    terms = property(lambda self: self._terms)

    @classmethod
    def from_mode(cls, coeff, mode: Mode) -> "AlgebraElement":
        return cls({(mode,): coeff})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            terms = {}
            for w1, c1 in self._terms.items():
                p1 = word_parity(w1)
                for w2, c2 in other._terms.items():
                    # move c2 through w1: sign on the odd part of c2
                    c = c1 * (c2 if p1 == 0 else c2.grade_involution())
                    w = w1 + w2
                    terms[w] = terms[w] + c if w in terms else c
            return AlgebraElement(terms)
        return AlgebraElement({w: c * other for w, c in self._terms.items()})

    def __rmul__(self, other):
        # scalar or Grassmann from the left
        return AlgebraElement({w: other * c for w, c in self._terms.items()})


class VermaVector(_Combination):
    """Vector in a level-truncated Verma module, PBW monomials -> coefficients."""

    __slots__ = ("params",)
    _ket = "|D>"
    entries = property(lambda self: self._terms)

    def __init__(self, params: ModuleParams, entries=None):
        super().__init__(entries)
        object.__setattr__(self, "params", params)

    def _like(self, entries):
        return VermaVector(self.params, entries)

    def _shown(self):
        return sorted(self._terms.items(), key=lambda kv: word_level(kv[0]))

    def lmul(self, g) -> "VermaVector":
        """Left multiplication of every coefficient by g (Grassmann or scalar)."""
        return self._like({m: g * c for m, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def level(self) -> Fraction:
        return max((word_level(m) for m in self._terms), default=Fraction(0))

    def coefficient(self, mono) -> GrassmannNumber:
        return self._terms.get(tuple(mono), GrassmannNumber.zero())


def _pbw_ok(m: Mode, first: Mode) -> bool:
    """Can lowering mode m legally sit in front of a PBW word starting with first?"""
    if m.kind == "L":
        if first.kind == "G":
            return True
        return m.index <= first.index      # descending levels: -n1 <= -n2
    if first.kind == "L":
        return False
    return m.index < first.index           # G block strictly descending


class VermaModule:
    """Normal-ordering engine for a truncated NS Verma module."""

    def __init__(self, params: ModuleParams):
        self.params = params
        self.domain, (self._c, self._delta) = construct_domain(
            [params.c, params.delta], field=True)
        self._cache = {}

    def vacuum(self, n: int = 0, ring=EXACT) -> VermaVector:
        return VermaVector(self.params, {(): GrassmannNumber.scalar(1, n, ring)})

    # -- scalar-coefficient core ------------------------------------------

    def act_mode(self, m: Mode, mono) -> dict:
        """Normal-order m * mono |Delta>; returns {PBW mono: scalar}, each
        scalar a non-zero element of the ground domain ``self.domain``."""
        key = (m, mono)
        if key in self._cache:
            return self._cache[key]
        K = self.domain
        out = {}
        if m.lowering and (not mono or _pbw_ok(m, mono[0])):
            # already PBW-ordered; words above the level cutoff are trimmed
            if word_level((m,) + mono) <= self.params.level_cutoff:
                out[(m,) + mono] = K.one
        elif not mono:
            if m.kind == "L" and m.index == 0:
                out[()] = self._delta
            # annihilators (L_n n>=1, G_r r>=1/2) give zero
        else:
            first, rest = mono[0], mono[1:]
            # G_r G_r = (1/2){G_r, G_r}; any other m moves past first
            square = m == first and m.odd
            sigma = -1 if (m.odd and first.odd) else 1
            for mid, s1 in ({} if square else self.act_mode(m, rest)).items():
                for fin, s2 in self.act_mode(first, mid).items():
                    out[fin] = out.get(fin, K.zero) + sigma * s1 * s2
            for scalar, bm in _bracket_terms(m, first, self._c, K):
                scalar = scalar / 2 if square else scalar
                sub = {rest: K.one} if bm is None else self.act_mode(bm, rest)
                for k, v in sub.items():
                    out[k] = out.get(k, K.zero) + scalar * v
        out = {k: v for k, v in out.items() if v}
        self._cache[key] = out
        return out

    def _act(self, word: tuple, state: dict) -> dict:
        """Normal-order word on a {PBW mono: domain scalar} combination."""
        for m in reversed(word):
            nxt = {}
            for mo, s in state.items():
                for k, v in self.act_mode(m, mo).items():
                    nxt[k] = nxt.get(k, self.domain.zero) + s * v
            state = {k: v for k, v in nxt.items() if v}
        return state

    def act_word(self, word, mono) -> dict:
        """Normal-order word * mono |Delta>; returns {PBW mono: sympy scalar}."""
        state = self._act(tuple(word), {tuple(mono): self.domain.one})
        return {k: self.domain.to_sympy(v) for k, v in state.items()}

    # -- Grassmann-coefficient interface ----------------------------------

    def apply(self, elem: AlgebraElement, v: VermaVector) -> VermaVector:
        """elem acting on v, output in the PBW basis."""
        out = {}
        for word, c in elem.terms.items():
            p = word_parity(word)
            for mono, d in v.entries.items():
                # word passes the coefficient d: sign on d's odd part
                coeff = c * (d if p == 0 else d.grade_involution())
                for fin, s in self.act_word(word, mono).items():
                    out[fin] = out[fin] + coeff * s if fin in out else coeff * s
                    if out[fin].is_zero():  # a cancelled word re-enters last
                        del out[fin]
        return VermaVector(self.params, out)


# -- singular vectors ---------------------------------------------------------


def singular_vector_32(params: ModuleParams) -> VermaVector:
    """|chi;3/2> = ((Delta+1/2) G_{-3/2} - L_{-1} G_{-1/2}) |Delta>."""
    return VermaVector(params, {
        (G(Fraction(-3, 2)),): params.delta + sp.Rational(1, 2),
        (L(-1), G(-HALF)): sp.Integer(-1),
    })


def raising_modes(level: Fraction, virasoro_only: bool = False):
    level = Fraction(level)
    modes = [L(n) for n in range(1, int(level) + 1)]
    if not virasoro_only:
        r = HALF
        while r <= level:
            modes.append(G(r))
            r += 1
    return modes


def is_singular(v: VermaVector, virasoro_only: bool = False):
    """True iff every raising mode of level <= level(v) annihilates v.

    A v with exact scalar coefficients is acted on in the module's ground
    domain; any other v goes through ``VermaModule.apply``."""
    if v.is_zero():
        return True, []
    module, state = VermaModule(v.params), None
    K = module.domain
    if all(c.ring == EXACT and c.terms.keys() == {0} for c in v.entries.values()):
        with suppress(CoercionFailed):  # a symbol outside (c, Delta)
            state = {mono: K.from_sympy(c.body()) for mono, c in v.entries.items()}
    obstructions = []
    for m in raising_modes(v.level(), virasoro_only):
        res = module.apply(AlgebraElement.from_mode(1, m), v) if state is None else (
            VermaVector(v.params, {k: K.to_sympy(s) for k, s in
                                   module._act((m,), state).items()}))
        if not res.is_zero():
            obstructions.append((m, res))
    return not obstructions, obstructions


def singular_condition_residual(params: ModuleParams):
    """12 Delta - (2 Delta + 1)(3 Delta + c); zero iff chi is singular."""
    d, c = params.delta, params.c
    return sp.expand(12 * d - (2 * d + 1) * (3 * d + c))


def singularity_report(params: ModuleParams) -> dict:
    chi = singular_vector_32(params)
    ok, obstructions = is_singular(chi)
    d, c = params.delta, params.c
    return {
        "condition": "12D=(2D+1)(3D+c)",
        "lhs": str(sp.expand(12 * d)),
        "rhs": str(sp.expand((2 * d + 1) * (3 * d + c))),
        "singular": ok,
        "obstructions": [{"mode": repr(m), "value": repr(vec)} for m, vec in obstructions],
    }


def _exact_kappa(kappa):
    """kappa as an exact positive rational; ValueError if it is not positive."""
    kappa = sp.nsimplify(sp.sympify(kappa), rational=True)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return kappa


def virasoro_level2_vector(kappa) -> VermaVector:
    """(-2 L_{-2} + kappa/2 L_{-1}^2)|Delta> at the matched (c, Delta)."""
    kappa = _exact_kappa(kappa)
    params = params_from_kappa_virasoro(kappa)
    return VermaVector(params, {
        (L(-2),): sp.Integer(-2),
        (L(-1), L(-1)): kappa / 2,
    })


def params_from_kappa_virasoro(kappa) -> ModuleParams:
    """c = 1 - 3(4-kappa)^2/(2 kappa), Delta = (6-kappa)/(2 kappa)."""
    kappa = _exact_kappa(kappa)
    c = 1 - sp.Rational(3, 2) * (4 - kappa) ** 2 / kappa
    delta = (6 - kappa) / (2 * kappa)
    return ModuleParams(c, delta)


def is_singular_level2(v: VermaVector):
    """Virasoro-sector singularity check: only L_1 and L_2 are applied."""
    return is_singular(v, virasoro_only=True)


def params_from_kappa_ns(kappa) -> ModuleParams:
    """c = 15/2 - 3(kappa + 1/kappa), Delta = (2-kappa)/(2 kappa)."""
    kappa = _exact_kappa(kappa)
    c = sp.Rational(15, 2) - 3 * (kappa + 1 / kappa)
    delta = (2 - kappa) / (2 * kappa)
    return ModuleParams(c, delta)


# -- quotient by the singular submodule ---------------------------------------


def _parts(budget: Fraction, least, strict: bool):
    """Descending tuples of parts least, least+1, ... summing to at most
    budget (none if budget < 0); a part repeats unless strict."""
    if budget < 0:
        return
    yield ()
    while least <= budget:
        for rest in _parts(budget - least, least + 1 if strict else least,
                           strict):
            yield rest + (least,)
        least += 1


@cache
def pbw_words(max_level: Fraction) -> tuple:
    """All PBW-ordered lowering words of level <= max_level (empty included)."""
    max_level = Fraction(max_level)
    words = [tuple(L(-n) for n in lp) + tuple(G(-r) for r in gp)
             for lp in _parts(max_level, 1, False)
             for gp in _parts(max_level - sum(lp), HALF, True)]
    return tuple(sorted(words, key=lambda w: (word_level(w), len(w), _word_str(w))))


class Projector:
    """Exact projector onto a complement of the singular-vector submodule."""

    def __init__(self, params: ModuleParams, rows):
        self.params = params
        self.rows = rows  # list of (pivot mono, {mono: sympy scalar}); row[pivot] == 1

    def __call__(self, v: VermaVector) -> VermaVector:
        out = v
        for pivot, row in self.rows:
            c = out.entries.get(pivot)
            if c is None:
                continue
            out = out + VermaVector(self.params, {m: c * (-s) for m, s in row.items()})
        return out

    def matrix(self, words, columns):
        """Dense float columns, of the words ``columns``, of the projection
        in the given word basis."""
        import numpy as np

        idx, rows = {w: i for i, w in enumerate(words)}, dict(self.rows)
        P = np.zeros((len(words), len(columns)), dtype=complex)
        for j, w in enumerate(columns):
            P[idx[w], j] = 1.0
            for m, s in rows.get(w, {}).items():
                if m in idx:
                    P[idx[m], j] -= complex(s)
        return P


def quotient_projection(params: ModuleParams,
                        cutoff: Fraction | None = None,
                        check_singular: bool = True,
                        levels=None) -> Projector:
    """Projector annihilating the descendant span of |chi;3/2> up to cutoff.

    With ``check_singular=False`` the same construction is carried out for
    non-singular (c, Delta); the result then projects out the span generated
    by the level-3/2 vector built from the same formula, which is useful as a
    detuned control in statistical tests.  Each descendant w chi sits at one
    level, so the span is block-diagonal by level: ``levels`` keeps only the
    descendants, and so the rows, at those levels.
    """
    if check_singular and singular_condition_residual(params) != 0:
        raise ValueError("(c, Delta) do not satisfy the singularity condition")
    if cutoff is None:
        cutoff = params.level_cutoff
    cutoff = Fraction(cutoff)
    work = ModuleParams(params.c, params.delta, cutoff)
    module = VermaModule(work)
    K = module.domain
    chi = {mono: K.from_sympy(c.body())
           for mono, c in singular_vector_32(work).entries.items()}
    span = [row for row in (module._act(w, chi) for w in
                            pbw_words(cutoff - Fraction(3, 2)) if levels is None
                            or word_level(w) + Fraction(3, 2) in levels) if row]
    return Projector(params, _row_echelon(span, pbw_words(cutoff), K))


def _row_echelon(span, order, K=None):
    """Exact reduced row-echelon form of span rows: one (pivot word,
    {word: sympy scalar}) per unit pivot, both in the column order of
    ``order``.  Span scalars are sympy, or elements of the field K."""
    pos = {w: i for i, w in enumerate(order)}
    rows = {i: {pos[m]: s for m, s in row.items()} for i, row in enumerate(span)}
    shape = (len(span), len(order))
    rref, pivots = (DomainMatrix.from_dict_sympy(*shape, rows).to_field()
                    if K is None else DomainMatrix(rows, shape, K)).rref(
                        method="GJ")
    to_sympy, sdm = rref.domain.to_sympy, rref.to_sparse().rep
    return [(order[p], {order[j]: to_sympy(s) for j, s in sorted(sdm[i].items())})
            for i, p in enumerate(pivots)]
