"""Exact scalar expressions on a chart.

The expression class is deliberately small: quotients N/D where N and D are
finite sums of terms

    coefficient * x1^a1 * ... * xn^an * exp(l1*x1 + ... + ln*xn)

with exact rational coefficients, non-negative integer exponents and rational
linear forms inside ``exp``.  Sums with these term keys form an integral
domain, so equality of quotients is decidable by cross multiplication; that
is what makes symbolic identity checks on tensors trustworthy.

Canonical form
--------------
* the zero expression is the empty sum over denominator 1;
* terms are keyed by (monomial, exponential atom); no key repeats;
* the denominator is monic (leading coefficient 1), carries no exponential
  factor (exponentials are units and are moved into the numerator) and shares
  no single-term factor with the numerator: common monomial content is
  cancelled.

Representation
--------------
An expression is stored as ``c * N / (x^d * B^e)``:

* a key is a pair of tuples: the monomial's exponents and the atom's rates.
  A rate is an ``int`` whenever it is integral and a ``Fraction`` only when it
  is not, so hashing and adding keys is plain integer work;
* N is a sum with integer coefficients whose gcd is 1 (its primitive part)
  and c is its one rational content;
* B is a sum with coprime integer coefficients and a positive leading term,
  so it is monic up to the integer factor lead(B).

Sums therefore multiply and add over ``int`` only; the contents are combined
once per operation.  The printed numerator is ``c * N / lead(B)^e`` over the
monic expanded denominator ``x^d * (B / lead(B))^e``, the canonical form
above.  Keeping the denominator factored lets derivatives and products of
quotients with the same B grow the power e instead of multiplying expanded
sums, which keeps curvature pipelines (where every denominator is a power of
det g) small.

Grammar (shared with the manifest format)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' signed-integer)?
    base   := integer | decimal | identifier | '(' expr ')' | 'exp' '(' expr ')'

``e^(...)`` is accepted as sugar for ``exp(...)`` as long as no chart
coordinate is named ``e``.  Arguments of ``exp`` must be linear forms in the
coordinates with rational coefficients (no constant part, since exp of a
nonzero rational is irrational and would break exactness).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from fractions import Fraction
from operator import add
from typing import Sequence

from .chart import Chart

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "UnknownCoordinateError",
    "NonLinearExpArgumentError",
    "DivisionByZeroExprError",
    "DegenerateEvaluationError",
    "ExactEvaluationError",
    "InvariantError",
    "parse",
]

Mono = tuple  # tuple[int, ...]
Atom = tuple  # tuple[int | Fraction, ...]: int wherever the rate is integral
Key = tuple  # (Mono, Atom)
Sum = dict  # dict[Key, int]: nonzero integer coefficients


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownCoordinateError(ExprError):
    pass


class NonLinearExpArgumentError(ExprError):
    pass


class DivisionByZeroExprError(ExprError):
    pass


class DegenerateEvaluationError(ExprError):
    """Denominator numerically vanishes, or the value overflows, at the point."""


class ExactEvaluationError(ExprError):
    """Exact evaluation impossible (nonzero exponential atom or zero denominator)."""


class InvariantError(RuntimeError):
    """A mathematical identity the computation relies on did not hold.

    Raised in place of ``assert`` so the check survives ``python -O``; it
    signals a bug in parasol, not bad input.
    """


# ---------------------------------------------------------------------------
# sum-of-terms helpers (plain dicts keyed by (monomial, atom), int values)
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)


def _rational(value) -> int | Fraction:
    """An exact rational, stored as int when it is integral."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _canon_atom(atom: Atom) -> Atom:
    return tuple(x if type(x) is int else _rational(x) for x in atom)


def _has_fraction_rate(a: Sum) -> bool:
    return any(type(x) is not int for _, atom in a for x in atom)


def _rate_denominator(a: Sum, i: int) -> int:
    """Least common denominator of the exponential rates along axis i."""
    return math.lcm(*(atom[i].denominator for _, atom in a))


def _common_content(p: Fraction, q: Fraction) -> tuple[Fraction, int, int]:
    """(c, i, j) with p = c*i and q = c*j for coprime integers i, j."""
    if p == q:
        return p, 1, 1
    g = math.gcd(p.numerator, q.numerator)
    l = math.lcm(p.denominator, q.denominator)
    return (
        Fraction(g, l),
        p.numerator // g * (l // p.denominator),
        q.numerator // g * (l // q.denominator),
    )


def _sone(n: int) -> Sum:
    return {((0,) * n, (0,) * n): 1}


def _sadd(a: Sum, b: Sum, ka: int = 1, kb: int = 1) -> Sum:
    """ka*a + kb*b."""
    out = dict(a) if ka == 1 else {key: coeff * ka for key, coeff in a.items()}
    for key, coeff in b.items():
        new = out.get(key, 0) + coeff * kb
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _smul(a: Sum, b: Sum) -> Sum:
    if not a or not b:
        return {}
    out: Sum = {}
    get = out.get
    terms_b = list(b.items())
    for (ma, ea), ca in a.items():
        for (mb, eb), cb in terms_b:
            key = (tuple(map(add, ma, mb)), tuple(map(add, ea, eb)))
            new = get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    if _has_fraction_rate(a) and _has_fraction_rate(b):
        # two non-integral rates may add up to an integral one
        out = {(mono, _canon_atom(atom)): coeff for (mono, atom), coeff in out.items()}
    return out


def _sscale(a: Sum, k: int, mono_shift: Mono | None = None, atom_shift: Atom | None = None) -> Sum:
    if k == 0:
        return {}
    out: Sum = {}
    for (mono, atom), c in a.items():
        if mono_shift is not None:
            mono = tuple(map(add, mono, mono_shift))
        if atom_shift is not None:
            atom = _canon_atom(tuple(map(add, atom, atom_shift)))
        out[(mono, atom)] = c * k
    return out


def _spow(a: Sum, k: int, n: int) -> Sum:
    result = _sone(n)
    base = a
    while k > 0:
        if k & 1:
            result = _smul(result, base)
        k >>= 1
        if k:
            base = _smul(base, base)
    return result


def _sdiff(a: Sum, i: int, scale: int = 1) -> Sum:
    """scale * d/dx_i of a sum: power rule on the monomial plus the atom rate.

    ``scale`` must clear the denominators of the rates along axis i, so that
    every coefficient stays an integer.
    """
    out: Sum = {}
    for (mono, atom), coeff in a.items():
        if mono[i] > 0:
            key = (mono[:i] + (mono[i] - 1,) + mono[i + 1 :], atom)
            new = out.get(key, 0) + coeff * mono[i] * scale
            if new:
                out[key] = new
            else:
                del out[key]
        lam = atom[i]
        if lam != 0:
            key = (mono, atom)
            new = out.get(key, 0) + coeff * int(lam * scale)
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def _scontent(a: Sum) -> tuple[Mono, Atom]:
    """Componentwise minimum of monomial exponents and atom coefficients."""
    keys = iter(a)
    first_mono, first_atom = next(keys)
    mono = list(first_mono)
    atom = list(first_atom)
    for m, e in keys:
        for i, v in enumerate(m):
            if v < mono[i]:
                mono[i] = v
        for i, v in enumerate(e):
            if v < atom[i]:
                atom[i] = v
    return tuple(mono), tuple(atom)


def coordinate_values(chart: Chart, point: Mapping[str, float] | Sequence[float]) -> list[float]:
    """Float coordinates of a point given by coordinate name or in chart order."""
    if isinstance(point, Mapping):
        return [float(point[c]) for c in chart.coordinates]
    xs = [float(v) for v in point]
    if len(xs) != chart.dimension:
        raise ExprError("point has wrong dimension")
    return xs


def _seval(coeffs: Sequence[float], a: Sum, xs: Sequence[float]) -> float:
    """Float value of a sum whose float coefficients are ``coeffs`` (in key order)."""
    total = 0.0
    for value, (mono, atom) in zip(coeffs, a):
        for x, k in zip(xs, mono):
            if k:
                value *= x**k
        arg = 0.0
        for x, lam in zip(xs, atom):
            if lam:
                arg += lam * x
        if arg:
            value *= math.exp(arg)
        total += value
    return total


def _seval_exact(a: Sum, xs: Sequence[Fraction]) -> Fraction:
    total = _F0
    for (mono, atom), coeff in a.items():
        arg = _F0
        for x, lam in zip(xs, atom):
            arg += lam * x
        if arg != 0:
            raise ExactEvaluationError(
                "exponential atom does not vanish at the point (value %s)" % arg
            )
        value = coeff
        for x, k in zip(xs, mono):
            if k:
                value *= x**k
        total += value
    return total


# ---------------------------------------------------------------------------
# the expression class
# ---------------------------------------------------------------------------


class Expr:
    """Immutable exact scalar function on a chart.

    Supports +, -, *, /, ** (integer powers), exact differentiation and both
    floating and exact evaluation.  Equality (``==``) is semantic: it cross
    multiplies and tests whether the canonical difference is the empty sum.
    """

    __slots__ = ("chart", "_scale", "_num", "_dmono", "_dbase", "_dexp", "_float")

    def __init__(
        self, chart: Chart, scale: Fraction, num: Sum, dmono: Mono, dbase: Sum | None, dexp: int
    ):
        # Internal constructor: callers go through _make/_from_num_den.
        self.chart = chart
        self._scale = scale
        self._num = num
        self._dmono = dmono
        self._dbase = dbase
        self._dexp = dexp
        self._float = None  # float coefficients, filled in by the first evaluate()

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(
        cls, chart: Chart, scale: Fraction, num: Sum, dmono: Mono, dbase: Sum | None, dexp: int
    ) -> "Expr":
        if not num:
            return cls.zero(chart)
        if dbase is not None and dexp == 0:
            dbase = None
        if any(dmono):
            mins = list(next(iter(num))[0])
            for mono, _atom in num:
                for i, v in enumerate(mono):
                    if v < mins[i]:
                        mins[i] = v
            cancel = tuple(min(a, b) for a, b in zip(mins, dmono))
            if any(cancel):
                shift = tuple(-c for c in cancel)
                num = _sscale(num, 1, mono_shift=shift)
                dmono = tuple(a - b for a, b in zip(dmono, cancel))
        content = math.gcd(*num.values())
        if content != 1:
            num = {key: coeff // content for key, coeff in num.items()}
            scale = scale * content
        return cls(chart, scale, num, dmono, dbase, dexp)

    @classmethod
    def _from_num_den(cls, chart: Chart, scale: Fraction, num: Sum, den: Sum) -> "Expr":
        """The quotient scale * num / den, normalizing the denominator."""
        if not den:
            raise DivisionByZeroExprError("division by canonical zero")
        if not num:
            return cls.zero(chart)
        mono_c, atom_c = _scontent(den)
        neg_atom = tuple(-a for a in atom_c)
        stripped = _sscale(den, 1, mono_shift=tuple(-m for m in mono_c), atom_shift=neg_atom)
        content = math.gcd(*stripped.values())
        if stripped[max(stripped)] < 0:
            content = -content
        if content != 1:
            stripped = {key: coeff // content for key, coeff in stripped.items()}
        # num / (content * exp(atom_c) * x^mono_c * stripped)
        num = _sscale(num, 1, atom_shift=neg_atom)
        scale = scale / content
        if len(stripped) == 1:
            # after content stripping a single-term denominator is exactly 1
            return cls._make(chart, scale, num, mono_c, None, 0)
        return cls._make(chart, scale, num, mono_c, stripped, 1)

    @classmethod
    def zero(cls, chart: Chart) -> "Expr":
        n = chart.dimension
        return cls(chart, _F1, {}, (0,) * n, None, 0)

    @classmethod
    def constant(cls, chart: Chart, value) -> "Expr":
        value = Fraction(value)
        if value == 0:
            return cls.zero(chart)
        n = chart.dimension
        return cls(chart, value, _sone(n), (0,) * n, None, 0)

    @classmethod
    def one(cls, chart: Chart) -> "Expr":
        return cls.constant(chart, 1)

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "Expr":
        try:
            i = chart.axis(name)
        except KeyError:
            raise UnknownCoordinateError("unknown coordinate %r" % name) from None
        n = chart.dimension
        mono = tuple(1 if j == i else 0 for j in range(n))
        return cls(chart, _F1, {(mono, (0,) * n): 1}, (0,) * n, None, 0)

    @classmethod
    def exponential(cls, chart: Chart, coefficients: Sequence) -> "Expr":
        """exp of the linear form sum(coefficients[i] * x_i)."""
        n = chart.dimension
        atom = tuple(_rational(c) for c in coefficients)
        if len(atom) != n:
            raise ExprError("exponential atom needs %d coefficients" % n)
        return cls(chart, _F1, {((0,) * n, atom): 1}, (0,) * n, None, 0)

    # -- structure ----------------------------------------------------------

    @property
    def is_symbolically_zero(self) -> bool:
        return not self._num

    @property
    def denominator_is_one(self) -> bool:
        return self._dbase is None and not any(self._dmono)

    def _den_sum(self) -> Sum:
        """Expanded denominator x^dmono * B^dexp (primitive, positive leading term)."""
        n = self.chart.dimension
        out = _sone(n) if self._dbase is None else _spow(self._dbase, self._dexp, n)
        if any(self._dmono):
            out = _sscale(out, 1, mono_shift=self._dmono)
        return out

    def _den_lead(self) -> int:
        """Leading coefficient of the expanded denominator."""
        if self._dbase is None:
            return 1
        return self._dbase[max(self._dbase)] ** self._dexp

    def is_zero(self) -> bool:
        """True iff the canonical numerator is the empty sum."""
        return not self._num

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Expr | None":
        if isinstance(other, Expr):
            if other.chart is not self.chart:
                self.chart.require_same(other.chart)
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.constant(self.chart, other)
        return None

    def __add__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        a, b = self, other
        scale, ka, kb = _common_content(a._scale, b._scale)
        if a._dmono == b._dmono and a._dbase == b._dbase and a._dexp == b._dexp:
            num = _sadd(a._num, b._num, ka, kb)
            return Expr._make(a.chart, scale, num, a._dmono, a._dbase, a._dexp)
        if a._dbase is None or b._dbase is None or a._dbase == b._dbase:
            base = a._dbase if a._dbase is not None else b._dbase
            ea = a._dexp if a._dbase is not None else 0
            eb = b._dexp if b._dbase is not None else 0
            e = max(ea, eb)
            dmono = tuple(max(x, y) for x, y in zip(a._dmono, b._dmono))
            n = a.chart.dimension
            terms = []
            for part, ep, dm in ((a, ea, a._dmono), (b, eb, b._dmono)):
                term = part._num
                if base is not None and e - ep:
                    term = _smul(term, _spow(base, e - ep, n))
                shift = tuple(x - y for x, y in zip(dmono, dm))
                if any(shift):
                    term = _sscale(term, 1, mono_shift=shift)
                terms.append(term)
            return Expr._make(a.chart, scale, _sadd(terms[0], terms[1], ka, kb), dmono, base, e)
        da, db = a._den_sum(), b._den_sum()
        if da == db:
            return Expr._from_num_den(a.chart, scale, _sadd(a._num, b._num, ka, kb), da)
        num = _sadd(_smul(a._num, db), _smul(b._num, da), ka, kb)
        return Expr._from_num_den(a.chart, scale, num, _smul(da, db))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.chart, -self._scale, self._num, self._dmono, self._dbase, self._dexp)

    def __sub__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if not a._num or not b._num:
            return Expr.zero(a.chart)
        scale = a._scale * b._scale
        num = _smul(a._num, b._num)
        dmono = tuple(x + y for x, y in zip(a._dmono, b._dmono))
        if a._dbase is None or b._dbase is None or a._dbase == b._dbase:
            base = a._dbase if a._dbase is not None else b._dbase
            e = (a._dexp if a._dbase is not None else 0) + (b._dexp if b._dbase is not None else 0)
            return Expr._make(a.chart, scale, num, dmono, base, e)
        n = a.chart.dimension
        den = _smul(_spow(a._dbase, a._dexp, n), _spow(b._dbase, b._dexp, n))
        return Expr._make(a.chart, scale, num, dmono, den, 1)

    __rmul__ = __mul__

    def _reciprocal(self) -> "Expr":
        if not self._num:
            raise DivisionByZeroExprError("division by canonical zero")
        return Expr._from_num_den(self.chart, _F1 / self._scale, self._den_sum(), self._num)

    def __truediv__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._reciprocal()

    def __rtruediv__(self, other) -> "Expr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._reciprocal()

    def __pow__(self, k) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer, got %r" % (k,))
        if k == 0:
            return Expr.one(self.chart)
        if k < 0:
            return self._reciprocal() ** (-k)
        n = self.chart.dimension
        return Expr._make(
            self.chart,
            self._scale**k,
            _spow(self._num, k, n),
            tuple(v * k for v in self._dmono),
            self._dbase,
            self._dexp * k,
        )

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return (self - coerced).is_symbolically_zero

    __hash__ = None  # semantic equality is incompatible with hashing

    # -- calculus ------------------------------------------------------------

    def differentiate(self, name: str) -> "Expr":
        """Exact partial derivative with respect to a chart coordinate."""
        try:
            i = self.chart.axis(name)
        except KeyError:
            raise UnknownCoordinateError("unknown coordinate %r" % name) from None
        if not self._num:
            return self
        num, base = self._num, self._dbase
        rate_den = _rate_denominator(num, i)
        if base is not None:
            rate_den = math.lcm(rate_den, _rate_denominator(base, i))
        scale = self._scale / rate_den
        if base is None and not any(self._dmono):
            return Expr._make(self.chart, scale, _sdiff(num, i, rate_den), self._dmono, None, 0)
        n = self.chart.dimension
        unit = tuple(1 if j == i else 0 for j in range(n))
        xi: Sum = {(unit, (0,) * n): 1}
        out = _smul(_sdiff(num, i, rate_den), xi)
        if self._dmono[i]:
            out = _sadd(out, _sscale(num, -self._dmono[i] * rate_den))
        if base is not None:
            correction = _sscale(_smul(_smul(num, xi), _sdiff(base, i, rate_den)), -self._dexp)
            out = _sadd(_smul(out, base), correction)
            dexp = self._dexp + 1
        else:
            dexp = 0
        dmono = tuple(v + u for v, u in zip(self._dmono, unit))
        return Expr._make(self.chart, scale, out, dmono, base, dexp)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Mapping[str, float] | Sequence[float], den_tolerance: float = 1e-12) -> float:
        """Floating evaluation; raises if the denominator nearly vanishes or a float overflows."""
        xs = coordinate_values(self.chart, point)
        if not self._num:
            return 0.0
        try:
            if self._float is None:
                lead, monic = 1, None
                if self._dbase is not None:
                    lead = self._dbase[max(self._dbase)]
                    monic = array("d", (coeff / lead for coeff in self._dbase.values()))
                p, q = self._scale.numerator, self._scale.denominator * lead**self._dexp
                self._float = (array("d", (p * coeff / q for coeff in self._num.values())), monic)
            coeffs, monic = self._float
            den = 1.0
            for x, k in zip(xs, self._dmono):
                if k:
                    den *= x**k
            if monic is not None:
                den *= _seval(monic, self._dbase, xs) ** self._dexp
            if abs(den) <= den_tolerance:
                raise DegenerateEvaluationError(
                    "denominator %r vanishes at %r (|value| = %g)" % (self.den_string(), xs, abs(den))
                )
            return _seval(coeffs, self._num, xs) / den
        except OverflowError:
            raise DegenerateEvaluationError("value overflows a float at %r" % xs) from None

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Exact rational evaluation; only possible where every atom vanishes."""
        xs = [Fraction(v) for v in point]
        if len(xs) != self.chart.dimension:
            raise ExprError("point has wrong dimension")
        if not self._num:
            return _F0
        den = _F1
        for x, k in zip(xs, self._dmono):
            if k:
                den *= x**k
        if self._dbase is not None:
            den *= _seval_exact(self._dbase, xs) ** self._dexp
        if den == 0:
            raise ExactEvaluationError("denominator vanishes at the point")
        return self._scale * _seval_exact(self._num, xs) / den

    def provably_nonvanishing(self) -> bool:
        """True when the expression provably has no real zeros.

        Only the easy certificate is attempted: a single-term numerator with
        no monomial part (a nonzero rational times an exponential) never
        vanishes.  Multi-term sums may or may not have zeros; False means
        "unknown", not "has a zero".
        """
        if not self._num:
            return False
        if len(self._num) != 1:
            return False
        (mono, _atom), _coeff = next(iter(self._num.items()))
        return not any(mono)

    def as_rational_constant(self) -> Fraction | None:
        """The exact rational value if the expression is constant, else None."""
        if not self._num:
            return _F0
        if self.denominator_is_one and len(self._num) == 1:
            (mono, atom), coeff = next(iter(self._num.items()))
            if not any(mono) and not any(atom):
                return self._scale * coeff
        try:
            guess = self.evaluate_exact(self.chart.base_point)
        except ExactEvaluationError:
            return None
        return guess if (self - guess).is_symbolically_zero else None

    # -- printing ------------------------------------------------------------

    # The printed form divides numerator and denominator by lead(B)^e, which
    # makes the expanded denominator monic.

    def num_string(self) -> str:
        factor = self._scale / self._den_lead()
        return _format_sum({key: factor * coeff for key, coeff in self._num.items()}, self.chart)

    def den_string(self) -> str:
        lead = self._den_lead()
        terms = {key: Fraction(coeff, lead) for key, coeff in self._den_sum().items()}
        return _format_sum(terms, self.chart)

    def __str__(self) -> str:
        num = self.num_string()
        if self.denominator_is_one:
            return num
        return "(%s)/(%s)" % (num, self.den_string())

    def __repr__(self) -> str:
        return "Expr(%s)" % self


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def _format_linear_form(atom: Atom, chart: Chart) -> str:
    parts: list[str] = []
    for lam, name in zip(atom, chart.coordinates):
        if lam == 0:
            continue
        magnitude = abs(lam)
        body = name if magnitude == 1 else "%s*%s" % (magnitude, name)
        if not parts:
            parts.append("-" + body if lam < 0 else body)
        else:
            parts.append((" - " if lam < 0 else " + ") + body)
    return "".join(parts) if parts else "0"


def _format_term(coeff: Fraction, mono: Mono, atom: Atom, chart: Chart) -> str:
    factors: list[str] = []
    magnitude = abs(coeff)
    for k, name in zip(mono, chart.coordinates):
        if k == 1:
            factors.append(name)
        elif k:
            factors.append("%s^%d" % (name, k))
    if any(atom):
        factors.append("exp(%s)" % _format_linear_form(atom, chart))
    if magnitude != 1 or not factors:
        factors.insert(0, str(magnitude))
    return "*".join(factors)


def _format_sum(terms: Sum, chart: Chart) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for key in sorted(terms, reverse=True):
        mono, atom = key
        coeff = terms[key]
        body = _format_term(coeff, mono, atom, chart)
        if not parts:
            parts.append("-" + body if coeff < 0 else body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*/^()")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                tokens.append(("decimal", source[i:j], i))
            else:
                tokens.append(("int", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, chart: Chart):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.chart = chart

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text, location = self.next()
        if kind != "op" or text != op:
            raise ParseError("expected %r, found %r" % (op, text or "end of input"), location)

    def parse(self) -> Expr:
        value = self.expr()
        kind, text, location = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % text, location)
        return value

    def expr(self) -> Expr:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.next()
            negate = text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Expr:
        value = self.factor()
        while True:
            kind, text, location = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                if text == "*":
                    value = value * rhs
                else:
                    if rhs.is_symbolically_zero:
                        raise ParseError("division by zero", location)
                    value = value / rhs
            else:
                return value

    def factor(self) -> Expr:
        base = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            base = base ** self.signed_integer()
        return base

    def signed_integer(self) -> int:
        kind, text, location = self.next()
        sign = 1
        if kind == "op" and text in "+-":
            sign = -1 if text == "-" else 1
            kind, text, location = self.next()
        if kind == "decimal":
            raise ParseError("exponent must be an integer, found %r" % text, location)
        if kind != "int":
            raise ParseError("expected integer exponent, found %r" % (text or "end of input"), location)
        return sign * int(text)

    def base(self) -> Expr:
        kind, text, location = self.next()
        if kind == "int":
            return Expr.constant(self.chart, Fraction(int(text)))
        if kind == "decimal":
            return Expr.constant(self.chart, Fraction(text))
        if kind == "op" and text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if kind == "ident":
            if text == "exp":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return self._exp_atom(inner, location)
            if text == "e" and "e" not in self.chart.coordinates:
                kind2, text2, _ = self.peek()
                if kind2 == "op" and text2 == "^":
                    self.next()
                    kind3, text3, loc3 = self.peek()
                    if not (kind3 == "op" and text3 == "("):
                        raise ParseError(
                            "exponent of e must be a parenthesized linear form", loc3
                        )
                    self.next()
                    inner = self.expr()
                    self.expect_op(")")
                    return self._exp_atom(inner, location)
                raise ParseError("identifier 'e' is only valid in e^(...)", location)
            if text in self.chart.coordinates:
                return Expr.coordinate(self.chart, text)
            raise ParseError("unknown identifier %r" % text, location)
        raise ParseError("expected a value, found %r" % (text or "end of input"), location)

    def _exp_atom(self, inner: Expr, location: int) -> Expr:
        if not inner.denominator_is_one:
            raise NonLinearExpArgumentError(
                "argument of exp must be a linear form in the coordinates, got %s" % inner
            )
        n = self.chart.dimension
        coefficients = [_F0] * n
        for (mono, atom), coeff in inner._num.items():
            if any(atom) or sum(mono) != 1:
                raise NonLinearExpArgumentError(
                    "argument of exp must be a linear form in the coordinates "
                    "with no constant part, got %s" % inner
                )
            coefficients[mono.index(1)] += inner._scale * coeff
        return Expr.exponential(self.chart, coefficients)


def parse(source: str, chart: Chart) -> Expr:
    """Parse an expression string against a chart's coordinates."""
    return _Parser(source, chart).parse()
