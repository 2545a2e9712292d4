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

* a term key is one non-negative ``int`` packing 2n fields of 32 bits, most
  significant first: the monomial's n exponents, then the n rates of the
  exponential atom.  Each field holds its value plus a bias of 2^30, so the
  integer order of keys is the lexicographic order of (monomial, rates) and
  multiplying two terms is one addition, ``ka + kb - base``.  A value must
  lie in [-2^30, 2^30); the top bit of every field is a guard that any
  out-of-range sum or shift sets, and each result is checked once (the OR
  of its keys), so an overflow raises ``ExprError`` instead of wrapping;
* rates are stored as integers: the chart fixes one positive rate
  denominator L (1 unless some rate is non-integral), and every atom field
  holds rate * L.  Products add rates and derivatives keep them, so every
  rate an expression reaches stays a multiple of 1/L, and operands combine
  with no rescaling.  ``exp`` of a rate whose denominator does not divide L
  raises ``RateDenominatorError``;
* N is a sum with integer coefficients whose gcd is 1 (its primitive part)
  and c is its one rational content, held as two ints: the numerator and
  the positive denominator of the reduced fraction.  Arithmetic combines
  these ints directly (cross-gcd products, division by an int, the gcd and
  lcm of two contents); a ``Fraction`` is built only at the boundaries, when
  a constant or an ``exp`` argument is parsed, when a coefficient is printed,
  and in ``evaluate_exact`` and ``as_rational_constant``;
* x^d is a packed key with zero rates;
* B is a sum with coprime integer coefficients and a positive leading term,
  so it is monic up to the integer factor lead(B).

Sums therefore multiply and add over ``int`` only; the contents are combined
once per operation, and keys are decoded only where fields are read
(printing, content and cancellation steps, evaluation, the parser).  The
printed numerator is ``c * N / lead(B)^e`` over the monic expanded
denominator ``x^d * (B / lead(B))^e``, the canonical form above.  Keeping the
denominator factored lets derivatives and products of quotients with the
same B grow the power e instead of multiplying expanded sums, which keeps
curvature pipelines (where every denominator is a power of det g) small.

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
import random
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from .chart import Chart

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "RateDenominatorError",
    "UnknownCoordinateError",
    "NonLinearExpArgumentError",
    "DivisionByZeroExprError",
    "DegenerateEvaluationError",
    "ExactEvaluationError",
    "InvariantError",
    "NonUnitResidueError",
    "FormalPoint",
    "parse",
]

Mono = tuple  # tuple[int, ...]: exponents
Atom = tuple  # rates; in a key, each rate times the chart's rate denominator L
Key = int  # packed (Mono, Atom), see _Layout
Sum = dict  # dict[Key, int]: nonzero integer coefficients


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownCoordinateError(ExprError):
    pass


class RateDenominatorError(ExprError):
    """An exp rate's denominator does not divide the chart's rate denominator."""

    def __init__(self, denominator: int, rate_denominator: int):
        super().__init__(
            "exp rate denominator %d does not divide the chart's rate denominator %d"
            % (denominator, rate_denominator)
        )
        self.denominator = denominator


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
# packed keys
# ---------------------------------------------------------------------------

_FIELD_BITS = 32
_BIAS = 1 << (_FIELD_BITS - 2)  # a field stores value + _BIAS
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _range_error() -> ExprError:
    return ExprError(
        "exponent or exp rate out of range: every exponent, and every rate times "
        "the chart's rate denominator L, must lie in [-2^30, 2^30)"
    )


class _Layout:
    """Packed keys for one chart dimension n and rate denominator L.

    Field f (0 <= f < 2n, most significant first) holds mono[f] for f < n and
    atom[f - n] otherwise.  ``base`` is the key of the constant term,
    ``units[f]`` adds 1 to field f, and ``guard`` has the top bit of every
    field set.  Within range no field ever carries into its neighbour, and the
    lowest field that leaves the range always ends with its guard bit set.
    """

    __slots__ = (
        "n",
        "rate_denominator",
        "base",
        "guard",
        "shifts",
        "units",
        "split",
        "mono_mask",
        "atom_mask",
        "atom_base",
        "_struct",
        "_bytes",
    )

    def __init__(self, n: int, rate_denominator: int):
        self.n = n
        self.rate_denominator = rate_denominator
        self.shifts = tuple(_FIELD_BITS * (2 * n - 1 - f) for f in range(2 * n))
        self.units = tuple(1 << s for s in self.shifts)
        self.base = sum(_BIAS << s for s in self.shifts)
        self.guard = sum(1 << (s + _FIELD_BITS - 1) for s in self.shifts)
        self.split = _FIELD_BITS * n
        self.atom_mask = (1 << self.split) - 1
        self.mono_mask = ((1 << (2 * self.split)) - 1) ^ self.atom_mask
        self.atom_base = self.base & self.atom_mask
        self._struct = struct.Struct(">%dI" % (2 * n))
        self._bytes = _FIELD_BITS // 8 * 2 * n

    def pack(self, mono: Sequence[int], atom: Sequence[int] | None = None) -> Key:
        values = list(mono) + (list(atom) if atom is not None else [0] * self.n)
        if not all(-_BIAS <= v < _BIAS for v in values):
            raise _range_error()
        return self.base + sum(v << s for v, s in zip(values, self.shifts))

    def unpack(self, key: Key) -> tuple[Mono, Atom]:
        values = [v - _BIAS for v in self._struct.unpack(key.to_bytes(self._bytes, "big"))]
        return tuple(values[: self.n]), tuple(values[self.n :])

    def field(self, key: Key, f: int) -> int:
        return ((key >> self.shifts[f]) & _FIELD_MASK) - _BIAS

    def min_field(self, a: Sum, f: int) -> int:
        shift = self.shifts[f]
        return min((key >> shift) & _FIELD_MASK for key in a) - _BIAS

    def content(self, a: Sum) -> Key:
        """The key whose every field is the minimum of that field over a."""
        unpack, size = self._struct.unpack, self._bytes
        mins = map(min, zip(*(unpack(key.to_bytes(size, "big")) for key in a)))
        return sum(m << s for m, s in zip(mins, self.shifts))

    def check(self, keys) -> None:
        if reduce(or_, keys, 0) & self.guard:
            raise _range_error()


@lru_cache(maxsize=None)
def _layout(n: int, rate_denominator: int) -> _Layout:
    return _Layout(n, rate_denominator)


# ---------------------------------------------------------------------------
# sum-of-terms helpers (plain dicts keyed by packed ints, int values)
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)

# a float denominator at most this large in magnitude makes Expr.evaluate raise
DENOMINATOR_CUTOFF = 1e-12


# A rational content is a pair (n, d) of ints with d > 0 and gcd(n, d) == 1:
# the numerator and denominator that Fraction would hold.


def _qmul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """The product of an/ad and bn/bd, reduced by the cross gcds."""
    g, h = math.gcd(an, bd), math.gcd(bn, ad)
    return (an // g) * (bn // h), (ad // h) * (bd // g)


def _qdiv(n: int, d: int, k: int) -> tuple[int, int]:
    """The quotient of n/d by a nonzero int k."""
    g = math.gcd(n, k)
    n, d = n // g, d * (k // g)
    return (-n, -d) if d < 0 else (n, d)


def _common_content(pn: int, pd: int, qn: int, qd: int) -> tuple[int, int, int, int]:
    """(cn, cd, i, j) with p = c*i and q = c*j for c = cn/cd and coprime integers i, j."""
    if pn == qn and pd == qd:
        return pn, pd, 1, 1
    g = math.gcd(pn, qn)
    l = math.lcm(pd, qd)
    # a prime of g divides pn and qn, so neither pd nor qd: g/l is reduced
    return g, l, pn // g * (l // pd), qn // g * (l // qd)


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


def _smul(a: Sum, b: Sum, lay: _Layout) -> Sum:
    if not a or not b:
        return {}
    out: Sum = {}
    get = out.get
    base = lay.base
    terms_b = [(kb - base, cb) for kb, cb in b.items()]
    for ka, ca in a.items():
        for kb, cb in terms_b:
            key = ka + kb
            new = get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    lay.check(out)
    return out


def _sscale(a: Sum, k: int) -> Sum:
    return {key: c * k for key, c in a.items()} if k else {}


def _sshift(a: Sum, delta: int, lay: _Layout) -> Sum:
    """Every key moved by a packed delta (a monomial and/or rate shift)."""
    out = {key + delta: c for key, c in a.items()}
    lay.check(out)
    return out


def _spow(a: Sum, k: int, lay: _Layout) -> Sum:
    result = {lay.base: 1}
    base = a
    while k > 0:
        if k & 1:
            result = _smul(result, base, lay)
        k >>= 1
        if k:
            base = _smul(base, base, lay)
    return result


def _sdiff(a: Sum, i: int, lay: _Layout) -> Sum:
    """L * d/dx_i of a sum, for L the layout's rate denominator.

    The power rule lowers the monomial field by one; the atom contributes its
    rate field, rate * L, which is already an integer.
    """
    out: Sum = {}
    get = out.get
    mono_shift, atom_shift = lay.shifts[i], lay.shifts[lay.n + i]
    unit, rden = lay.units[i], lay.rate_denominator
    for key, coeff in a.items():
        k = ((key >> mono_shift) & _FIELD_MASK) - _BIAS
        if k > 0:
            low = key - unit
            new = get(low, 0) + coeff * k * rden
            if new:
                out[low] = new
            else:
                del out[low]
        lam = ((key >> atom_shift) & _FIELD_MASK) - _BIAS
        if lam:
            new = get(key, 0) + coeff * lam
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def coordinate_values(chart: Chart, point: Mapping[str, float] | Sequence[float]) -> list[float]:
    """Float coordinates of a point given by coordinate name or in chart order."""
    # a list or tuple skips the Mapping check, which costs more than the conversion
    if not isinstance(point, (list, tuple)) and isinstance(point, Mapping):
        return [float(point[c]) for c in chart.coordinates]
    xs = [float(v) for v in point]
    if len(xs) != chart.dimension:
        raise ExprError("point has wrong dimension")
    return xs


@lru_cache(maxsize=4096)
def _mono_pairs(lay: _Layout, bits: int) -> tuple:
    """Nonzero (axis, exponent) pairs of the monomial fields ``key >> lay.split``."""
    mono, _atom = lay.unpack((bits << lay.split) | lay.atom_base)
    return tuple((i, k) for i, k in enumerate(mono) if k)


@lru_cache(maxsize=4096)
def _atom_pairs(lay: _Layout, bits: int) -> tuple:
    """Nonzero (axis, float rate) pairs of the atom fields ``key & lay.atom_mask``."""
    _mono, atom = lay.unpack(bits | (lay.base & lay.mono_mask))
    rden = lay.rate_denominator
    return tuple((i, lam / rden) for i, lam in enumerate(atom) if lam)


def _float_table(coeffs, a: Sum, lay: _Layout) -> list:
    """(float coefficient, _mono_pairs, _atom_pairs) per term of a sum, in key order."""
    split, atom_mask = lay.split, lay.atom_mask
    return [
        (value, _mono_pairs(lay, key >> split), _atom_pairs(lay, key & atom_mask))
        for value, key in zip(coeffs, a)
    ]


def _seval(table: list, xs: Sequence[float]) -> float:
    """Float value of a sum from its _float_table."""
    total = 0.0
    for value, mono, atom in table:
        for i, k in mono:
            value *= xs[i] ** k
        arg = 0.0
        for i, lam in atom:
            arg += lam * xs[i]
        if arg:
            value *= math.exp(arg)
        total += value
    return total


def _seval_exact(a: Sum, xs: Sequence[Fraction], lay: _Layout) -> Fraction:
    total = _F0
    for key, coeff in a.items():
        mono, atom = lay.unpack(key)
        arg = _F0
        for x, lam in zip(xs, atom):
            arg += lam * x
        if arg != 0:
            raise ExactEvaluationError(
                "exponential atom does not vanish at the point (value %s)"
                % (arg / lay.rate_denominator)
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

    __slots__ = ("chart", "_lay", "_sn", "_sd", "_num", "_dmono", "_dbase", "_dexp")

    def __init__(
        self,
        chart: Chart,
        lay: _Layout,
        sn: int,
        sd: int,
        num: Sum,
        dmono: Key,
        dbase: Sum | None,
        dexp: int,
    ):
        # Internal constructor: callers go through _make/_from_num_den.
        self.chart = chart
        self._lay = lay
        self._sn = sn
        self._sd = sd
        self._num = num
        self._dmono = dmono
        self._dbase = dbase
        self._dexp = dexp

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(
        cls,
        chart: Chart,
        lay: _Layout,
        sn: int,
        sd: int,
        num: Sum,
        dmono: Key,
        dbase: Sum | None,
        dexp: int,
    ) -> "Expr":
        if not num:
            return cls.zero(chart)
        if dbase is not None and dexp == 0:
            dbase = None
        if dmono & lay.guard:
            raise _range_error()
        if dmono != lay.base:
            cancel = 0
            for i in range(lay.n):
                d = lay.field(dmono, i)
                if d:
                    c = min(lay.min_field(num, i), d)
                    if c:
                        cancel += c * lay.units[i]
            if cancel:
                num = _sshift(num, -cancel, lay)
                dmono -= cancel
        content = math.gcd(*num.values())
        if content != 1:
            num = {key: coeff // content for key, coeff in num.items()}
            g = math.gcd(content, sd)
            sn, sd = sn * (content // g), sd // g
        return cls(chart, lay, sn, sd, num, dmono, dbase, dexp)

    @classmethod
    def _from_num_den(
        cls, chart: Chart, lay: _Layout, sn: int, sd: int, num: Sum, den: Sum
    ) -> "Expr":
        """The quotient (sn/sd) * num / den, normalizing the denominator."""
        if not den:
            raise DivisionByZeroExprError("division by canonical zero")
        if not num:
            return cls.zero(chart)
        content = lay.content(den)
        mono_c = (content & lay.mono_mask) | lay.atom_base
        stripped = _sshift(den, lay.base - content, lay)
        factor = math.gcd(*stripped.values())
        if stripped[max(stripped)] < 0:
            factor = -factor
        if factor != 1:
            stripped = {key: coeff // factor for key, coeff in stripped.items()}
        # num / (factor * exp(atom content) * x^mono_c * stripped)
        num = _sshift(num, mono_c - content, lay)
        sn, sd = _qdiv(sn, sd, factor)
        if len(stripped) == 1:
            # after content stripping a single-term denominator is exactly 1
            return cls._make(chart, lay, sn, sd, num, mono_c, None, 0)
        return cls._make(chart, lay, sn, sd, num, mono_c, stripped, 1)

    @classmethod
    def zero(cls, chart: Chart) -> "Expr":
        lay = _layout(chart.dimension, chart.rate_denominator)
        return cls(chart, lay, 1, 1, {}, lay.base, None, 0)

    @classmethod
    def constant(cls, chart: Chart, value) -> "Expr":
        value = Fraction(value)
        if value == 0:
            return cls.zero(chart)
        lay = _layout(chart.dimension, chart.rate_denominator)
        return cls(chart, lay, value.numerator, value.denominator, {lay.base: 1}, lay.base, None, 0)

    @classmethod
    def one(cls, chart: Chart) -> "Expr":
        return cls.constant(chart, 1)

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "Expr":
        try:
            i = chart.axis(name)
        except KeyError:
            raise UnknownCoordinateError("unknown coordinate %r" % name) from None
        lay = _layout(chart.dimension, chart.rate_denominator)
        return cls(chart, lay, 1, 1, {lay.base + lay.units[i]: 1}, lay.base, None, 0)

    @classmethod
    def exponential(cls, chart: Chart, coefficients: Sequence) -> "Expr":
        """exp of sum(coefficients[i] * x_i); each coefficient must be a multiple of 1/L."""
        n = chart.dimension
        rates = [Fraction(c) for c in coefficients]
        if len(rates) != n:
            raise ExprError("exponential atom needs %d coefficients" % n)
        rden = chart.rate_denominator
        if any(rden % r.denominator for r in rates):
            raise RateDenominatorError(math.lcm(*(r.denominator for r in rates)), rden)
        lay = _layout(n, rden)
        key = lay.pack((0,) * n, [r.numerator * (rden // r.denominator) for r in rates])
        return cls(chart, lay, 1, 1, {key: 1}, lay.base, None, 0)

    # -- structure ----------------------------------------------------------

    @property
    def is_symbolically_zero(self) -> bool:
        return not self._num

    @property
    def denominator_is_one(self) -> bool:
        return self._dbase is None and self._dmono == self._lay.base

    def _den_sum(self) -> Sum:
        """Expanded denominator x^dmono * B^dexp (primitive, positive leading term)."""
        lay = self._lay
        out = {lay.base: 1} if self._dbase is None else _spow(self._dbase, self._dexp, lay)
        if self._dmono != lay.base:
            out = _sshift(out, self._dmono - lay.base, lay)
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
        if other._num is self._num and other._dbase is self._dbase and other._dmono == self._dmono:
            # x + (-x) where -x shares x's terms: the zero the sum below would reach
            if other._dexp == self._dexp and other._sn == -self._sn and other._sd == self._sd:
                return Expr.zero(self.chart)
        a, b, lay = self, other, self._lay
        sn, sd, ka, kb = _common_content(a._sn, a._sd, b._sn, b._sd)
        if a._dmono == b._dmono and a._dbase == b._dbase and a._dexp == b._dexp:
            num = _sadd(a._num, b._num, ka, kb)
            return Expr._make(a.chart, lay, sn, sd, num, a._dmono, a._dbase, a._dexp)
        if a._dbase is None or b._dbase is None or a._dbase == b._dbase:
            base = a._dbase if a._dbase is not None else b._dbase
            ea = a._dexp if a._dbase is not None else 0
            eb = b._dexp if b._dbase is not None else 0
            e = max(ea, eb)
            dmono = a._dmono
            if b._dmono != dmono:
                mono_a, mono_b = lay.unpack(a._dmono)[0], lay.unpack(b._dmono)[0]
                dmono = lay.pack(map(max, mono_a, mono_b))
            terms = []
            for part, ep in ((a, ea), (b, eb)):
                term = part._num
                if base is not None and e - ep:
                    term = _smul(term, _spow(base, e - ep, lay), lay)
                if dmono != part._dmono:
                    term = _sshift(term, dmono - part._dmono, lay)
                terms.append(term)
            num = _sadd(terms[0], terms[1], ka, kb)
            return Expr._make(a.chart, lay, sn, sd, num, dmono, base, e)
        da, db = a._den_sum(), b._den_sum()
        if da == db:
            num = _sadd(a._num, b._num, ka, kb)
            return Expr._from_num_den(a.chart, lay, sn, sd, num, da)
        num = _sadd(_smul(a._num, db, lay), _smul(b._num, da, lay), ka, kb)
        return Expr._from_num_den(a.chart, lay, sn, sd, num, _smul(da, db, lay))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(
            self.chart,
            self._lay,
            -self._sn,
            self._sd,
            self._num,
            self._dmono,
            self._dbase,
            self._dexp,
        )

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
        if not self._num:
            return self
        if not other._num:
            return other
        a, b, lay = self, other, self._lay
        sn, sd = _qmul(a._sn, a._sd, b._sn, b._sd)
        num = _smul(a._num, b._num, lay)
        dmono = a._dmono + b._dmono - lay.base
        if a._dbase is None or b._dbase is None or a._dbase == b._dbase:
            base = a._dbase if a._dbase is not None else b._dbase
            e = (a._dexp if a._dbase is not None else 0) + (b._dexp if b._dbase is not None else 0)
            return Expr._make(a.chart, lay, sn, sd, num, dmono, base, e)
        den = _smul(_spow(a._dbase, a._dexp, lay), _spow(b._dbase, b._dexp, lay), lay)
        return Expr._make(a.chart, lay, sn, sd, num, dmono, den, 1)

    __rmul__ = __mul__

    def _reciprocal(self) -> "Expr":
        if not self._num:
            raise DivisionByZeroExprError("division by canonical zero")
        sn, sd = (-self._sd, -self._sn) if self._sn < 0 else (self._sd, self._sn)
        return Expr._from_num_den(self.chart, self._lay, sn, sd, self._den_sum(), self._num)

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
        lay = self._lay
        dmono = self._dmono
        if dmono != lay.base:
            dmono = lay.pack([v * k for v in lay.unpack(dmono)[0]])
        return Expr._make(
            self.chart,
            lay,
            self._sn**k,
            self._sd**k,
            _spow(self._num, k, lay),
            dmono,
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
        lay = self._lay
        rden = lay.rate_denominator
        num, base = self._num, self._dbase
        sn, sd = _qdiv(self._sn, self._sd, rden)
        if base is None and self._dmono == lay.base:
            out = _sdiff(num, i, lay)
            return Expr._make(self.chart, lay, sn, sd, out, self._dmono, None, 0)
        unit = lay.units[i]
        out = _sshift(_sdiff(num, i, lay), unit, lay)
        d = lay.field(self._dmono, i)
        if d:
            out = _sadd(out, _sscale(num, -d * rden))
        if base is not None:
            correction = _smul(_sshift(num, unit, lay), _sdiff(base, i, lay), lay)
            correction = _sscale(correction, -self._dexp)
            out = _sadd(_smul(out, base, lay), correction)
            dexp = self._dexp + 1
        else:
            dexp = 0
        return Expr._make(self.chart, lay, sn, sd, out, self._dmono + unit, base, dexp)

    # -- evaluation ----------------------------------------------------------

    def _float_tables(self) -> tuple:
        lay = self._lay
        lead, den_terms = 1, None
        if self._dbase is not None:
            lead = self._dbase[max(self._dbase)]
            monic = (coeff / lead for coeff in self._dbase.values())
            den_terms = _float_table(monic, self._dbase, lay)
        p, q = self._sn, self._sd * lead**self._dexp
        terms = _float_table((p * coeff / q for coeff in self._num.values()), self._num, lay)
        dmono = tuple((i, k) for i, k in enumerate(lay.unpack(self._dmono)[0]) if k)
        return terms, dmono, den_terms

    def evaluate(self, point: Mapping[str, float] | Sequence[float]) -> float:
        """Floating evaluation; raises if the denominator nearly vanishes or a float overflows."""
        xs = coordinate_values(self.chart, point)
        if not self._num:
            return 0.0
        try:
            terms, dmono, den_terms = self._float_tables()
            den = 1.0
            for i, k in dmono:
                den *= xs[i] ** k
            if den_terms is not None:
                den *= _seval(den_terms, xs) ** self._dexp
            if abs(den) <= DENOMINATOR_CUTOFF:
                raise DegenerateEvaluationError(
                    "denominator %r vanishes at %r (|value| = %g)" % (self.den_string(), xs, abs(den))
                )
            return _seval(terms, xs) / den
        except OverflowError:
            raise DegenerateEvaluationError("value overflows a float at %r" % xs) from None

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Exact rational evaluation; only possible where every atom vanishes."""
        xs = [Fraction(v) for v in point]
        if len(xs) != self.chart.dimension:
            raise ExprError("point has wrong dimension")
        if not self._num:
            return _F0
        lay = self._lay
        den = _F1
        for x, k in zip(xs, lay.unpack(self._dmono)[0]):
            if k:
                den *= x**k
        if self._dbase is not None:
            den *= _seval_exact(self._dbase, xs, lay) ** self._dexp
        if den == 0:
            raise ExactEvaluationError("denominator vanishes at the point")
        return Fraction(self._sn, self._sd) * _seval_exact(self._num, xs, lay) / den

    def provably_nonvanishing(self) -> bool:
        """True when the expression provably has no real zeros.

        Only the easy certificate is attempted: a single-term numerator with
        no monomial part (a nonzero rational times an exponential) never
        vanishes.  Multi-term sums may or may not have zeros; False means
        "unknown", not "has a zero".
        """
        if len(self._num) != 1:
            return False
        (key,) = self._num
        return not any(self._lay.unpack(key)[0])

    def as_rational_constant(self) -> Fraction | None:
        """The exact rational value if the expression is constant, else None.

        A constant c makes the numerator c x^d B^e, so the leading terms agree; key order is
        a monomial order, so lead(x^d B^e) = d + e (max(B) - base) without expanding B^e.
        """
        if not self._num:
            return _F0
        lead, expected = max(self._num), self._dmono
        if self._dbase is not None:
            expected += self._dexp * (max(self._dbase) - self._lay.base)
        if lead != expected:
            return None
        guess = Fraction(self._sn * self._num[lead], self._sd * self._den_lead())
        return guess if (self - guess).is_symbolically_zero else None

    # -- printing ------------------------------------------------------------

    # The printed form divides numerator and denominator by lead(B)^e, which
    # makes the expanded denominator monic.

    def num_string(self) -> str:
        factor = Fraction(self._sn, self._sd * self._den_lead())
        return self._format_sum({key: factor * coeff for key, coeff in self._num.items()})

    def den_string(self) -> str:
        lead = self._den_lead()
        terms = {key: Fraction(coeff, lead) for key, coeff in self._den_sum().items()}
        return self._format_sum(terms)

    def _format_sum(self, terms: dict) -> str:
        if not terms:
            return "0"
        lay, chart = self._lay, self.chart
        rden = lay.rate_denominator
        parts: list[str] = []
        for key in sorted(terms, reverse=True):
            mono, atom = lay.unpack(key)
            if rden != 1:
                atom = tuple(Fraction(v, rden) for v in atom)
            coeff = terms[key]
            body = _format_term(coeff, mono, atom, chart)
            if not parts:
                parts.append("-" + body if coeff < 0 else body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        num = self.num_string()
        if self.denominator_is_one:
            return num
        return "(%s)/(%s)" % (num, self.den_string())

    def __repr__(self) -> str:
        return "Expr(%s)" % self


# ---------------------------------------------------------------------------
# residues modulo a prime
# ---------------------------------------------------------------------------

RESIDUE_PRIME = (1 << 61) - 1
# any fixed seed will do: a nonzero residue is a proof at every point
_FORMAL_SEED = 61


class NonUnitResidueError(ExprError):
    """A denominator or coefficient denominator vanishes modulo the prime at the formal point."""


def formal_values(n: int) -> tuple[list[int], list[int]]:
    """The seeded residues of x_1..x_n and of E_1..E_n at the formal point."""
    rng = random.Random(_FORMAL_SEED)
    draw = [rng.randrange(2, RESIDUE_PRIME) for _ in range(2 * n)]
    return draw[:n], draw[n:]


class FormalPoint:
    """A ring map from expressions to the integers modulo ``RESIDUE_PRIME``.

    Every expression on the chart is a polynomial in the x_i and the
    E_i = e^{x_i/L} and their inverses over a denominator of the same kind,
    where L is the chart's rate denominator: a key's rate field is the power
    of E_i.  Sending x_i and E_i to the seeded residues of
    :func:`formal_values` is a ring homomorphism wherever the denominators
    stay units, so a sum of products of residues is the residue of the exact
    sum of products, and an exactly zero expression has residue 0.  Term
    values are cached per packed key.
    """

    __slots__ = ("xs", "es", "inverses", "_terms")

    def __init__(self, chart: Chart):
        self.xs, self.es = formal_values(chart.dimension)
        if not all(e % RESIDUE_PRIME for e in self.es):
            raise NonUnitResidueError("an exponential vanishes at the formal point")
        self.inverses = [pow(e, -1, RESIDUE_PRIME) for e in self.es]
        self._terms: dict[Key, int] = {}

    def _sum(self, a: Sum, lay: _Layout) -> int:
        terms, p = self._terms, RESIDUE_PRIME
        total = 0
        for key, coeff in a.items():
            value = terms.get(key)
            if value is None:
                mono, atom = lay.unpack(key)
                value = 1
                for x, k in zip(self.xs, mono):
                    if k:
                        value = value * pow(x, k, p) % p
                for e, inverse, lam in zip(self.es, self.inverses, atom):
                    if lam:
                        value = value * pow(e if lam > 0 else inverse, abs(lam), p) % p
                terms[key] = value
            total += coeff * value
        return total % p

    def residue(self, expr: Expr) -> int:
        """``expr`` modulo the prime at this point; raises ``NonUnitResidueError``."""
        if not expr._num:
            return 0
        lay, p = expr._lay, RESIDUE_PRIME
        den = self._sum({expr._dmono: 1}, lay) * expr._sd
        if expr._dbase is not None:
            den *= pow(self._sum(expr._dbase, lay), expr._dexp, p)
        if den % p == 0:
            raise NonUnitResidueError("a denominator vanishes at the formal point")
        return expr._sn * self._sum(expr._num, lay) * pow(den, -1, p) % p


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
        coefficients = [_F0] * self.chart.dimension
        for key, coeff in inner._num.items():
            mono, atom = inner._lay.unpack(key)
            if any(atom) or sum(mono) != 1:
                raise NonLinearExpArgumentError(
                    "argument of exp must be a linear form in the coordinates "
                    "with no constant part, got %s" % inner
                )
            coefficients[mono.index(1)] += Fraction(inner._sn * coeff, inner._sd)
        return Expr.exponential(self.chart, coefficients)


def parse(source: str, chart: Chart) -> Expr:
    """Parse an expression string against a chart's coordinates."""
    return _Parser(source, chart).parse()
