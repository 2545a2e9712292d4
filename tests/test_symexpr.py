"""Expression ring: parsing, canonicalization, calculus, evaluation."""

import math
import random
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st

from parasol import symexpr
from parasol.chart import Chart, ChartError
from parasol.symexpr import (
    DegenerateEvaluationError,
    DivisionByZeroExprError,
    ExactEvaluationError,
    Expr,
    ExprError,
    NonLinearExpArgumentError,
    ParseError,
    UnknownCoordinateError,
    _layout,
    _smul,
    coordinate_values,
    parse,
)

CHART = Chart.make(["x", "y", "z"])
CHART5 = Chart.make(["x", "y", "z", "t", "s"])
# exp rates in halves
HALVES = Chart.make(["x", "y", "z"], rate_denominator=2)


def P(source, chart=CHART):
    return parse(source, chart)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_exp_sugar_matches_exp_function():
    assert P("e^(2*z)") == P("exp(2*z)")


def test_parse_polynomial():
    assert P("1 - y^2") == Expr.one(CHART) - Expr.coordinate(CHART, "y") ** 2


def test_parse_cancels_common_factor():
    assert str(P("x/(x)")) == "1"


def test_parse_decimal_is_exact():
    assert P("0.5") == Expr.constant(CHART, Fraction(1, 2))
    assert P("2.25*x") == P("9/4*x")


def test_parse_negative_exponent():
    assert P("x^-2") == 1 / (Expr.coordinate(CHART, "x") ** 2)


def test_parse_rational_coefficient():
    e = P("3/2*x")
    assert e == Expr.constant(CHART, Fraction(3, 2)) * Expr.coordinate(CHART, "x")


def test_parse_unary_minus():
    assert P("-x + 1") == 1 - Expr.coordinate(CHART, "x")


def test_parse_exp_with_rational_coefficients():
    e = P("exp(1/2*x - 3*z)", HALVES)
    assert e == Expr.exponential(HALVES, [Fraction(1, 2), 0, Fraction(-3)])


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        P("x + * y")
    assert info.value.position == 4


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'w'"):
        P("x + w")


def test_parse_nonlinear_exp_argument():
    with pytest.raises(NonLinearExpArgumentError):
        P("exp(x*y)")
    with pytest.raises(NonLinearExpArgumentError):
        P("exp(x + 1)")
    with pytest.raises(NonLinearExpArgumentError):
        P("exp(x^2)")


def test_parse_non_integer_exponent():
    with pytest.raises(ParseError, match="integer"):
        P("x^1.5")
    with pytest.raises(ParseError):
        P("x^y")


def test_parse_trailing_input():
    with pytest.raises(ParseError):
        P("x + 1) * 2")


def test_parse_division_by_zero():
    with pytest.raises(ParseError, match="division by zero"):
        P("1/(x - x)")


def test_reserved_coordinate_names_rejected():
    with pytest.raises(ChartError):
        Chart.make(["e", "y"])
    with pytest.raises(ChartError):
        Chart.make(["exp", "y"])


# ---------------------------------------------------------------------------
# arithmetic and canonical form
# ---------------------------------------------------------------------------


def test_exponential_atoms_merge():
    assert str(P("exp(z)*exp(-z)")) == "1"


def test_a_sum_with_its_own_negation_is_zero_at_once(monkeypatch):
    # -x shares x's terms, so x + (-x) and x - x need no term-by-term sum;
    # an equal-valued -x built another way still cancels term by term
    x = P("x*y - 3/2*exp(-x)/(1 + y^2)")
    calls = []
    add = symexpr._sadd
    monkeypatch.setattr(symexpr, "_sadd", lambda *args: calls.append(1) or add(*args))
    for total in (x + (-x), -x + x, x - x):
        assert total.is_symbolically_zero and str(total) == "0"
    assert calls == []
    other = P("3/2*exp(-x)/(1 + y^2) - x*y")
    assert str(other) == str(-x) and other._num is not x._num
    assert (x + other).is_symbolically_zero
    assert calls
    assert not (x + x).is_symbolically_zero  # the same object, not its negation


def test_binomial_expansion_cancels():
    assert P("(x+y)^2 - (x^2 + 2*x*y + y^2)").is_zero()


def test_quotient_with_nontrivial_denominator():
    # denominator fixed by the 5-dimensional example metric: det g2 = 1 + y^2 - t^2
    e = 1 / parse("1 + y^2 - t^2", CHART5)
    assert e.den_string() == "y^2 - t^2 + 1"
    assert not e.denominator_is_one


def test_division_by_canonical_zero_raises():
    zero = P("exp(2*z)*exp(-2*z) - 1")
    with pytest.raises(DivisionByZeroExprError):
        P("x") / zero


def test_integer_power_negative_inverts():
    e = P("(1 + x)")
    assert e ** -2 == 1 / (e * e)


def test_denominator_is_monic_and_content_free():
    e = P("1/(2*x^2 + 2*x^3)")
    # leading coefficient normalized to 1, monomial content cancelled upward
    assert e.den_string() == "x^3 + x^2"
    assert str(e) == "(1/2)/(x^3 + x^2)"


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_differentiate_exponential():
    assert P("exp(2*z)").differentiate("z") == P("2*exp(2*z)")


def test_differentiate_monomial():
    assert P("y*x^2").differentiate("x") == P("2*x*y")


def test_differentiate_product_with_exponential():
    assert P("z*exp(2*z)").differentiate("z") == P("(2*z + 1)*exp(2*z)")


def test_differentiate_quotient_rule():
    e = 1 / P("1 + y^2")
    expected = P("-2*y") / (P("1 + y^2") ** 2)
    assert e.differentiate("y") == expected


def test_differentiate_unknown_coordinate():
    with pytest.raises(UnknownCoordinateError):
        P("x").differentiate("w")


def test_differentiate_is_linear_seeded():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_expr(rng)
        b = _random_expr(rng)
        name = rng.choice(CHART.coordinates)
        lhs = (a + b).differentiate(name)
        rhs = a.differentiate(name) + b.differentiate(name)
        assert (lhs - rhs).is_zero()


def test_product_rule_symbolic_100_seeded_pairs():
    rng = random.Random(42)
    for _ in range(100):
        a = _random_expr(rng)
        b = _random_expr(rng)
        name = rng.choice(CHART.coordinates)
        lhs = (a * b).differentiate(name)
        rhs = a.differentiate(name) * b + a * b.differentiate(name)
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_exponential_at_origin():
    assert P("exp(2*z)").evaluate({"x": 0.0, "y": 0.0, "z": 0.0}) == 1.0


def test_evaluate_linear():
    assert P("x + 2*y").evaluate({"x": 1.0, "y": 2.0, "z": 0.0}) == 5.0


def test_evaluate_example_determinant_value():
    # det g2 = 1 + y^2 - t^2 evaluated at (y, t) = (0, 2)
    e = parse("1 + y^2 - t^2", CHART5)
    assert e.evaluate({"x": 0.0, "y": 0.0, "z": 0.0, "t": 2.0, "s": 0.0}) == -3.0


def test_evaluate_near_zero_denominator_raises():
    e = 1 / P("x")
    with pytest.raises(DegenerateEvaluationError):
        e.evaluate({"x": 0.0, "y": 0.0, "z": 0.0})


def test_converted_point_of_another_dimension_is_rejected():
    xs = coordinate_values(CHART5, [0, 1, 2, 3, 4])
    with pytest.raises(ExprError):
        P("x + y").evaluate(xs)
    with pytest.raises(ExprError):
        P("x + y").evaluate([1.0, 2.0])


def test_evaluate_exact_rational():
    e = P("(1 - y^2)/(1 + y^2)")
    value = e.evaluate_exact([Fraction(0), Fraction(1, 2), Fraction(0)])
    assert value == Fraction(3, 5)


def test_as_rational_constant_sees_through_quotients():
    assert P("(x+1)/(x+1)").as_rational_constant() == 1
    assert P("x").as_rational_constant() is None


def test_as_rational_constant_does_not_depend_on_the_base_point():
    # at z = 1/2 no exp atom vanishes, so the base point cannot be evaluated exactly
    chart = Chart.make(["x", "y", "z"], base_point=[0, 0, "1/2"])
    square = P("(1 + exp(z))^2", chart)
    assert str(square / square) == "(exp(2*z) + 2*exp(z) + 1)/(exp(2*z) + 2*exp(z) + 1)"
    with pytest.raises(ExactEvaluationError):
        square.evaluate_exact(chart.base_point)
    assert (square / square).as_rational_constant() == 1
    # a power B^e of the denominator base, and content in the numerator
    cube = P("1/(1 + exp(z))", chart) ** 3
    assert (P("-2*(1 + exp(z))^3/3", chart) * cube).as_rational_constant() == Fraction(-2, 3)
    assert (P("exp(z)", chart) * cube).as_rational_constant() is None
    assert (P("x + exp(z)", chart) / P("x + exp(z) + 1", chart)).as_rational_constant() is None
    assert P("exp(z)*exp(-z)", chart).as_rational_constant() == 1


# ---------------------------------------------------------------------------
# zero testing and equality
# ---------------------------------------------------------------------------


def test_is_zero_on_atom_cancellation():
    assert P("exp(2*z)*exp(-2*z) - 1").is_zero()


def test_is_zero_false_on_difference():
    assert not P("x - y").is_zero()


def test_canonical_equality_is_numerically_sound():
    rng = random.Random(11)
    pairs = [
        (P("(x+y)^2"), P("x^2 + 2*x*y + y^2")),
        (P("exp(z)*exp(z)"), P("exp(2*z)")),
        (P("(1 - y^2)/(1 - y)") * P("1 - y"), P("1 - y^2")),
    ]
    for a, b in pairs:
        assert (a - b).is_zero()
        for _ in range(20):
            point = {c: rng.uniform(-1, 1) for c in CHART.coordinates}
            va, vb = a.evaluate(point), b.evaluate(point)
            assert abs(va - vb) <= 1e-9 * (1 + abs(va))


def test_evaluation_homomorphism_100_seeded_triples():
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        a = _random_expr(rng)
        b = _random_expr(rng)
        point = {c: rng.uniform(-1, 1) for c in CHART.coordinates}
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
            vsum = (a + b).evaluate(point)
            vprod = (a * b).evaluate(point)
        except DegenerateEvaluationError:
            continue
        scale = max(1.0, abs(va) + abs(vb))
        assert abs(vsum - (va + vb)) <= 1e-12 * scale
        assert abs(vprod - va * vb) <= 1e-12 * max(1.0, abs(va) * abs(vb))
        checked += 1


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------


def test_roundtrip_on_fixture_style_expressions():
    for source in (
        "exp(2*z)",
        "1 - y^2",
        "-y*z",
        "(1 - y^2)/(1 + y^2 - z^2)",
        "3/2*x^2*exp(-2*z) - 1/2",
        "exp(1/2*x - 3*z) + x*y*z",
    ):
        e = P(source, HALVES)
        printed = str(e)
        reparsed = parse(printed, HALVES)
        assert str(reparsed) == printed
        assert reparsed == e


def test_roundtrip_on_random_expressions():
    rng = random.Random(2024)
    for _ in range(60):
        e = _random_expr(rng)
        printed = str(e)
        reparsed = parse(printed, CHART)
        assert str(reparsed) == printed
        assert reparsed == e


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=3, max_size=3
    ),
    exponents=st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
)
def test_roundtrip_single_term_property(coeffs, exponents):
    chart = Chart.make(CHART.coordinates, rate_denominator=60)  # lcm(1, ..., 6)
    term = Expr.constant(chart, Fraction(7, 3))
    for name, k, lam in zip(chart.coordinates, exponents, coeffs):
        term = term * Expr.coordinate(chart, name) ** k
    term = term * Expr.exponential(chart, coeffs)
    printed = str(term)
    assert parse(printed, chart) == term


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(min_value=0, max_value=5))
def test_integer_power_matches_repeated_multiplication(k):
    e = P("1 + x - 2*y + exp(z)")
    by_pow = e**k
    by_mul = Expr.one(CHART)
    for _ in range(k):
        by_mul = by_mul * e
    assert by_pow == by_mul


# ---------------------------------------------------------------------------
# seeded random expressions
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random) -> Expr:
    total = Expr.zero(CHART)
    for _ in range(rng.randint(1, 4)):
        term = Expr.constant(CHART, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for name in CHART.coordinates:
            power = rng.choice((0, 0, 0, 1, 1, 2))
            if power:
                term = term * Expr.coordinate(CHART, name) ** power
        if rng.random() < 0.4:
            term = term * Expr.exponential(
                CHART, [Fraction(rng.randint(-2, 2)) for _ in CHART.coordinates]
            )
        total = total + term
    return total


def _random_expr(rng: random.Random) -> Expr:
    num = _random_poly(rng)
    if rng.random() < 0.3:
        den = _random_poly(rng)
        if not den.is_symbolically_zero:
            return num / den
    return num


def test_provably_nonvanishing_certificates():
    assert P("exp(4*z)").provably_nonvanishing()
    assert P("-3/2*exp(z - x)").provably_nonvanishing()
    assert not P("x*exp(z)").provably_nonvanishing()  # vanishes on x = 0
    assert not P("1 + y^2 - z^2").provably_nonvanishing()  # sum: unknown
    assert not P("x - x").provably_nonvanishing()


def test_canonical_form_independent_of_construction_order():
    rng = random.Random(17)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(2, 5)):
            term = Expr.constant(CHART, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for name in CHART.coordinates:
                power = rng.choice((0, 0, 1, 2))
                if power:
                    term = term * Expr.coordinate(CHART, name) ** power
            if rng.random() < 0.5:
                term = term * Expr.exponential(
                    CHART, [Fraction(rng.randint(-1, 1)) for _ in CHART.coordinates]
                )
            terms.append(term)
        forward = Expr.zero(CHART)
        for term in terms:
            forward = forward + term
        shuffled = list(terms)
        rng.shuffle(shuffled)
        backward = Expr.zero(CHART)
        for term in shuffled:
            backward = backward + term
        assert str(forward) == str(backward)
        # and through a quotient: (sum)/d built two ways prints identically
        denominator = P("1 + x^2")
        assert str(forward / denominator) == str(backward / denominator)


# ---------------------------------------------------------------------------
# the rational content: a pair of ints, against Fraction as the oracle
# ---------------------------------------------------------------------------


def _random_int(rng: random.Random) -> int:
    """A nonzero int of either sign, up to 2^3, 2^20, 2^64 or 2^80 in magnitude."""
    value = rng.randint(1, 1 << rng.choice((3, 20, 64, 80)))
    return value if rng.random() < 0.5 else -value


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(_random_int(rng), abs(_random_int(rng)))


def _pair(q: Fraction) -> tuple[int, int]:
    return q.numerator, q.denominator


def _content(expr: Expr) -> tuple[int, int]:
    return expr._sn, expr._sd


def test_content_arithmetic_matches_fraction_seeded():
    rng = random.Random(29)
    for _ in range(500):
        p = _random_fraction(rng)
        q = p if rng.random() < 0.1 else _random_fraction(rng)
        k = _random_int(rng)
        assert symexpr._qmul(*_pair(p), *_pair(q)) == _pair(p * q)
        assert symexpr._qdiv(*_pair(p), k) == _pair(p / k)
        cn, cd, i, j = symexpr._common_content(*_pair(p), *_pair(q))
        assert (cn, cd) == _pair(Fraction(cn, cd))
        assert (Fraction(cn, cd) * i, Fraction(cn, cd) * j) == (p, q)
        assert math.gcd(i, j) == 1
        if p == q:  # the content keeps the sign: the numerators are not negated
            assert (cn, cd, i, j) == (p.numerator, p.denominator, 1, 1)
        # a constant's one term has coefficient 1, so its content is its value
        constant = Expr.constant(CHART, p)
        assert _content(constant) == _pair(p)
        assert _content(constant._reciprocal()) == _pair(1 / p)
        k = rng.randint(1, 4)
        assert _content(constant**k) == _pair(p**k)


def test_every_result_keeps_a_reduced_content_seeded():
    rng = random.Random(31)
    binary = {"+": add, "-": sub, "*": mul, "/": truediv}
    for _ in range(60):
        value = _random_expr(rng)
        for _ in range(5):
            op = rng.choice(("+", "-", "*", "/", "**", "d", "c"))
            if op == "d":
                value = value.differentiate(rng.choice(CHART.coordinates))
            elif op == "c":
                value = value * Expr.constant(CHART, _random_fraction(rng))
            elif op == "**":
                value = value ** rng.randint(-2 if value._num else 0, 2)
            else:
                other = _random_expr(rng)
                if op == "/" and other.is_symbolically_zero:
                    continue
                value = binary[op](value, other)
            assert value._sd > 0 and math.gcd(value._sn, value._sd) == 1, (op, value)


# ---------------------------------------------------------------------------
# the integer-keyed ring against a Fraction-only reference
# ---------------------------------------------------------------------------

CHART2 = Chart.make(["x", "y"], rate_denominator=6)
NAMES = CHART2.coordinates
RATES = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3)]
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
ONE_KEY = ((0, 0), (Fraction(0), Fraction(0)))

TERMS = st.lists(
    st.tuples(
        st.sampled_from(COEFFS),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)),
    ),
    min_size=1,
    max_size=4,
)

# A reference sum maps (monomial, rates as Fractions) to a Fraction coefficient.


def _ref_add(a, b):
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + coeff
        if out[key] == 0:
            del out[key]
    return out


def _ref_shift(a, mono_shift=(0, 0), atom_shift=(0, 0), factor=1):
    out = {}
    for (mono, atom), coeff in a.items():
        key = (tuple(map(add, mono, mono_shift)), tuple(map(add, atom, atom_shift)))
        out[key] = coeff * factor
    return out


def _ref_mul(a, b):
    out = {}
    for (mono, atom), coeff in a.items():
        out = _ref_add(out, _ref_shift(b, mono, atom, coeff))
    return out


def _ref_pow(a, k):
    out = {ONE_KEY: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a, i):
    out = {}
    for (mono, atom), coeff in a.items():
        if mono[i]:
            lowered = tuple(k - (j == i) for j, k in enumerate(mono))
            out = _ref_add(out, {(lowered, atom): coeff * mono[i]})
        if atom[i]:
            out = _ref_add(out, {(mono, atom): coeff * atom[i]})
    return out


def _ref_div(a, b):
    """(numerator, denominator) of a / b: monic, exponential-free, content-free."""
    if not a:
        return {}, None
    mono_c = tuple(min(mono[i] for mono, _ in b) for i in range(2))
    atom_c = tuple(min(atom[i] for _, atom in b) for i in range(2))
    stripped = _ref_shift(b, [-m for m in mono_c], [-r for r in atom_c])
    lead = stripped[max(stripped)]
    num = _ref_shift(a, atom_shift=[-r for r in atom_c], factor=1 / lead)
    cancel = [min(mono_c[i], min(mono[i] for mono, _ in num)) for i in range(2)]
    num = _ref_shift(num, [-c for c in cancel])
    mono_c = tuple(m - c for m, c in zip(mono_c, cancel))
    if len(stripped) == 1:
        return num, {(mono_c, ONE_KEY[1]): Fraction(1)}
    return num, _ref_shift(stripped, mono_c, factor=1 / lead)


def _ref_signed(parts, negative, body):
    if not parts:
        return ("-" if negative else "") + body
    return (" - " if negative else " + ") + body


def _ref_sum_str(terms):
    parts = []
    for mono, atom in sorted(terms, reverse=True):
        coeff = terms[(mono, atom)]
        factors = [name if k == 1 else "%s^%d" % (name, k) for name, k in zip(NAMES, mono) if k]
        if any(atom):
            linear = []
            for rate, name in zip(atom, NAMES):
                if rate:
                    body = name if abs(rate) == 1 else "%s*%s" % (abs(rate), name)
                    linear.append(_ref_signed(linear, rate < 0, body))
            factors.append("exp(%s)" % "".join(linear))
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        parts.append(_ref_signed(parts, coeff < 0, "*".join(factors)))
    return "".join(parts) or "0"


def _ref_str(num, den=None):
    if den is None or den == {ONE_KEY: 1}:
        return _ref_sum_str(num)
    return "(%s)/(%s)" % (_ref_sum_str(num), _ref_sum_str(den))


def _build(terms):
    """The same sum as an Expr and as a reference dict."""
    expr, ref = Expr.zero(CHART2), {}
    for coeff, mono, rates in terms:
        term = Expr.constant(CHART2, coeff) * Expr.exponential(CHART2, rates)
        for name, k in zip(NAMES, mono):
            term = term * Expr.coordinate(CHART2, name) ** k
        expr = expr + term
        ref = _ref_add(ref, {(mono, tuple(Fraction(r) for r in rates)): Fraction(coeff)})
    return expr, ref


def _assert_integer_keys(expr):
    """Packed keys decode to integral exponents and rates (each rate times the chart's L)."""
    lay = expr._lay
    assert lay.rate_denominator == expr.chart.rate_denominator
    for terms in (expr._num, expr._dbase or {}):
        for key, coeff in terms.items():
            assert type(key) is int and type(coeff) is int
            mono, atom = lay.unpack(key)
            assert all(type(k) is int and k >= 0 for k in mono), mono
            assert all(type(v) is int for v in atom), atom
            assert lay.pack(mono, atom) == key


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=TERMS, b=TERMS, k=st.integers(-2, 3), axis=st.integers(0, 1))
def test_ring_matches_fraction_reference(a, b, k, axis):
    ea, ra = _build(a)
    eb, rb = _build(b)
    cases = {
        "+": (ea + eb, _ref_str(_ref_add(ra, rb))),
        "*": (ea * eb, _ref_str(_ref_mul(ra, rb))),
        "d": (ea.differentiate(NAMES[axis]), _ref_str(_ref_diff(ra, axis))),
    }
    if rb:
        cases["/"] = (ea / eb, _ref_str(*_ref_div(ra, rb)))
        assert (ea / eb) * eb == ea
    if k >= 0:
        cases["**"] = (ea**k, _ref_str(_ref_pow(ra, k)))
    elif ra:
        cases["**"] = (ea**k, _ref_str(*_ref_div({ONE_KEY: 1}, _ref_pow(ra, -k))))
    for op, (expr, expected) in cases.items():
        assert str(expr) == expected, op
        _assert_integer_keys(expr)


def test_non_integral_rates_that_sum_to_an_integer_are_stored_as_int():
    half = Expr.exponential(CHART2, [Fraction(1, 2), Fraction(-3, 2)])
    (key,) = half._num
    assert half._lay.unpack(key) == ((0, 0), (3, -9))  # rate * L for L = 6
    square = half * half
    assert str(square) == "exp(x - 3*y)"
    _assert_integer_keys(square)
    (key,) = square._num
    assert square._lay.unpack(key) == ((0, 0), (6, -18))


# ---------------------------------------------------------------------------
# packed keys
# ---------------------------------------------------------------------------

FIELD = st.integers(-(2**30), 2**30 - 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_packed_key_order_matches_decoded_tuple_order(data, n):
    lay = _layout(n, 1)
    monos = st.tuples(*[st.integers(0, 2**30 - 1) | st.integers(0, 3)] * n)
    atoms = st.tuples(*[FIELD | st.integers(-3, 3)] * n)
    a = (data.draw(monos), data.draw(atoms))
    b = (data.draw(monos), data.draw(atoms))
    ka, kb = lay.pack(*a), lay.pack(*b)
    assert lay.unpack(ka) == a and lay.unpack(kb) == b
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)


def test_exponent_overflow_raises_instead_of_wrapping():
    x = Expr.coordinate(CHART, "x")
    with pytest.raises(ExprError, match="out of range"):
        x ** (2**31)
    with pytest.raises(ExprError, match="out of range"):
        (1 / x) ** (2**31)
    with pytest.raises(ExprError, match="out of range"):
        Expr.exponential(CHART, [2**30, 0, 0])
    fine = Chart.make(CHART.coordinates, rate_denominator=2**29)
    rate = Fraction(1, 2**29)
    with pytest.raises(ExprError, match="out of range"):
        Expr.exponential(fine, [rate, 0, 0]) * Expr.exponential(fine, [4, 0, 0])
    # exp(x) is stored as 2^29, in range; its square is not
    with pytest.raises(ExprError, match="out of range"):
        Expr.exponential(fine, [1, 0, 0]) ** 2
    assert str(x ** (2**29)) == "x^%d" % 2**29


def _tuple_smul(a, b):
    """Product of two sums keyed by (monomial, atom) tuples, in insertion order."""
    out = {}
    for (ma, ea), ca in a.items():
        for (mb, eb), cb in b.items():
            key = (tuple(map(add, ma, mb)), tuple(map(add, ea, eb)))
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def test_packed_product_matches_tuple_keyed_reference():
    rng = random.Random(5)
    lay = _layout(5, 1)

    def random_sum():
        terms = {}
        while len(terms) < 30:
            mono = tuple(rng.randint(0, 2) for _ in range(5))
            atom = tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(5))
            terms[(mono, atom)] = rng.choice((1, -1, 2, -3))
        return terms

    for _ in range(20):
        a, b = random_sum(), random_sum()
        expected = list(_tuple_smul(a, b).items())
        packed = _smul(
            {lay.pack(*key): c for key, c in a.items()},
            {lay.pack(*key): c for key, c in b.items()},
            lay,
        )
        assert [(lay.unpack(key), c) for key, c in packed.items()] == expected
