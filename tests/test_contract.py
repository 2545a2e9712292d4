"""The exact Einstein summation ``contract`` against a plain nested loop."""

import ast
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parasol.chart import Chart
from parasol.symexpr import Expr, parse
from parasol.tensor import TensorField, ValenceError, contract

CHARTS = {n: Chart.make(["x", "y", "z", "t"][:n]) for n in (2, 3, 4)}
# multi-term entries expose the insertion order of terms; zeros exercise the skips
SOURCES = ["0", "0", "0", "1", "-2", "x", "x + 2*exp(y)", "x*y - 1", "3/2*exp(-x) + y^2",
           "exp(x + y) - x", "y/(1 + x^2)"]


def reference(spec, *operands):
    """The nested loop ``contract`` must reproduce, with no zero skipping."""
    lhs, out = spec.split("->")
    signs = "+" + "".join(c for c in lhs if c in "+-")
    operand = iter(operands)
    products = [[(term, next(operand)) for term in part.split(",")] for part in re.split("[+-]", lhs)]
    summed = sorted(set(lhs) - set(out) - set("+-,"))
    chart = operands[0].chart
    n = chart.dimension
    comps = []
    for out_values in product(range(n), repeat=len(out)):
        total = Expr.zero(chart)
        for sum_values in product(range(n), repeat=len(summed)):
            env = dict(zip(out, out_values))
            env.update(zip(summed, sum_values))
            for sign, part in zip(signs, products):
                named = "".join(term for term, _ in part)
                if any(env[letter] for letter in summed if letter not in named):
                    continue  # a product runs once over the summed indices it does not name
                value = None
                for term, op in part:
                    factor = op if isinstance(op, Expr) else op[tuple(env[c] for c in term)]
                    value = factor if value is None else value * factor
                total = total + value if sign == "+" else total - value
        comps.append(total)
    return comps


@st.composite
def contractions(draw):
    """A random spec with its operands: products of 1-3 factors of rank 0-4."""
    n = draw(st.integers(2, 4))
    chart = CHARTS[n]
    pool = [parse(source, chart) for source in SOURCES]
    out = draw(st.sampled_from(["", "i", "ij", "ijk", "ji"]))
    summed = draw(st.sampled_from(["", "a", "ab", "m"]))
    parts, operands = [], []
    for _ in range(draw(st.integers(1, 3))):
        # every product names each output index; summed indices may repeat (traces)
        letters = list(out) + [c for c in summed for _ in range(draw(st.integers(0, 2)))]
        letters = draw(st.permutations(letters))
        cuts = sorted(draw(st.lists(st.integers(0, len(letters)), min_size=0, max_size=2)))
        terms = [letters[a:b] for a, b in zip([0] + cuts, cuts + [len(letters)])]
        if any(len(term) > 4 for term in terms):
            terms = [letters[k:k + 2] for k in range(0, len(letters), 2)] or [[]]
        parts.append(",".join("".join(term) for term in terms))
        for term in terms:
            rank = len(term)
            comps = [draw(st.sampled_from(pool)) for _ in range(n ** rank)]
            if rank == 0 and draw(st.booleans()):
                operands.append(comps[0])  # a scalar operand may be a bare Expr
            else:
                p = draw(st.integers(0, rank))
                operands.append(TensorField(chart, p, rank - p, comps))
    signs = [draw(st.sampled_from("+-")) for _ in parts[1:]]
    lhs = parts[0] + "".join(sign + part for sign, part in zip(signs, parts[1:]))
    # contravariant output indices first: the variance of an output index is
    # that of the first operand slot naming it
    terms = [term for part in parts for term in part.split(",")]
    fields = [op if isinstance(op, TensorField) else None for op in operands]

    def upper(letter):
        term, op = next((t, f) for t, f in zip(terms, fields) if letter in t)
        return term.index(letter) < op.p

    out = "".join(sorted(out, key=lambda letter: not upper(letter)))
    return lhs + "->" + out, operands


@settings(max_examples=80, deadline=None)
@given(case=contractions())
def test_contract_matches_nested_loop(case):
    spec, operands = case
    result = contract(spec, *operands)
    expected = reference(spec, *operands)
    out = spec.split("->")[1]
    if not out:
        assert isinstance(result, Expr)
        comps = [result]
    else:
        assert result.rank == len(out)
        comps = result._comps
    assert [str(c) for c in comps] == [str(c) for c in expected]
    assert [list(c._num) for c in comps] == [list(c._num) for c in expected]


def test_contract_output_variance_follows_the_named_slot():
    chart = CHARTS[3]
    phi = TensorField(chart, 1, 1, [parse(s, chart) for s in ["x", "0", "1"] * 3])
    g = TensorField(chart, 0, 2, [parse(s, chart) for s in ["1", "y", "0"] * 3])
    assert contract("km,mj->kj", phi, phi).valence == (1, 1)
    assert contract("mj,mi->ij", g, phi).valence == (0, 2)
    assert contract("ij->ji", g)._comps == g.swap_down(0, 1)._comps
    assert contract("ii->", phi) == phi.trace()


def test_contract_valence_errors():
    chart = CHARTS[3]
    phi = TensorField.zero(chart, 1, 1)
    g = TensorField.zero(chart, 0, 2)
    with pytest.raises(ValenceError, match="operands"):
        contract("ij,jk->ik", g)
    with pytest.raises(ValenceError, match="operands"):
        contract("ij->ij", g, g)
    with pytest.raises(ValenceError, match="does not fit"):
        contract("ijk->ijk", g)
    with pytest.raises(ValenceError, match="does not fit"):
        contract("i,j->ij", g, g)
    with pytest.raises(ValenceError, match="come first"):
        contract("im,mk->ki", phi, phi)
    with pytest.raises(ValenceError, match="missing"):
        contract("ij+i->ij", g, TensorField.zero(chart, 0, 1))
    with pytest.raises(ValenceError, match="->"):
        contract("ij", g)


SRC = Path(__file__).resolve().parent.parent / "src" / "parasol"


def test_check_layer_has_no_index_closures():
    # every index sum of the package, the connection layer included, is a
    # contract(...) call; a new `def entry(idx)` or `lambda idx:` in any module
    # would bring the hand-written loops back
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                if any(arg.arg == "idx" for arg in node.args.args):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


# direct outcome constructions left after the check table: the hand-written
# checks (einstein_fit, the soliton_solve checks, oracle_*, *_soliton_link,
# el_codazzi_forces_einstein), the whole-command inapplicable guards, the
# signature failure and the _note helper
OUTCOME_CALLS = {"analysis.py": 22, "paracontact.py": 0, "solitons.py": 8}


def test_check_layer_builds_outcomes_through_the_table():
    # an identity, classification or fact belongs in a run_checks table; a new
    # hand-built CheckOutcome(...), inapplicable(...) or residual_outcome(...)
    # call would bring back the threaded preconditions
    found = {}
    for name in OUTCOME_CALLS:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        found[name] = sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("CheckOutcome", "inapplicable", "residual_outcome")
            for node in ast.walk(tree)
        )
    assert all(found[name] <= OUTCOME_CALLS[name] for name in found), found
