"""A second exact witness: Christoffel symbols and Ricci tensors recomputed in sympy.

The metric is rebuilt from the manifest strings, and every component of
ours (printed by ``Expr.__str__`` and parsed back by sympy) must equal
sympy's to ``simplify``.  Nothing here goes through ``symexpr``'s ring, so
a fault in its packed keys, rates or contents shows up as a mismatch.  The
fixtures' rates are all integers, so one inline metric has rates in halves
and thirds.  Skipped when sympy is not installed; it is a test dependency only.
"""

import json
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    rationalize,
    standard_transformations,
)

from parasol.chart import Chart  # noqa: E402
from parasol.connection import WEIGHTED_TRACE, christoffel, ricci, riemann  # noqa: E402
from parasol.symexpr import parse  # noqa: E402
from parasol.tensor import Metric, TensorField  # noqa: E402

from conftest import FIXTURE_NAMES, fixture_path  # noqa: E402

TRANSFORMATIONS = standard_transformations + (convert_xor, rationalize)


def _parse(source, symbols):
    return parse_expr(source, local_dict=dict(symbols), transformations=TRANSFORMATIONS)


def _sympy_geometry(names, metric):
    """(symbols by name, Gamma[k][i][j], Ricci S[j][k]) in the package's conventions."""
    symbols = {name: sympy.Symbol(name) for name in names}
    xs = [symbols[name] for name in names]
    axes = range(len(xs))
    g = sympy.Matrix([[_parse(entry, symbols) for entry in row] for row in metric])
    ginv = sympy.simplify(g.inv())

    def christoffel(k, i, j):
        # G^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
        total = sum(
            ginv[k, l] * (g[j, l].diff(xs[i]) + g[i, l].diff(xs[j]) - g[i, j].diff(xs[l]))
            for l in axes
        )
        return sympy.simplify(total / 2)

    gamma = [[[christoffel(k, i, j) for j in axes] for i in axes] for k in axes]

    def ricci(j, k):
        # S_jk = R^i_ijk, R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
        return sum(
            gamma[i][j][k].diff(xs[i])
            - gamma[i][i][k].diff(xs[j])
            + sum(gamma[i][i][m] * gamma[m][j][k] - gamma[i][j][m] * gamma[m][i][k] for m in axes)
            for i in axes
        )

    return symbols, gamma, [[ricci(j, k) for k in axes] for j in axes]


def _assert_same(ours, theirs, symbols, label):
    difference = sympy.simplify(_parse(str(ours), symbols) - theirs)
    assert difference == 0, "%s: ours %s, sympy %s" % (label, ours, theirs)


def _assert_geometry_matches(names, metric, ours_gamma, ours_ricci):
    symbols, gamma, ricci = _sympy_geometry(names, metric)
    n = len(names)
    for k, i, j in product(range(n), repeat=3):
        label = "Gamma[%d, %d, %d]" % (k, i, j)
        _assert_same(ours_gamma[k, i, j], gamma[k][i][j], symbols, label)
    for j, k in product(range(n), repeat=2):
        _assert_same(ours_ricci[j, k], ricci[j][k], symbols, "S[%d, %d]" % (j, k))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_christoffel_and_ricci_match_sympy(name, structures):
    data = json.loads(fixture_path(name).read_text())
    structure = structures[name]
    _assert_geometry_matches(
        data["coordinates"], data["metric"], structure.connection(), structure.ricci(WEIGHTED_TRACE)
    )


def test_non_integral_rates_match_sympy():
    names = ["x", "y", "z"]
    metric = [["exp(z/2)", "0", "0"], ["0", "exp(-2*y/3 + z)", "0"], ["0", "0", "1"]]
    chart = Chart.make(names, rate_denominator=6)
    field = TensorField(chart, 0, 2, [parse(entry, chart) for row in metric for entry in row])
    gamma = christoffel(Metric(field))
    _assert_geometry_matches(names, metric, gamma, ricci(riemann(gamma), WEIGHTED_TRACE))
