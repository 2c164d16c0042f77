import random

import pytest

from tppverify.matrices import Mat, mat_exp_trunc
from tppverify.scalars import GaussRational, QQ
from tppverify.sepfun import (
    Affine,
    DivEps,
    Entry,
    LeadingMinor,
    LinearForm,
    PolyApply,
    Product,
    Reparam,
    SepFunction,
    SepFunctionError,
    SumNode,
    UniPoly,
    lagrange_indicator,
)
from tppverify.series import InsufficientOrderError, series

from series_oracle import OracleSeries


def trace_node(n):
    return SumNode([Entry(i, i) for i in range(n)])


def test_lagrange_three_points():
    p = lagrange_indicator(0, [0, 1, 2])
    # (z-1)(z-2)/2: check the exact roots and scale
    assert p.roots == [GaussRational(1), GaussRational(2)]
    assert p.scale == GaussRational(QQ(1, 2))
    assert p.eval_exact(0) == GaussRational(1)
    assert p.eval_exact(1).is_zero()
    assert p.eval_exact(2).is_zero()


def test_lagrange_singleton_constant():
    p = lagrange_indicator(7, [7])
    assert p.degree == 0
    assert p.eval_exact(123) == GaussRational(1)


def test_lagrange_all_nodes_q5():
    pts = list(range(5))
    p = lagrange_indicator(1, pts)
    for v in pts:
        assert p.eval_exact(v) == GaussRational(1 if v == 1 else 0)


def test_lagrange_duplicate_points_error():
    with pytest.raises(SepFunctionError):
        lagrange_indicator(0, [0, 1, 1])
    with pytest.raises(SepFunctionError):
        lagrange_indicator(5, [0, 1])  # point not among nodes


def test_taylor_vs_product_form_oracle():
    # series evaluation through Taylor must equal naive per-root multiplication
    rng = random.Random(5)
    for _ in range(25):
        nodes = rng.sample(range(-6, 7), rng.randint(2, 5))
        point = nodes[0]
        p = lagrange_indicator(point, nodes)
        x = series({0: rng.choice(nodes), 1: rng.randint(-3, 3),
                    2: rng.randint(-3, 3)}, hi=3)
        via_taylor = p.eval_series(x)
        acc = OracleSeries.of(p.scale)
        for r in p.roots:
            acc = acc * (OracleSeries.of(x) - r)
        assert acc.eq_on_window(OracleSeries.of(via_taylor))


def test_unipoly_series_window_capped():
    p = UniPoly(roots=[-1])  # 1 + x
    x = series({0: 2}, hi=1)
    out = p.eval_series(x)
    assert out.coeff(0) == GaussRational(3)
    assert out.hi == 1  # must not claim knowledge beyond the argument window


def test_unipoly_unknown_constant_fails_loudly():
    p = UniPoly(roots=[0])
    x = series({-1: 1}, lo=-1, hi=-1)
    with pytest.raises(InsufficientOrderError):
        p.eval_series(x)


def test_expression_degree_tracking():
    m_deg = Product([Entry(0, 0), Entry(1, 1)])
    assert m_deg.degree == 2
    s = SumNode([LeadingMinor(3), Entry(0, 1)])
    assert s.degree == 3
    poly = PolyApply(lagrange_indicator(0, [0, 1, 2]), s)
    assert poly.degree == 2 * 3
    assert Affine(2, 1, poly).degree == 6
    assert DivEps(2, poly).degree == 6
    assert Reparam(3, poly).degree == 6


def test_entry_trace_affine_eval():
    m = Mat.from_rows([[GaussRational(1), GaussRational(2)],
                       [GaussRational(3), GaussRational(4)]])
    assert Entry(0, 1).eval(m) == GaussRational(2)
    assert trace_node(2).eval(m) == GaussRational(5)
    assert Affine(2, -1, trace_node(2)).eval(m) == GaussRational(9)


def test_affine_div_eps_reads_shifted_entries():
    a = Mat.from_rows([[0, 1], [-1, 0]])
    e = mat_exp_trunc(a, 3)
    # ((M - I)/eps)[0, 1] = 1 - eps^2/6 + ...
    off = DivEps(1, Entry(0, 1)).eval(e)
    assert off.coeff(0) == GaussRational(1)
    assert off.coeff(1).is_zero()
    assert off.coeff(2) == GaussRational(QQ(-1, 6))
    # ((M - I)/eps)[0, 0] = (cos eps - 1)/eps = -eps/2 + ...
    diag = DivEps(1, Affine(1, -1, Entry(0, 0))).eval(e)
    assert diag.coeff(0).is_zero()
    assert diag.coeff(1) == GaussRational(QQ(-1, 2))
    assert diag.hi == 2


def test_reparam_scales_div_eps():
    # (trace(M) - 2)/eps^2 with M = exp(eps^t A) at t = 2: deviation at eps^{2t}
    a = Mat.from_rows([[0, 1], [-1, 0]])
    e2 = mat_exp_trunc(a, 4).map(lambda s: s.reparametrize(2))
    expr = Reparam(2, DivEps(2, Affine(1, -2, trace_node(2))))
    val = expr.eval(e2)
    # trace = 2 - eps^{2t} + ...; divided by eps^{2t}: constant -1
    assert val.coeff(0) == GaussRational(-1)


def test_div_eps_requires_series():
    m = Mat.from_rows([[GaussRational(1)]])
    with pytest.raises(SepFunctionError):
        DivEps(1, Entry(0, 0)).eval(m)


def test_float_evaluation_path():
    m = Mat.from_rows([[complex(2.0), complex(0)], [complex(0), complex(0.5)]])
    p = lagrange_indicator(1, [1, 2])
    node = PolyApply(p, Entry(0, 0))
    assert abs(node.eval(m)) < 1e-12
    node1 = PolyApply(p, Entry(1, 1))
    assert abs(node1.eval(m) - p.eval_float(complex(0.5))) < 1e-12


def test_serialization_roundtrip():
    tree = Product([
        PolyApply(lagrange_indicator(0, [0, 1]), DivEps(2, Affine(-1, 3, SumNode(
            [LeadingMinor(1), LeadingMinor(2)])))),
        LinearForm(Mat.from_rows([[1, QQ(1, 2)], [0, 0]]), Mat.zeros(2, 2),
                   Mat.zeros(2, 2), Mat.from_rows([[0, 0], [-3, 0]])),
        Reparam(2, Product([])),
    ])
    blob = tree.to_json()
    back = SepFunction.from_json(blob)
    assert back.to_json() == blob
    assert back.degree == tree.degree

