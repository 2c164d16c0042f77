import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.matrices import Mat, PackedSeriesMat, mat_exp_trunc
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
from tppverify.series import INF_ORDER, EpsLaurent, InsufficientOrderError, _const_entry, series

from series_oracle import OracleSeries, oracle_poly_exact


def trace_node(n):
    return SumNode([Entry(i, i) for i in range(n)])


def at(p, x):
    """p at an exact x, through the expression tree's exact edge."""
    return PolyApply(p, Entry(0, 0)).eval(Mat(1, 1, [x]))


def series_at(p, x):
    """p at a series x: packed, evaluated, and unpacked."""
    return p.eval_series(PackedSeriesMat.scalar(x)).unpack_scalar()


def test_lagrange_three_points():
    p = lagrange_indicator(0, [0, 1, 2])
    # (z-1)(z-2)/2: check the exact roots and scale
    assert p.roots == [GaussRational(1), GaussRational(2)]
    assert p.scale == GaussRational(QQ(1, 2))
    assert at(p, 0) == GaussRational(1)
    assert at(p, 1).is_zero()
    assert at(p, 2).is_zero()


def test_lagrange_singleton_constant():
    p = lagrange_indicator(7, [7])
    assert p.degree == 0
    assert at(p, 123) == GaussRational(1)


def test_lagrange_all_nodes_q5():
    pts = list(range(5))
    p = lagrange_indicator(1, pts)
    for v in pts:
        assert at(p, v) == GaussRational(1 if v == 1 else 0)


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
        via_taylor = series_at(p, x)
        acc = OracleSeries.of(p.scale)
        for r in p.roots:
            acc = acc * (OracleSeries.of(x) - r)
        assert acc.eq_on_window(OracleSeries.of(via_taylor))


def test_unipoly_series_window_capped():
    p = UniPoly(roots=[-1])  # 1 + x
    x = series({0: 2}, hi=1)
    out = series_at(p, x)
    assert out.coeff(0) == GaussRational(3)
    assert out.hi == 1  # must not claim knowledge beyond the argument window


def test_unipoly_unknown_constant_fails_loudly():
    p = UniPoly(roots=[0])
    x = series({-1: 1}, lo=-1, hi=-1)
    with pytest.raises(InsufficientOrderError):
        series_at(p, x)


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


def test_poly_of_zero_div_eps_at_exact_argument():
    # (M[0,0] - 1)/eps is exactly 0 at M = [[1]]: a polynomial of it is p(0),
    # while the quotient itself, or one of a nonzero value, is still refused
    m = Mat.from_rows([[GaussRational(1)]])
    zero = DivEps(1, Affine(1, -1, Entry(0, 0)))
    assert PolyApply(lagrange_indicator(0, [0, 1, 2]), zero).eval(m) == GaussRational(1)
    assert PolyApply(UniPoly([3], 2), zero).eval(m) == GaussRational(-6)
    with pytest.raises(SepFunctionError, match="division by eps needs a series argument"):
        zero.eval(m)
    with pytest.raises(SepFunctionError, match="division by eps needs a series argument"):
        PolyApply(UniPoly([3], 2), DivEps(1, Entry(0, 0))).eval(m)


def test_float_argument_refused():
    m = Mat.from_rows([[complex(2.0), complex(0)], [complex(0), complex(0.5)]])
    p = lagrange_indicator(1, [1, 2])
    for node in (PolyApply(p, Entry(0, 0)), PolyApply(p, Entry(1, 1)), Product([])):
        with pytest.raises(SepFunctionError, match="float entries are refused"):
            node.eval(m)
    with pytest.raises(SepFunctionError, match="float entries are refused"):
        Entry(0, 0).eval(Mat.from_rows([[GaussRational(1), 0.5]]))


rationals = st.builds(QQ, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
gauss = st.builds(GaussRational, rationals, st.one_of(st.just(0), rationals))
# gl-border's indicator: 1 at 0 and 0 at the other half-integers k/2, k <= 160
GL_GRID = [QQ(k, 2) for k in range(161)]
GL_INDICATOR = lagrange_indicator(0, GL_GRID)
small_polys = st.builds(UniPoly, st.lists(gauss, max_size=6), gauss)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_polys, st.just(GL_INDICATOR)),
       st.one_of(gauss, st.sampled_from(GL_GRID)), gauss)
def test_exact_evaluation_matches_product_form(p, x, d):
    want = oracle_poly_exact(p, x)
    assert at(p, x) == want
    if p is GL_INDICATOR and x in GL_GRID:
        assert want == GaussRational(1 if x == 0 else 0)
    if p is GL_INDICATOR:
        return
    # x + d eps known exactly (an unlimited window): h = d eps is not zero, so
    # every power of h counts
    s = EpsLaurent({0: x, 1: d}, lo=0, hi=INF_ORDER)
    acc = OracleSeries.of(p.scale)
    for r in p.roots:
        acc = acc * (OracleSeries.of(s) - r)
    assert acc.eq_on_window(OracleSeries.of(series_at(p, s)))


def lowest_terms(x: GaussRational):
    """x as taylor's (re, im, den)."""
    den = math.lcm(x.re.denominator, x.im.denominator)
    return (x.re.numerator * (den // x.re.denominator),
            x.im.numerator * (den // x.im.denominator), den)


@settings(max_examples=300, deadline=None)
@given(small_polys, st.data(), st.integers(1, 4))
def test_value_at_a_root_is_looked_up(p, data, k):
    # a root, or any value
    at_root = bool(p.roots) and data.draw(st.booleans())
    x = data.draw(st.sampled_from(p.roots) if at_root else gauss)
    c = lowest_terms(x)
    # eval_series reduces the constant term to lowest terms before taylor, so
    # a packed x over k times its denominator (k > 1: equal to a root only
    # after that reduction) takes the lookup too
    re, im, den = c
    packed = PackedSeriesMat(1, 1, den * k, [_const_entry(re * k, im * k)])
    assert p.eval_series(packed).unpack_scalar() == oracle_poly_exact(p, x)
    nums, den0 = p.taylor(c, 0)
    assert GaussRational(QQ(nums[0][0], den0), QQ(nums[0][1], den0)) == oracle_poly_exact(p, x)
    if at_root or x in p.roots:
        # looked up, not expanded: an expansion is cached under c
        assert (nums, den0) == ([(0, 0)], 1) and c not in p._taylor_cache
    # a higher order is the expansion, whose value is the same
    nums1, den1 = p.taylor(c, 1)
    assert len(nums1) == 2
    assert QQ(nums1[0][0], den1) == QQ(nums[0][0], den0)


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

