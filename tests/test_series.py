import operator

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.scalars import GaussRational, QQ
from tppverify.series import INF_ORDER, EpsLaurent, InsufficientOrderError, series

from series_oracle import OracleSeries, triple


def hand_mul(a: dict, b: dict) -> dict:
    """Independent oracle: plain convolution of coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, QQ(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def test_mul_polynomial_identity():
    # (1 + eps)(1 - eps) = 1 - eps^2 on windows [0,3]
    a = series({0: 1, 1: 1}, hi=3)
    b = series({0: 1, 1: -1}, hi=3)
    p = a * b
    assert p.coeff(0) == GaussRational(1)
    assert p.coeff(1).is_zero()
    assert p.coeff(2) == GaussRational(-1)
    assert p.coeff(3).is_zero()
    assert (p.lo, p.hi) == (0, 3)


def test_mul_exponent_arithmetic():
    p = EpsLaurent.eps(-1) * EpsLaurent.eps(1)
    assert p.constant_term() == GaussRational(1)
    assert p.valuation() == 0


def test_mul_truncated_hand_oracle():
    # (1 + eps + eps^2)(1 + eps) truncated at hi=2: oracle by hand multiplication
    a = {0: QQ(1), 1: QQ(1), 2: QQ(1)}
    b = {0: QQ(1), 1: QQ(1)}
    expect = hand_mul(a, b)  # 1 + 2eps + 2eps^2 + eps^3
    p = series(a, hi=2) * series(b, hi=2)
    assert p.hi == 2
    for k in range(3):
        assert p.coeff(k) == GaussRational(expect.get(k, QQ(0)))
    with pytest.raises(InsufficientOrderError):
        p.coeff(3)


def test_window_product_rule():
    a = series({1: 1}, lo=1, hi=4)
    b = series({2: 1}, lo=2, hi=3)
    p = a * b
    assert (p.lo, p.hi) == (3, min(1 + 3, 2 + 4))


def test_empty_window_construction_errors():
    with pytest.raises(InsufficientOrderError):
        EpsLaurent({}, lo=3, hi=1)


@settings(max_examples=60)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_ring_axioms_on_windows(_, __, ___, data):
    def rand_series():
        lo = data.draw(st.integers(-2, 1))
        hi = lo + data.draw(st.integers(1, 4))
        n_terms = data.draw(st.integers(0, 4))
        coeffs = {}
        for _ in range(n_terms):
            e = data.draw(st.integers(lo, hi))
            coeffs[e] = QQ(data.draw(st.integers(-4, 4)))
        return series(coeffs, lo=lo, hi=hi)

    a, b, c = rand_series(), rand_series(), rand_series()
    left = (a + b) * c
    right = a * c + b * c
    assert left.eq_on_window(right)
    assert ((a * b) * c).eq_on_window(a * (b * c))


def test_shift_and_reparametrize():
    a = series({0: 1, 1: 2}, hi=3)
    d = a.shift(-2)
    assert (d.lo, d.hi) == (-2, 1)
    assert d.coeff(-2) == GaussRational(1)
    r = a.reparametrize(3)
    assert r.coeff(0) == GaussRational(1)
    assert r.coeff(3) == GaussRational(2)
    # reparametrized window covers the gap exponents, which are known zero
    assert r.hi == 3 * 3 + 2
    assert r.coeff(2).is_zero()


def test_conjugate_coefficientwise():
    a = series({0: GaussRational(1, 2), 1: GaussRational(0, 1)}, hi=2)
    c = a.conjugate()
    assert c.coeff(0) == GaussRational(1, -2)
    assert c.coeff(1) == GaussRational(0, -1)


def test_coeff_outside_window_fails_loudly():
    a = series({0: 1}, hi=2)
    with pytest.raises(InsufficientOrderError):
        a.coeff(3)
    assert a.coeff(-5).is_zero()  # below lo: known zero


def test_json_roundtrip():
    a = series({-1: GaussRational(1, 2), 2: 3}, lo=-1, hi=4)
    b = EpsLaurent.from_json(a.to_json())
    assert a == b


# -- EpsLaurent's arithmetic on the packed kernel, against the dict loops ------

rationals = st.builds(QQ, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
gauss = st.builds(GaussRational, rationals, st.one_of(st.just(0), rationals))
exact = st.one_of(st.integers(-3, 3), rationals, gauss)


@st.composite
def laurent(draw):
    """Negative exponents; finite, saturating (INF_ORDER - 1) and unlimited windows."""
    lo = draw(st.integers(-3, 3))
    hi = draw(st.one_of(st.integers(lo, lo + 5), st.just(INF_ORDER - 1), st.just(INF_ORDER)))
    exps = draw(st.lists(st.integers(lo, min(hi, lo + 5)), max_size=4, unique=True))
    return EpsLaurent({e: draw(gauss) for e in exps}, lo=lo, hi=hi)


def outcome(fn, *args):
    """fn(*args), or the text of the InsufficientOrderError it raises."""
    try:
        return fn(*args)
    except InsufficientOrderError as exc:
        return "InsufficientOrderError", str(exc)


def agrees(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return type(got) is EpsLaurent and triple(got) == triple(want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(laurent(), exact), laurent(), st.booleans(), st.integers(-4, 4),
       st.one_of(st.integers(-3, 6), st.just(INF_ORDER - 1), st.just(INF_ORDER)),
       st.integers(1, 3))
def test_delegated_ops_match_dict_oracle(other, x, series_left, k, h, t):
    # binary operations with a series on either side, the other operand a
    # series or an int, QQ or GaussRational
    a, b = (x, other) if series_left else (other, x)
    oa, ob = OracleSeries.of(a), OracleSeries.of(b)
    for op in (operator.add, operator.sub, operator.mul):
        assert agrees(outcome(op, a, b), outcome(op, oa, ob)), op
    ox = OracleSeries.of(x)
    assert agrees(-x, -ox)
    assert agrees(x.shift(k), ox.shift(k))
    assert agrees(x.truncate(h), ox.truncate(h))
    assert agrees(x.reparametrize(t), ox.reparametrize(t))
    assert agrees(x.conjugate(), ox.conjugate())
    # equality on the window: an unrelated operand, x changed at eps^j (unequal
    # when j is in the window), and that change cut off (equal)
    j = x.lo + 1
    changed = x + EpsLaurent({j: 1}, lo=j)
    for y in (other, changed, changed.truncate(j - 1)):
        assert x.eq_on_window(y) == ox.eq_on_window(OracleSeries.of(y))
    assert x.eq_on_window(changed) == (j > x.hi)
    assert x.eq_on_window(changed.truncate(j - 1))


def test_empty_product_window_text():
    # zero up to INF_ORDER - 1 times eps^2 known exactly: the window
    # [INF_ORDER + 1, INF_ORDER] is empty, in the kernel and in the oracle
    a, b = EpsLaurent({}, lo=0, hi=INF_ORDER - 1), EpsLaurent.eps(2)
    want = ("InsufficientOrderError", "insufficient truncation order: empty product window")
    assert outcome(operator.mul, a, b) == want
    assert outcome(operator.mul, OracleSeries.of(a), OracleSeries.of(b)) == want
