"""First-order settlement of TPP and DPP tuples against the packed chain.

When every element a check reads is I + eps A1 + O(eps^2) under one window
edge, tpp._verify settles a tuple whose first-order sum is nonzero without
multiplying it out.  The oracle here is the loop it replaces: every tuple's
packed product, classified by _series_deviation.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat, mat_inv_series
from tppverify.scalars import QQ, GaussRational
from tppverify.series import INF_ORDER, EpsLaurent
from tppverify.tpp import (
    InstanceError,
    TppInstance,
    _identity_for,
    _series_deviation,
    unit_first_order_edge,
    verify_dpp,
    verify_tpp_series,
)

# (set, inverse) per factor: x x'^-1 y y'^-1 z z'^-1 and x^-1 x' z^-1 z'
TEMPLATES = {
    "tpp": (("x", False), ("x", True), ("y", False), ("y", True), ("z", False), ("z", True)),
    "dpp": (("x", True), ("x", False), ("z", True), ("z", False)),
}


def chain_outcome(inst, kind, order):
    """Oracle: (verdict, witness, order_used, tuples, inconclusive) from the
    packed product of every tuple in lexicographic order."""
    sizes = [len(getattr(inst, which)) for which, _ in TEMPLATES[kind]]
    order_used, witness, inconclusive, checked = order, None, 0, 0
    for tup in itertools.product(*map(range, sizes)):
        checked += 1
        factors = [(which, idx, inverse) for (which, inverse), idx in zip(TEMPLATES[kind], tup)]
        deviates, used = _series_deviation(inst.product(factors), order)
        order_used = min(order_used, used)
        all_equal = tup[0::2] == tup[1::2]
        if deviates and all_equal:
            return "fail", tup, used, checked, 0
        if not deviates and not all_equal:
            inconclusive += 1
            witness = witness or tup
    return ("inconclusive" if inconclusive else "pass"), witness, order_used, checked, inconclusive


def report_outcome(rep):
    return (rep.verdict, rep.witness and tuple(rep.witness.indices), rep.order_used,
            rep.tuples_checked, rep.inconclusive_count)


def outcome(fn, *args):
    """fn(*args), or the text of the InstanceError it raises."""
    try:
        return fn(*args)
    except InstanceError as exc:
        return str(exc)


def first_order_sum_is_zero(inst, kind, tup):
    """Oracle: the boxed eps^1 coefficients of the factors, summed with the
    sign of each factor (an inverse contributes -A1)."""
    n = inst.group.dim
    total = [GaussRational(0)] * (n * n)
    for (which, inverse), idx in zip(TEMPLATES[kind], tup):
        elt = inst.element(which, idx)
        for k, s in enumerate(elt.data):
            c = s.coeff(1)
            total[k] = total[k] - c if inverse else total[k] + c
    return all(c.is_zero() for c in total)


small = st.builds(QQ, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))
gauss = st.builds(GaussRational, small, st.one_of(st.just(0), small))
nonzero = gauss.filter(lambda c: not c.is_zero())


def unit_element(draw, n, h):
    """I + eps A1 + eps^2 A2 known to eps^h; Gaussian A1 and A2."""
    data = []
    for i in range(n):
        for j in range(n):
            coeffs = {e: draw(gauss) for e in range(1, min(h, 2) + 1)}
            if i == j:
                coeffs[0] = 1
            data.append(EpsLaurent(coeffs, lo=0, hi=h))
    return Mat(n, n, data)


def with_entry(m, i, j, s):
    out = m.copy()
    out[i, j] = s
    return out


def plant(draw, kind, n, h, sets):
    """Apply one planted case to sets (a dict of element lists)."""
    target = "y" if kind == "tpp" else "x"
    if kind == "tpp" and h >= 2 and draw(st.booleans()):
        # a Y element with the same A1 as y[0] and another eps^2 term: the
        # first-order sum of (y[0], new) is zero, so the chain must decide
        y0 = sets["y"][0]
        new = y0.map(lambda s: EpsLaurent(dict(s.coeffs), lo=s.lo, hi=s.hi))
        new[0, n - 1] = y0[0, n - 1] + EpsLaurent({2: draw(gauss)}, lo=0, hi=h)
        sets["y"].append(new)
    case = draw(st.sampled_from(["none", "z-is-x", "constant", "negative", "h0", "mixed",
                                 "lo1"]))
    if case == "z-is-x":
        sets["z"] = list(sets["x"])
    elif case == "constant":
        # constant term [[1, 1], ...]: not I
        m = sets[target][-1]
        sets[target][-1] = with_entry(m, 0, n - 1, m[0, n - 1] + 1)
    elif case == "negative":
        m = sets[target][-1]
        sets[target][-1] = with_entry(
            m, 0, n - 1, m[0, n - 1] + EpsLaurent({-1: draw(nonzero)}, lo=-1, hi=h))
    elif case == "h0":
        sets[target].append(Mat.identity(n, one=EpsLaurent({0: 1}, lo=0, hi=0),
                                         zero=EpsLaurent({}, lo=0, hi=0)))
    elif case == "mixed":
        m = sets[target][-1]
        hi = draw(st.sampled_from([x for x in (1, 2, 3, 4, INF_ORDER) if x != h]))
        s = m[n - 1, 0]
        sets[target][-1] = with_entry(
            m, n - 1, 0, EpsLaurent({e: c for e, c in s.coeffs.items() if e <= hi},
                                    lo=0, hi=hi))
    elif case == "lo1":
        # an off-diagonal window starting at eps^1: its eps^0 coefficient is a
        # known zero, so the element stays I + O(eps) and keeps its inverse
        m = sets[target][-1]
        s = m[0, n - 1]
        sets[target][-1] = with_entry(
            m, 0, n - 1, EpsLaurent({e: c for e, c in s.coeffs.items() if e >= 1}, lo=1, hi=h))
    return case


@st.composite
def unit_instances(draw, kind):
    n = draw(st.sampled_from([2, 3]))
    h = draw(st.integers(1, 3))
    sets = {w: [unit_element(draw, n, h) for _ in range(2)] for w in "xyz"}
    case = plant(draw, kind, n, h, sets)
    return n, h, sets, case


def checked_products(inst):
    """Wrap inst.product to record the factor lists it is asked for."""
    calls = []
    product = inst.product
    inst.product = lambda factors: calls.append(tuple(factors)) or product(factors)
    return calls


@settings(max_examples=60, deadline=None)
@given(unit_instances("tpp"), st.integers(0, 4))
def test_first_order_tpp_matches_the_packed_chain(drawn, order):
    n, h, sets, case = drawn
    try:
        inst = TppInstance(MatrixGroupOps(n), sets["x"], sets["y"], sets["z"], "family")
        oracle = TppInstance(MatrixGroupOps(n), sets["x"], sets["y"], sets["z"], "family")
    except InstanceError:
        assume(False)
    calls = checked_products(inst)
    got = outcome(lambda: report_outcome(verify_tpp_series(inst, order, mode="exhaustive")))
    want = outcome(chain_outcome, oracle, "tpp", order)
    assert got == want
    if case == "z-is-x":
        assert got[0] == "inconclusive"
    edge = unit_first_order_edge(inst, "xyz")
    assert (edge is not None) == (case in ("none", "z-is-x", "lo1")), case
    if edge is not None and order >= 1:
        # the chain runs exactly on the tuples whose first-order sum is zero
        zero = [t for t in itertools.product(*(range(len(getattr(inst, w)))
                                               for w, _ in TEMPLATES["tpp"]))
                if first_order_sum_is_zero(inst, "tpp", t)]
        assert [tuple(idx for _, idx, _ in c) for c in calls] == zero[:len(calls)]
        if got[0] != "fail":
            assert len(calls) == len(zero)


@settings(max_examples=60, deadline=None)
@given(unit_instances("dpp"))
def test_first_order_dpp_matches_the_packed_chain(drawn):
    n, h, sets, case = drawn
    x, z = sets["x"], sets["z"]
    try:
        oracle = TppInstance(MatrixGroupOps(n), x, [_identity_for(None, "family", x)], z,
                             "family")
    except InstanceError:
        assume(False)
    order = min(s.hi for m in x + z for s in m.data)
    got = outcome(lambda: report_outcome(
        verify_dpp(x, z, MatrixGroupOps(n), "family", mode="exhaustive")))
    assert got == outcome(chain_outcome, oracle, "dpp", order)
    if case == "z-is-x":
        # x^-1 x' x^-1 x' is not I for x != x': Z' = X' does not break the DPP
        assert got[0] != "fail"


def test_planted_equal_first_order_falls_back_to_the_chain():
    # y1 has y0's A1 and another eps^2 term: the tuple (0, 0, 0, 1, 0, 0) has
    # first-order sum 0 and is proved distinct by its eps^2 coefficient
    def unit(a1, a2):
        return Mat.from_rows([[EpsLaurent({0: 1, 1: a1[0], 2: a2}, lo=0, hi=3),
                               EpsLaurent({1: a1[1]}, lo=0, hi=3)],
                              [EpsLaurent({}, lo=0, hi=3), EpsLaurent({0: 1}, lo=0, hi=3)]])
    x = [unit((1, 0), 0)]
    y = [unit((0, 1), 0), unit((0, 1), 5)]
    inst = TppInstance(MatrixGroupOps(2), x, y, [unit((0, 0), 0)], "family")
    calls = checked_products(inst)
    rep = verify_tpp_series(inst, order=3, mode="exhaustive")
    assert (rep.verdict, rep.order_used, rep.tuples_checked) == ("pass", 3, 4)
    assert [tuple(idx for _, idx, _ in c) for c in calls] == [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0)]
    # at order 1 the eps^2 coefficient is not read: inconclusive, not pass
    rep = verify_tpp_series(inst, order=1, mode="exhaustive")
    assert (rep.verdict, tuple(rep.witness.indices)) == ("inconclusive", (0, 0, 0, 1, 0, 0))


def unit_2x2(a, b, lo=0, hi=2, corner=0):
    """[[1 + a eps, b eps], [0, 1 + corner eps]] known to eps^hi; the b eps
    entry's window starts at eps^lo."""
    return Mat.from_rows([[EpsLaurent({0: 1, 1: a}, lo=0, hi=hi), EpsLaurent({1: b}, lo=lo, hi=hi)],
                          [EpsLaurent({}, lo=0, hi=hi), EpsLaurent({0: 1, 1: corner}, lo=0, hi=hi)]])


@pytest.mark.parametrize("x1", [
    # an off-diagonal window starting at eps^1: only a known zero at eps^0,
    # so x[1] has an inverse and the first-order gate holds
    unit_2x2(2, 1, lo=1),
    # unlimited windows: M - I is not nilpotent, so the packed inverse refuses
    unit_2x2(2, 1, hi=INF_ORDER, corner=1),
])
def test_sampled_run_keeps_the_inverse_refusal(x1):
    # every other element is unipotent, so only x[1] can lack an inverse; no
    # tuple may be settled without an inverse that the chain would refuse
    hi = max(s.hi for s in x1.data)
    x, y, z = ([unit_2x2(0, b, hi=hi), other] for b, other in (
        (3, x1), (5, unit_2x2(0, 7, hi=hi)), (11, unit_2x2(0, 13, hi=hi))))
    inst = TppInstance(MatrixGroupOps(2), x, y, z, "family")
    if hi < INF_ORDER:
        # (1 + 2 eps)^-1 = 1 - 2 eps + 4 eps^2 on [0, 2]; the corner is
        # -eps / (1 + 2 eps) = -eps + 2 eps^2
        inv = mat_inv_series(x1)
        assert [(s.coeffs, s.hi) for s in inv.data] == [
            ({0: 1, 1: -2, 2: 4}, 2), ({1: -1, 2: 2}, 2), ({}, 2), ({0: 1}, 2)]
        assert unit_first_order_edge(inst, "xyz") == 2
        oracle = TppInstance(MatrixGroupOps(2), x, y, z, "family")
        for order in range(4):
            rep = verify_tpp_series(inst, order, mode="exhaustive")
            assert report_outcome(rep) == chain_outcome(oracle, "tpp", order)
        return
    assert unit_first_order_edge(inst, "xyz") is None
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(InstanceError, match=r"x\[1\] has no inverse"):
            verify_tpp_series(inst, 2, mode=mode, sample_budget=3, seed=5)
