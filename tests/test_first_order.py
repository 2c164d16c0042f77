"""First- and zeroth-order settlement of TPP and DPP tuples against the
packed chain.

When every element a check reads is I + eps A1 + O(eps^2) under one window
edge, tpp._verify settles a tuple whose first-order sum is nonzero without
multiplying it out; when the elements pass the zeroth-order gate, it settles
a tuple whose constant product is not I.  The oracle here is the loop both
replace: every tuple's packed product, classified by _series_deviation.
"""

import itertools
import re

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from tppverify import tpp
from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat, mat_exp_trunc, mat_inv_exact, mat_inv_series, mat_to_series
from tppverify.scalars import QQ, GaussRational
from tppverify.series import INF_ORDER, EpsLaurent
from tppverify.tpp import (
    InstanceError,
    TppInstance,
    _constant_term_classifier,
    _identity_for,
    _series_deviation,
    unit_first_order_edge,
    verify_dpp,
    verify_tpp_series,
)

# The differential tests below re-run the packed chain oracle on every tuple
# of each example; shrinking a failing example repeats that for minutes, so
# they report the first failing example as drawn.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]

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
    inst.product = lambda factors, **kw: calls.append(tuple(factors)) or product(factors, **kw)
    return calls


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
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


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
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
    # the same with the constant term diag(2, 1): C^-1 M - I is not nilpotent
    # either; the zeroth-order rung forms this inverse before it settles any
    # tuple, and leaves the refusal to the chain
    Mat.from_rows([[EpsLaurent({0: 2, 1: 2}, lo=0, hi=INF_ORDER),
                    EpsLaurent({1: 1}, lo=0, hi=INF_ORDER)],
                   [EpsLaurent({}, lo=0, hi=INF_ORDER),
                    EpsLaurent({0: 1, 1: 1}, lo=0, hi=INF_ORDER)]]),
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
    # seed 5 draws the tuple (1, 1, 0, 1, 0, 0); seed 4 reads x[1]^-1 only in
    # tuples with x != x', whose constant block differs from I when x[1]'s
    # constant term does
    for mode, seed in (("exhaustive", 5), ("sampled", 5), ("sampled", 4)):
        with pytest.raises(InstanceError, match=r"x\[1\] has no inverse"):
            verify_tpp_series(inst, 2, mode=mode, sample_budget=3, seed=seed)


# ---------------------------------------------------------------------------
# Zeroth order: constant terms other than I
# ---------------------------------------------------------------------------

def constant_term(m):
    return Mat(m.rows, m.cols, [s.coeff(0) for s in m.data])


def exact_identity(n):
    return Mat.identity(n, one=GaussRational(1), zero=GaussRational(0))


def is_identity(m):
    return m == exact_identity(m.rows)


def constant_product_is_identity(inst, kind, tup):
    """Oracle: the boxed product of the factors' constant terms (an inverse
    factor contributes c0^-1) equals I."""
    out = exact_identity(inst.group.dim)
    for (which, inverse), idx in zip(TEMPLATES[kind], tup):
        c0 = constant_term(inst.element(which, idx))
        out = out.matmul(mat_inv_exact(c0) if inverse else c0)
    return is_identity(out)


def constant_matrix(draw, n, shape):
    """An invertible integer matrix: lower or upper unitriangular, or L D U
    with a nonzero diagonal D."""
    ints = st.integers(-2, 2)
    lower = Mat.from_rows([[draw(ints) if j < i else int(i == j) for j in range(n)]
                           for i in range(n)])
    if shape == "lower":
        return lower
    upper = Mat.from_rows([[draw(ints) if j > i else int(i == j) for j in range(n)]
                           for i in range(n)])
    if shape == "upper":
        return upper
    diag = Mat.diag([draw(st.sampled_from([1, 2, -1, 3])) for _ in range(n)])
    return lower.matmul(diag).matmul(upper)


def constant_element(draw, n, h, shape):
    """C exp(eps A) on the window [0, h] with Gaussian A, or the exact C."""
    c = constant_matrix(draw, n, shape)
    if draw(st.integers(0, 3)) == 0:
        return mat_to_series(c)
    a = Mat(n, n, [draw(gauss) for _ in range(n * n)])
    return c.matmul(mat_exp_trunc(a, h))


@st.composite
def constant_instances(draw, kind):
    """X, Y, Z with constant terms other than I, and planted unequal tuples
    whose constant product is I."""
    n = draw(st.sampled_from([2, 3]))
    h = draw(st.integers(1, 3))
    shapes = {"x": "lower", "y": "any", "z": "upper"}
    if draw(st.booleans()):
        shapes = {w: "any" for w in "xyz"}
    sets = {w: [constant_element(draw, n, h, shapes[w]) for _ in range(2)] for w in "xyz"}
    case = draw(st.sampled_from(["none", "same-constant", "z-is-x", "unit-y"]))
    if case == "same-constant":
        # x[2] shares x[0]'s constant term: (0, 2, ...) is I at eps^0
        a = Mat(n, n, [draw(nonzero) for _ in range(n * n)])
        sets["x"].append(constant_term(sets["x"][0]).matmul(mat_exp_trunc(a, h)))
    elif case == "z-is-x":
        # (i, i', y, y, i', i) multiplies to I at eps^0 through non-I blocks
        sets["z"] = list(sets["x"])
    elif case == "unit-y":
        sets["y"] = [mat_exp_trunc(Mat(n, n, [draw(gauss) for _ in range(n * n)]), h)
                     for _ in range(2)]
    return n, h, sets, case


def assert_chain_runs_on_identity_constants(inst, kind, calls, got):
    """The chain runs exactly on the tuples whose constant product is I."""
    ident = [t for t in itertools.product(*(range(len(getattr(inst, w)))
                                            for w, _ in TEMPLATES[kind]))
             if constant_product_is_identity(inst, kind, t)]
    assert [tuple(idx for _, idx, _ in c) for c in calls] == ident[:len(calls)]
    if got[0] != "fail":
        assert len(calls) == len(ident)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(constant_instances("tpp"), st.integers(0, 4))
def test_constant_term_tpp_matches_the_packed_chain(drawn, order):
    n, h, sets, case = drawn
    try:
        inst = TppInstance(MatrixGroupOps(n), sets["x"], sets["y"], sets["z"], "family")
        oracle = TppInstance(MatrixGroupOps(n), sets["x"], sets["y"], sets["z"], "family")
    except InstanceError:
        assume(False)
    calls = checked_products(inst)
    got = outcome(lambda: report_outcome(verify_tpp_series(inst, order, mode="exhaustive")))
    assert got == outcome(chain_outcome, oracle, "tpp", order)
    elements = sets["x"] + sets["y"] + sets["z"]
    gate = (order <= min(s.hi for m in elements for s in m.data)
            and any(not is_identity(constant_term(m)) for m in elements))
    assert (_constant_term_classifier(inst, "tpp", order, None) is not None) == gate
    if gate:
        assert_chain_runs_on_identity_constants(inst, "tpp", calls, got)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(constant_instances("dpp"))
def test_constant_term_dpp_matches_the_packed_chain(drawn):
    n, h, sets, case = drawn
    x, z = sets["x"], sets["z"]
    try:
        inst = TppInstance(MatrixGroupOps(n), x, [_identity_for(None, "family", x)], z,
                           "family")
        oracle = TppInstance(MatrixGroupOps(n), x, [_identity_for(None, "family", x)], z,
                             "family")
    except InstanceError:
        assume(False)
    order = min(s.hi for m in x + z for s in m.data)
    calls = checked_products(inst)
    got = outcome(lambda: report_outcome(tpp._verify(inst, "dpp", order, "exhaustive", 1, 0)))
    assert got == outcome(chain_outcome, oracle, "dpp", order)
    assert got == outcome(lambda: report_outcome(
        verify_dpp(x, z, MatrixGroupOps(n), "family", mode="exhaustive")))
    if any(not is_identity(constant_term(m)) for m in x + z):
        assert_chain_runs_on_identity_constants(inst, "dpp", calls, got)


def test_constant_blocks_compare_by_value():
    # c0 = diag(2, 1): the block c0(x[0]) c0(x[1])^-1 is I over the
    # denominator 2, and its off-diagonal zeros are products of zero entries,
    # stored with another window than I's zeros; only its value is I
    def elt(a):
        return Mat.diag([2, 1]).matmul(mat_exp_trunc(Mat.from_rows([[0, a], [0, 0]]), 2))
    x = [elt(1), elt(3)]
    z = [mat_to_series(Mat.from_rows([[1, 5], [0, 1]])), mat_to_series(Mat.diag([1, 1]))]
    inst = TppInstance(MatrixGroupOps(2), x, [mat_exp_trunc(Mat.diag([0, 0]), 2)], z, "family")
    calls = checked_products(inst)
    rep = verify_tpp_series(inst, order=2, mode="exhaustive")
    assert (rep.verdict, rep.order_used, rep.tuples_checked) == ("pass", 2, 16)
    assert [tuple(idx for _, idx, _ in c) for c in calls] == [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 1, 1)]


def non_unit_2x2(c, a, hi=3, negative=None):
    """[[c + a eps, eps], [0, 1 + eps]] known to eps^hi, with the term
    negative eps^-1 added to the eps entry when negative is given."""
    off = {1: 1} if negative is None else {-1: negative, 1: 1}
    return Mat.from_rows([
        [EpsLaurent({0: c, 1: a}, lo=0, hi=hi), EpsLaurent(off, lo=min(0, *off), hi=hi)],
        [EpsLaurent({}, lo=0, hi=hi), EpsLaurent({0: 1, 1: 1}, lo=0, hi=hi)]])


@pytest.mark.parametrize("x1, order, error", [
    pytest.param(non_unit_2x2(2, 1, negative=1), 2, None, id="negative-power"),
    pytest.param(non_unit_2x2(2, 1, hi=1), 2, None, id="edge-below-order"),
    pytest.param(non_unit_2x2(2, 1), 4, None, id="order-above-edges"),
    pytest.param(non_unit_2x2(0, 1), 2, r"x\[1\] has no inverse: singular matrix",
                 id="singular-constant"),
    # a unit constant on unlimited windows, M - I not nilpotent: the packed
    # inverse refuses it
    pytest.param(unit_2x2(2, 1, hi=INF_ORDER, corner=1), 2,
                 r"x\[1\] has no inverse: series matrix inverse of an unlimited window",
                 id="unit-unlimited-window"),
    # an edge below eps^0 at a negative order: the inverse cannot be formed
    pytest.param(with_entry(non_unit_2x2(2, 1), 0, 1, EpsLaurent({}, lo=-1, hi=-1)), -1,
                 r"x\[1\] has no inverse: coefficient at eps\^0 unknown",
                 id="edge-below-zero"),
])
def test_zeroth_order_gate_refusals(x1, order, error, monkeypatch):
    # every other element has a constant term other than I and passes the gate
    x, y, z = ([non_unit_2x2(3, b), other] for b, other in (
        (5, x1), (7, non_unit_2x2(5, 11)), (13, non_unit_2x2(7, 17))))
    inst = TppInstance(MatrixGroupOps(2), x, y, z, "family")
    assert _constant_term_classifier(inst, "tpp", order, None) is None
    # seed 4 draws x[1] only as x' in tuples with x != x'
    def reports(inst):
        return {mode: outcome(lambda: verify_tpp_series(inst, order, mode=mode, sample_budget=3,
                                                        seed=4).to_json())
                for mode in ("exhaustive", "sampled")}
    got = reports(inst)
    # today's path: the packed chain on every tuple
    monkeypatch.setattr(tpp, "_constant_term_classifier", lambda *args: None)
    assert got == reports(TppInstance(MatrixGroupOps(2), x, y, z, "family"))
    if error is not None:
        for text in got.values():
            assert isinstance(text, str) and re.search(error, text), text
