import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify import sepverify
from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat, mat_exp_trunc
from tppverify.scalars import GaussRational, QQ
from tppverify.sepfun import LinearForm, PolyApply, Product, SepFunction, lagrange_indicator
from tppverify.sepverify import (
    SepReport,
    check_border_value,
    verify_indicator_border,
    verify_separating,
    verify_separating_border,
)
from tppverify.series import INF_ORDER, EpsLaurent, InsufficientOrderError
from tppverify.split import (
    SplitError,
    SplitInputs,
    assemble_split,
    coordinate_indicators,
    disjoint_lie_split,
)
from tppverify.tpp import TppInstance, verify_dpp, verify_tpp_series


def emat(n, i, j):
    m = Mat.zeros(n, n)
    m[i, j] = 1
    return m


def ident_family(n):
    return Mat.identity(n, one=EpsLaurent.const(1), zero=EpsLaurent.zero())


def test_disjoint_split_reads_entries():
    fx, fz, px, pz = disjoint_lie_split([emat(2, 1, 0)], [emat(2, 0, 1)])
    v = fx.apply([GaussRational(3)]) - fz.apply([GaussRational(5)])
    assert px[0].eval(v) == GaussRational(3)
    assert pz[0].eval(v) == GaussRational(5)


def test_disjoint_split_triangular_bases():
    n = 3
    basis_x = [emat(n, i, j) for i in range(n) for j in range(i)]
    basis_z = [emat(n, j, i) for i in range(n) for j in range(i)]
    fx, fz, px, pz = disjoint_lie_split(basis_x, basis_z)
    import random

    rng = random.Random(0)
    for _ in range(10):
        a = [GaussRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in basis_x]
        b = [GaussRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in basis_z]
        v = fx.apply(a) - fz.apply(b)
        assert [f.eval(v) for f in px] == a
        assert [f.eval(v) for f in pz] == b


def test_disjoint_split_rejects_intersection():
    with pytest.raises(SplitError):
        disjoint_lie_split([emat(2, 0, 1)], [emat(2, 0, 1)])


def base_inputs(q=2, p0=None, yfams=None):
    fx, fz, px, pz = disjoint_lie_split([emat(2, 1, 0)], [emat(2, 0, 1)])
    return SplitInputs(fx, fz, px, pz, p0 or Product([]),
                       yfams or [ident_family(2)], q=q)


def test_assemble_basic_dpp_family():
    out = assemble_split(base_inputs(q=2))
    assert out.cardinalities["X"] == 2 and out.cardinalities["Z"] == 2
    assert out.t == 1
    deg_r = out.degree_report["deg_r"]
    inst = TppInstance(MatrixGroupOps(2), out.xfams, out.yfams_reparam, out.zfams,
                       "family")
    # the documented budget: passes at order deg_r + 2
    out2 = assemble_split(base_inputs(q=2), order=deg_r + 2)
    inst2 = TppInstance(MatrixGroupOps(2), out2.xfams, out2.yfams_reparam,
                        out2.zfams, "family")
    rep = verify_separating_border(out2.sep_family, inst2, order=deg_r + 2)
    assert rep.verdict == "pass"
    assert verify_tpp_series(inst2, order=deg_r + 2).verdict == "pass"


def test_assemble_q1_degenerate():
    out = assemble_split(base_inputs(q=1))
    assert out.cardinalities["X"] == 1 and out.cardinalities["Z"] == 1
    assert out.degree_report["deg_r"] == 0
    assert out.degree_report["deg_total"] == out.degree_report["deg_p0"]


def test_assemble_q0_raises_split_error():
    # q = 0 leaves no coordinate tuples: a construction error, not a crash
    with pytest.raises(SplitError, match="no coordinate tuples"):
        assemble_split(base_inputs(q=0))


def test_degree_bookkeeping_identity():
    out = assemble_split(base_inputs(q=3))
    dr = out.degree_report
    assert dr["deg_total"] == dr["deg_p0"] + dr["deg_r"]
    assert dr["deg_r"] <= 2 * 3 * (1 + 1) * (1 + 1)  # coarse upper bound


def test_r_contract_exhaustive_small():
    # r_{a,b}(f_X(a') - f_Z(b')) = [a = a'][b = b'] on the full coordinate grid
    q = 3
    inputs = base_inputs(q=q)
    out = assemble_split(inputs)
    # evaluate each p_{x,z} at the exact Lie-algebra points via series M = I + eps v
    for (ai, bi), fn in out.sep_family.items():
        for a2, b2 in itertools.product(range(q), repeat=2):
            v = inputs.fx.apply([a2]) - inputs.fz.apply([b2])
            m = Mat.identity(2).map(lambda x: EpsLaurent.const(x))
            for i in range(2):
                for j in range(2):
                    entry = v[i, j]
                    m[i, j] = m[i, j] + EpsLaurent({1: entry}, lo=0, hi=4)
            val = fn.eval(m)
            expected = 1 if (out.a_tuples[ai] == (a2,) and out.b_tuples[bi] == (b2,)) else 0
            assert val.coeff(0) == GaussRational(expected), (ai, bi, a2, b2)


def test_assemble_output_passes_dpp():
    out = assemble_split(base_inputs(q=2), run_dpp_check=False)
    rep = verify_dpp(out.xfams, out.zfams, MatrixGroupOps(2), "family")
    assert rep.verdict == "pass"


def test_spot_check_catches_broken_inverse():
    fx, fz, px, pz = disjoint_lie_split([emat(2, 1, 0)], [emat(2, 0, 1)])
    bad = SplitInputs(fx, fz, pz, px, Product([]), [ident_family(2)], q=2)  # swapped
    with pytest.raises(SplitError):
        assemble_split(bad)


# -- the reparametrization guard -----------------------------------------------

def middle_with_constant_offset():
    """Middle families whose quotients have non-identity constant terms.

    y2 has constant part [[2,1],[3,2]] (det 1) plus an eps perturbation in
    the (0,0) entry, so the invariant below vanishes on y-distinct quotients
    inexactly (to order exactly eps).
    """
    y1 = ident_family(2)
    y2 = Mat.from_rows([
        [EpsLaurent({0: 2, 1: 1}, lo=0, hi=12), EpsLaurent.const(1)],
        [EpsLaurent.const(3), EpsLaurent.const(2)],
    ])
    return [y1, y2]


def offset_aware_p0():
    """Indicator of 1 on the top-left entry, which the unitriangular-type
    X', Z' families leave exactly invariant; vanishes at the offset's value 2."""
    from tppverify.sepfun import LeadingMinor

    return PolyApply(lagrange_indicator(1, [1, 2]), LeadingMinor(1))


def test_reparametrization_guard_failure_and_fix():
    yfams = middle_with_constant_offset()
    p0 = offset_aware_p0()
    inputs = base_inputs(q=2, p0=p0, yfams=yfams)
    deg_r = 2  # (q-1) * (dX + dZ) with degree-1 coordinate forms

    # forcing t = 1 <= deg r lets r's negative eps powers survive: detected
    out_bad = assemble_split(inputs, t=1, order=deg_r + 2, run_dpp_check=False)
    inst_bad = TppInstance(MatrixGroupOps(2), out_bad.xfams, out_bad.yfams_reparam,
                           out_bad.zfams, "family")
    rep_bad = verify_separating_border(out_bad.sep_family, inst_bad,
                                       order=out_bad.order)
    assert rep_bad.verdict == "fail"
    assert any("negative" in (f["detail"] or "") for f in rep_bad.failures)

    # the assembler's own choice t = deg r + 1 makes the family verify
    out_ok = assemble_split(inputs, order=2 * (deg_r + 1) + 2, run_dpp_check=False)
    assert out_ok.t == deg_r + 1
    inst_ok = TppInstance(MatrixGroupOps(2), out_ok.xfams, out_ok.yfams_reparam,
                          out_ok.zfams, "family")
    rep_ok = verify_separating_border(out_ok.sep_family, inst_ok, order=out_ok.order)
    assert rep_ok.verdict == "pass"


# -- memoised border verification against the per-tuple loop -------------------

def reference_border_report(family, inst, order, sample_budget, seed):
    """Oracle: every member evaluated in full on every tuple, no reuse."""
    nx, ny, nz = inst.sizes()
    report = SepReport("pass", order_used=order)
    pair_keys = sorted(family)
    if nx * nz * nx * ny * ny * nz <= sample_budget:
        tuples = [(ix, iz, ix2, iy, iy2, iz2) for ix, iz in pair_keys
                  for ix2 in range(nx) for iy in range(ny) for iy2 in range(ny)
                  for iz2 in range(nz)]
    else:
        rng = random.Random(seed)
        report.sampled, report.seed = True, seed
        tuples = []
        for i in range(sample_budget):
            ix, iz = pair_keys[rng.randrange(len(pair_keys))]
            if i < sample_budget // 2:
                iy = rng.randrange(ny)
                tuples.append((ix, iz, ix, iy, iy, iz))
            else:
                tuples.append((ix, iz, rng.randrange(nx), rng.randrange(ny),
                               rng.randrange(ny), rng.randrange(nz)))
    for ix, iz, ix2, iy, iy2, iz2 in tuples:
        m = (inst.element("x", ix2).matmul(inst.inv_element("y", iy))
             .matmul(inst.element("y", iy2)).matmul(inst.inv_element("z", iz2)))
        expected = 1 if (ix2 == ix and iz2 == iz and iy == iy2) else 0
        try:
            status, detail = check_border_value(family[(ix, iz)].eval(m), expected)
        except InsufficientOrderError as exc:
            status, detail = "inconclusive", str(exc)
        report.checked += 1
        entry = {"tuple": (ix, iz, ix2, iy, iy2, iz2), "expected": expected,
                 "detail": detail}
        if status == "fail":
            report.failures.append(entry)
        elif status == "inconclusive":
            report.inconclusive.append(entry)
    if report.failures:
        report.verdict = "fail"
    elif report.inconclusive:
        report.verdict = "inconclusive"
    return report


def assembled_family(q, middle, t, order):
    """(out, inst) for the small disjoint split, with a chosen middle set:
    the identity family; the identity and a constant known only to eps^0,
    so that y^-1 y' is I for both y = y' but with different windows
    ("windows"); or the offset families with the offset-aware p0 ("offset")
    or with the constant p0 1, which cannot vanish on y != y'; or two
    exponentials known to eps^order, the window of X' and Z', so that with
    t = 1 every element is I + O(eps) under one window edge and y = y'
    tuples are evaluated at x' z'^-1 ("exp")."""
    if middle == "identity":
        inputs = base_inputs(q=q)
    elif middle == "exp":
        gens = [Mat.from_rows([[1, 0], [0, -1]]), Mat.from_rows([[0, 2], [QQ(1, 3), 0]])]
        inputs = base_inputs(q=q, yfams=[mat_exp_trunc(a, order) for a in gens])
    elif middle == "windows":
        short = Mat.from_rows([[EpsLaurent({0: c}, lo=0, hi=0) for c in row]
                               for row in ([1, 1], [0, 1])])
        inputs = base_inputs(q=q, p0=offset_aware_p0(), yfams=[ident_family(2), short])
    else:
        p0 = offset_aware_p0() if middle == "offset" else Product([])
        inputs = base_inputs(q=q, p0=p0, yfams=middle_with_constant_offset())
    out = assemble_split(inputs, t=t, order=order, run_dpp_check=False)
    inst = TppInstance(MatrixGroupOps(2), out.xfams, out.yfams_reparam, out.zfams,
                       "family")
    return out, inst


@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 3),
       middle=st.sampled_from(["identity", "windows", "offset", "constant-p0", "exp"]),
       t=st.sampled_from([None, 1, 2]),
       order=st.integers(2, 8),
       budget=st.one_of(st.integers(1, 40), st.just(10 ** 4)),
       seed=st.integers(0, 3),
       cap=st.sampled_from([0, 1, 3, sepverify.MEMO_CAP]))
def test_memoised_border_matches_per_tuple_loop(q, middle, t, order, budget, seed, cap):
    out, inst = assembled_family(q, middle, t, order)
    want = reference_border_report(out.sep_family, inst, order, budget, seed).to_json()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepverify, "MEMO_CAP", cap)
        got = verify_separating_border(out.sep_family, inst, order,
                                       sample_budget=budget, seed=seed)
    assert got.to_json() == want
    # a loaded family shares no nodes: the same walk caches nothing
    loaded = {k: SepFunction.from_json(fn.to_json()) for k, fn in out.sep_family.items()}
    assert not sepverify._shared_nodes(loaded)
    got = verify_separating_border(loaded, inst, order, sample_budget=budget, seed=seed)
    assert got.to_json() == want


@pytest.mark.parametrize("middle, t, order, verdict", [
    # forced t = 1 lets r's negative powers survive
    ("offset", 1, 4, "fail"),
    # a constant p0 fails to vanish on y != y'
    ("constant-p0", None, 8, "fail"),
    # M = I with two windows: only the narrow one leaves r unknown at eps^0
    ("windows", 1, 4, "inconclusive"),
])
def test_memoised_border_planted_failures_and_reuse(middle, t, order, verdict):
    out, inst = assembled_family(2, middle, t, order)
    p0 = out.sep_family[(0, 0)].children[0]
    assert all(fn.children[0] is p0 for fn in out.sep_family.values())
    evals = []
    orig = p0.eval
    p0.eval = lambda m, ctx=None: evals.append(m.key()) or orig(m, ctx)
    try:
        got = verify_separating_border(out.sep_family, inst, order)
    finally:
        del p0.eval
    want = reference_border_report(out.sep_family, inst, order, 10 ** 4, 0)
    assert got.verdict == verdict
    assert got.to_json() == want.to_json()
    # p0 is evaluated once per distinct argument, not once per tuple
    assert len(evals) == len(set(evals)) < got.checked


@pytest.mark.parametrize("middle, t, cancels", [
    ("exp", None, True),
    # reparametrized by t = 2, Y is known to eps^9 and X', Z' to eps^4
    ("exp", 2, False),
    # the identity is known to every order, X' and Z' to eps^4
    ("identity", None, False),
    ("windows", 1, False),
])
def test_y_equal_tuples_evaluate_at_x_z_inverse(middle, t, cancels):
    out, inst = assembled_family(2, middle, t, 4)
    want = reference_border_report(out.sep_family, inst, 4, 10 ** 4, 0)
    calls = []
    product = inst.product
    inst.product = lambda factors: calls.append(tuple(factors)) or product(factors)
    got = verify_separating_border(out.sep_family, inst, 4)
    assert got.to_json() == want.to_json()
    # y = y' tuples multiply x' z'^-1 only when every element is I + O(eps)
    # under one window edge; otherwise the y^-1 y chain is kept
    assert any(len(f) == 2 for f in calls) == cancels
    assert any(f[1][1] == f[2][1] for f in calls if len(f) == 4) != cancels


@pytest.mark.parametrize("budget", [0, -1])
def test_border_sampled_budget_below_one_rejected(budget):
    # a sampled run with no samples would pass having checked nothing
    out, inst = assembled_family(2, "identity", None, 4)
    with pytest.raises(ValueError, match="budget of at least 1"):
        verify_separating_border(out.sep_family, inst, 4, sample_budget=budget)


@pytest.mark.parametrize("call", [
    pytest.param(lambda inst: verify_separating({}, inst), id="separating"),
    pytest.param(lambda inst: verify_separating_border({}, inst, 3), id="border"),
    pytest.param(lambda inst: verify_indicator_border(Product([]), [], sample_budget=5),
                 id="indicator-no-y"),
    pytest.param(lambda inst: verify_indicator_border(Product([]), [ident_family(2)], pairs=[]),
                 id="indicator-no-pairs"),
])
def test_empty_inputs_rejected(call):
    # with nothing to check, each verifier would report pass with checked 0
    ident = ident_family(2)
    inst = TppInstance(MatrixGroupOps(2), [ident], [ident.copy()], [ident.copy()], "family")
    with pytest.raises(ValueError, match="empty"):
        call(inst)


# -- coordinate indicators built by linearity ----------------------------------

def shifted_reference(poly, form, m):
    """poly(form((M - I)/eps)), with (M - I)/eps built entry by entry."""
    n = m.rows
    data = []
    for idx, x in enumerate(m.data):
        if idx // n == idx % n:
            x = x + EpsLaurent.const(-1)
        data.append(x.shift(-1))
    return PolyApply(poly, form).eval(Mat(n, n, data))


def outcome(thunk):
    """The value's (coeffs, lo, hi), or the type and text of what it raised."""
    try:
        v = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return v.coeffs, v.lo, v.hi


RATIONALS = [QQ(0), QQ(0), QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4)]


@st.composite
def series_entry(draw, diagonal):
    """A series entry; Laurent and short windows included, or I + O(eps)."""
    if draw(st.booleans()):
        lo = 0
        hi = draw(st.sampled_from([1, 2, 3, INF_ORDER]))
        coeffs = {0: 1 if diagonal else 0}
        coeffs.update({e: GaussRational(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
                       for e in range(1, min(hi, 3) + 1)})
        return EpsLaurent(coeffs, lo=lo, hi=hi)
    lo = draw(st.integers(-2, 1))
    hi = draw(st.one_of(st.integers(lo, lo + 3), st.just(INF_ORDER)))
    coeffs = {e: GaussRational(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
              for e in range(lo, min(hi, lo + 3) + 1)}
    return EpsLaurent(coeffs, lo=lo, hi=hi)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_coordinate_indicators_match_shifted_reference(data, n):
    def coef_mat():
        return Mat(n, n, [data.draw(st.sampled_from(RATIONALS)) for _ in range(n * n)])

    form = LinearForm(coef_mat(), coef_mat(), coef_mat(), coef_mat())
    values = data.draw(st.lists(
        st.builds(GaussRational, st.integers(-2, 2), st.integers(-1, 1)),
        min_size=1, max_size=3, unique_by=lambda g: (g.re, g.im)))
    m = Mat(n, n, [data.draw(series_entry(idx // n == idx % n)) for idx in range(n * n)])
    [nodes] = coordinate_indicators(values, [form])
    for v in values:
        got = outcome(lambda: nodes[v].eval(m))
        want = outcome(lambda: shifted_reference(lagrange_indicator(v, values), form, m))
        assert got == want


def test_coordinate_indicator_keeps_window_of_cancelling_form():
    # Re and Im of the entry cancel in the form, so form(M) is zero on its
    # window; its window must still be the one the shifted matrix gives, which
    # the error text of an unknown constant term reports
    zero = Mat.zeros(1, 1)
    form = LinearForm(zero, zero, Mat.from_rows([[1]]), Mat.from_rows([[1]]))
    m = Mat.from_rows([[EpsLaurent({-1: GaussRational(1, -1)}, lo=-1, hi=0)]])
    [nodes] = coordinate_indicators([GaussRational(0)], [form])
    got = outcome(lambda: nodes[GaussRational(0)].eval(m))
    assert got == outcome(lambda: shifted_reference(lagrange_indicator(0, [0]), form, m))
    assert got == ("InsufficientOrderError", "coefficient at eps^0 unknown (window [-2,-1])")
