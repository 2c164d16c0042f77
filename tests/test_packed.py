"""Differential tests of the packed series kernels against boxed loops.

Every oracle here runs on OracleSeries (series_oracle.py), the dict-loop
series arithmetic that shares no code with the packed kernel, since
EpsLaurent's own arithmetic runs on that kernel.  oracle_matmul is the
generic Mat.matmul inner loop on OracleSeries entries (a sum of series
products).  Every entry of a packed product must equal it bit for bit,
windows included, and InsufficientOrderError must be raised in exactly the
same cases.  The packed series determinant is held to the cofactor DP run on
oracle series (matrices._det_expansion), and LinearForm's series evaluation
to the boxed sum of coefficient times real or imaginary part, in the same
way, and the packed p_1 of MinorInvariant to the boxed k-subset loop at
k = 1 (series_oracle.oracle_pk).

The boxed paths that the packed kernel replaced live on here as oracles only:
the Neumann inverse, UniPoly's Taylor expansion and evaluation,
check_border_value on a boxed value and mat_exp_trunc's loop over exact
powers.  The packed entrywise operations (add, negate, shift, truncate) are
held to the oracle's own.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.groups import MatrixGroupOps
from tppverify.matrices import (
    Mat,
    PackedSeriesMat,
    _det_expansion,
    lpm,
    mat_det,
    mat_exp_trunc,
    mat_inv_exact,
    mat_inv_series,
    mat_to_series,
)
from tppverify.running_example import running_border_p0
from tppverify.scalars import ExactArithmeticError, GaussRational, QQ
from tppverify.sepfun import (
    Affine,
    DivEps,
    EvalContext,
    LeadingMinor,
    LinearForm,
    MinorInvariant,
    PolyApply,
    SumNode,
    UniPoly,
    lagrange_indicator,
)
from tppverify.sepverify import check_border_value, verify_indicator_border
from tppverify.series import INF_ORDER, EpsLaurent, InsufficientOrderError
from tppverify.tpp import (
    TppInstance,
    _series_deviation,
    verify_tpp_series,
)

from series_oracle import OracleSeries, oracle_matmul, oracle_pk, to_oracle, triple


def boxed_series_deviation(prod: Mat, order: int):
    """Oracle: classify prod - I entry by entry on boxed series."""
    n = prod.rows
    min_hi = order
    deviates = False
    for i in range(n):
        for j in range(n):
            s = OracleSeries.of(prod[i, j])
            min_hi = min(min_hi, s.hi)
            target = 1 if i == j else 0
            if s.known(0) and s.coeff(0) != target:
                deviates = True
            if any(e != 0 and e <= order and not c.is_zero()
                   for e, c in s.coeffs.items()):
                deviates = True
    return deviates, min_hi


def same_entries(got: Mat, want: Mat) -> bool:
    """got holds EpsLaurent entries equal to want's, windows included."""
    return (got.rows, got.cols) == (want.rows, want.cols) and all(
        type(s) is EpsLaurent and triple(s) == triple(t) for s, t in zip(got.data, want.data))


def outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientOrderError:
        return InsufficientOrderError


# -- strategies -----------------------------------------------------------------

rationals = st.builds(QQ, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
gauss = st.builds(GaussRational, rationals, st.one_of(st.just(0), rationals))


@st.composite
def series_entries(draw):
    lo = draw(st.integers(-3, 3))
    # finite windows ending below and above a typical order, windows that
    # saturate INF_ORDER, and unlimited ones
    hi = draw(st.one_of(st.integers(lo, lo + 5), st.just(INF_ORDER - 1),
                        st.just(INF_ORDER)))
    top = min(hi, lo + 5)
    exps = draw(st.lists(st.integers(lo, top), max_size=4, unique=True))
    return EpsLaurent({e: draw(gauss) for e in exps}, lo=lo, hi=hi)


exact_entries = st.one_of(st.integers(-3, 3), rationals, gauss)


def matrices(rows, cols, entries):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda data: Mat(rows, cols, data))


@st.composite
def operand_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    # the other operand: all series, mixed series/exact, or all exact
    other = draw(st.sampled_from([series_entries(),
                                  st.one_of(series_entries(), exact_entries),
                                  exact_entries]))
    series_left = draw(st.booleans())
    a = draw(matrices(n, k, series_entries() if series_left else other))
    b = draw(matrices(k, m, other if series_left else series_entries()))
    return a, b


# -- kernel ---------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_packed_matmul_matches_boxed_loop(ab):
    a, b = ab
    want = outcome(oracle_matmul, a, b)
    got = outcome(a.matmul, b)
    if want is InsufficientOrderError:
        assert got is InsufficientOrderError
    else:
        assert got is not InsufficientOrderError
        assert same_entries(got, want)


def test_packed_matmul_raises_on_empty_term_window():
    # zero on a window that stops just short of INF_ORDER, times eps^2 known
    # exactly: the term window [INF_ORDER + 1, INF_ORDER] is empty
    a = Mat(1, 1, [EpsLaurent({}, lo=0, hi=INF_ORDER - 1)])
    b = Mat(1, 1, [EpsLaurent.eps(2)])
    with pytest.raises(InsufficientOrderError):
        oracle_matmul(a, b)
    with pytest.raises(InsufficientOrderError):
        a.matmul(b)


@settings(max_examples=100, deadline=None)
@given(operand_pairs())
def test_pack_unpack_roundtrip_and_backend_type(ab):
    a, b = ab
    series_side = a if all(isinstance(x, EpsLaurent) for x in a.data) else b
    assert same_entries(PackedSeriesMat.pack(series_side).unpack(), series_side)
    prod = outcome(a.matmul, b)
    if prod is InsufficientOrderError:
        return
    qq = type(QQ(0))
    for s in prod.data:
        for c in s.coeffs.values():
            assert type(c) is GaussRational
            assert type(c.re) is qq and type(c.im) is qq


def test_exact_operands_keep_the_generic_path():
    a = Mat.from_rows([[1, 2], [3, 4]])
    assert a.matmul(a) == Mat.from_rows([[7, 10], [15, 22]])
    g = Mat.from_rows([[GaussRational(0, 1), 1], [0, 1]])
    assert all(type(x) is not EpsLaurent for x in g.matmul(g).data)


# -- determinant ----------------------------------------------------------------

@st.composite
def det_matrices(draw):
    """Square, n = 1..4, at least one series entry: series with negative
    exponents, short and unlimited windows or zero on their window, mixed
    with exact int, rational and Gaussian entries."""
    n = draw(st.integers(1, 4))
    m = draw(matrices(n, n, draw(st.sampled_from([
        series_entries(), st.one_of(series_entries(), exact_entries)]))))
    if not m.has_series_entries():
        m.data[draw(st.integers(0, n * n - 1))] = draw(series_entries())
    return m


@settings(max_examples=300, deadline=None)
@given(det_matrices())
def test_packed_det_matches_boxed_dp(m):
    want = outcome(_det_expansion, to_oracle(m))
    got = outcome(mat_det, m)
    if want is InsufficientOrderError:
        assert got is InsufficientOrderError
        return
    assert got is not InsufficientOrderError
    if m.rows == 1:
        assert got is m.data[0]
        return
    assert type(got) is EpsLaurent
    assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi)
    qq = type(QQ(0))
    for c in got.coeffs.values():
        assert type(c) is GaussRational
        assert type(c.re) is qq and type(c.im) is qq


def test_packed_det_raises_on_empty_term_window():
    # as in the matmul case: zero up to INF_ORDER - 1 against eps^2 known exactly
    m = Mat(2, 2, [EpsLaurent({}, lo=0, hi=INF_ORDER - 1), EpsLaurent.const(1),
                   EpsLaurent.const(1), EpsLaurent.eps(2)])
    with pytest.raises(InsufficientOrderError):
        _det_expansion(to_oracle(m))
    with pytest.raises(InsufficientOrderError):
        mat_det(m)


def test_one_by_one_det_returns_its_entry():
    s = EpsLaurent({-1: 2, 1: GaussRational(1, 3)}, lo=-1, hi=2)
    assert mat_det(Mat(1, 1, [s])) is s
    assert lpm(Mat(2, 2, [s, 1, 0, s]), 1) is s


# Full reports of verify_indicator_border on the GL_4 running example, pinned
# from the boxed determinant: the contract at budget 60, the bare lpm argument
# (its constant terms are the failures) and an order-1 p0 whose windows end
# below eps^0; then lpm_2..4 of three arguments y_i^-1 y_j.
GOLDEN_BORDER = {
    "p0": {
        "verdict": "pass",
        "checked": 67,
        "sampled": True,
        "seed": 0,
        "notes": ["pairs: 9 equal, 58 unequal"],
    },
    "argument": {
        "verdict": "fail",
        "checked": 16,
        "sampled": True,
        "failures": [
            {"pair": [8, 11], "detail": "constant term 31/2 != 0", "expected": 0},
            {"pair": [0, 14], "detail": "constant term 63/2 != 0", "expected": 0},
            {"pair": [7, 1], "detail": "constant term 17/2 != 0", "expected": 0},
            {"pair": [5, 3], "detail": "constant term 14 != 0", "expected": 0},
            {"pair": [11, 15], "detail": "constant term 31 != 0", "expected": 0},
            {"pair": [7, 12], "detail": "constant term 39/2 != 0", "expected": 0},
            {"pair": [3, 7], "detail": "constant term 27/2 != 0", "expected": 0},
            {"pair": [0, 6], "detail": "constant term 8 != 0", "expected": 0},
            {"pair": [13, 8], "detail": "constant term 24 != 0", "expected": 0},
            {"pair": [5, 12], "detail": "constant term 11 != 0", "expected": 0},
        ],
        "seed": 5,
        "notes": ["pairs: 4 equal, 12 unequal"],
    },
    "order1": {
        "verdict": "inconclusive",
        "checked": 16,
        "sampled": True,
        "inconclusive": [
            {"pair": [8, 11], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [0, 14], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [7, 1], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [5, 3], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [11, 15], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [7, 12], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [3, 7], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [0, 6], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [13, 8], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
            {"pair": [5, 12], "detail": "coefficient at eps^0 unknown (window [-2,-1])"},
        ],
        "seed": 5,
        "notes": ["pairs: 4 equal, 12 unequal"],
    },
}

GOLDEN_LPM = {
    "0,1": [
        {"coeffs": {"0": "1", "2": "-19/2", "3": "2"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1", "2": "-17", "3": "1"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1"}, "lo": 0, "hi": 3},
    ],
    "5,2": [
        {"coeffs": {"0": "1", "2": "-3", "3": "-2"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1", "2": "-4", "3": "-1"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1"}, "lo": 0, "hi": 3},
    ],
    "3,3": [
        {"coeffs": {"0": "1"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1"}, "lo": 0, "hi": 3},
        {"coeffs": {"0": "1"}, "lo": 0, "hi": 3},
    ],
}


def _jsonable(obj):
    """Tuples as lists, as in a written report."""
    return json.loads(json.dumps(obj))


def test_indicator_border_golden_reports():
    p0, yfams, _ = running_border_p0(4, 4, yfam_cap=16, seed=3, check_pairs=0)
    argument = DivEps(2, Affine(-1, 4, SumNode([LeadingMinor(j) for j in range(1, 5)])))
    p0_order1, yfams1, _ = running_border_p0(4, 4, yfam_cap=16, seed=3, check_pairs=0,
                                             order=1)
    got = {
        "p0": verify_indicator_border(p0, yfams, sample_budget=60).to_json(),
        "argument": verify_indicator_border(argument, yfams, sample_budget=12,
                                            seed=5).to_json(),
        "order1": verify_indicator_border(p0_order1, yfams1, sample_budget=12,
                                          seed=5).to_json(),
    }
    assert _jsonable(got) == GOLDEN_BORDER
    lpms = {}
    for i, j in [(0, 1), (5, 2), (3, 3)]:
        m = mat_inv_series(yfams[i]).matmul(yfams[j])
        lpms[f"{i},{j}"] = [lpm(m, k).to_json() for k in (2, 3, 4)]
    assert _jsonable(lpms) == GOLDEN_LPM


# -- mat_exp_trunc on packed powers ------------------------------------------------

def boxed_exp_trunc(a: Mat, order: int) -> Mat:
    """Oracle: sum eps^k a^k / k! from boxed exact powers a^k."""
    n = a.rows
    coeff_mats = [Mat.identity(n, one=GaussRational(1), zero=GaussRational(0))]
    power = coeff_mats[0]
    fact = QQ(1)
    for k in range(1, order + 1):
        power = power.matmul(a)
        fact = fact * k
        coeff_mats.append(power.map(lambda x, f=fact: GaussRational.from_any(x) * GaussRational(1 / f)))
    return Mat(n, n, [EpsLaurent({k: cm.data[idx] for k, cm in enumerate(coeff_mats)},
                                 lo=0, hi=order) for idx in range(n * n)])


@st.composite
def exp_arguments(draw):
    n = draw(st.integers(1, 4))
    return draw(matrices(n, n, st.one_of(st.just(0), exact_entries))), draw(st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(exp_arguments())
def test_packed_exp_trunc_matches_boxed_powers(args):
    a, order = args
    got = mat_exp_trunc(a, order)
    assert same_entries(got, boxed_exp_trunc(a, order))
    qq = type(QQ(0))
    for s in got.data:
        assert all(type(c.re) is qq and type(c.im) is qq for c in s.coeffs.values())


def test_exp_trunc_on_su_and_running_example_arguments():
    from tppverify.running_example import skew_symmetric_lattice
    from tppverify.su import su_build, su_s_matrix, su_y_lattice

    constr = su_build(4)
    coords, _ = su_y_lattice(constr, 2, cap=6, seed=0)
    skew, _ = skew_symmetric_lattice(4, 4, cap=6, seed=1)
    args = [su_s_matrix(constr, c) for c in coords] + skew
    for a in args:
        for order in (0, 1, 3, 5):
            assert same_entries(mat_exp_trunc(a, order), boxed_exp_trunc(a, order))
    square = Mat.from_rows([[1, 2], [3, 4]])
    for bad, order, text in [(Mat(1, 2, [1, 2]), 1, "exponential of non-square matrix"),
                             (square, -1, "order must be >= 0"),
                             (mat_to_series(square), 1,
                              "mat_exp_trunc expects exact (non-series) entries")]:
        assert outcome_text(mat_exp_trunc, bad, order) == (ExactArithmeticError, text)


# -- packed chains and _series_deviation -----------------------------------------

def random_family(n, rng, order):
    a = Mat.from_rows([[GaussRational(QQ(rng.randint(-3, 3), rng.choice([1, 2, 3])),
                                      QQ(rng.randint(-2, 2), rng.choice([1, 2])))
                        for _ in range(n)] for _ in range(n)])
    return mat_exp_trunc(a, order)


def tpp_factors(ix, ix2, iy, iy2, iz, iz2):
    """TppInstance.product keys of x x'^-1 y y'^-1 z z'^-1."""
    return (("x", ix, False), ("x", ix2, True), ("y", iy, False),
            ("y", iy2, True), ("z", iz, False), ("z", iz2, True))


def boxed_chain(factors):
    p = factors[0]
    for f in factors[1:]:
        p = oracle_matmul(p, f)
    return p


def test_series_deviation_matches_reference_on_random_chains():
    rng = random.Random(7)
    for trial in range(12):
        n = rng.choice([2, 3])
        orders = [rng.randint(1, 3) for _ in range(3)]
        fams = {w: [random_family(n, rng, o) for _ in range(3)]
                for w, o in zip("xyz", orders)}
        inst = TppInstance(MatrixGroupOps(n), fams["x"], fams["y"], fams["z"], "family")
        tuples = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(6)]
        tuples.append((1, 1, 2, 2, 0, 0))                  # planted all-equal tuple
        for ix, ix2, iy, iy2, iz, iz2 in tuples:
            boxed = boxed_chain([inst.element("x", ix), inst.inv_element("x", ix2),
                                 inst.element("y", iy), inst.inv_element("y", iy2),
                                 inst.element("z", iz), inst.inv_element("z", iz2)])
            packed = inst.product(tpp_factors(ix, ix2, iy, iy2, iz, iz2))
            assert same_entries(packed.unpack(), boxed)
            for order in (0, 1, 2, 3, 5):
                assert _series_deviation(packed, order) == boxed_series_deviation(boxed, order)
        boxed = boxed_chain([inst.inv_element("x", 0), inst.element("x", 1),
                             inst.inv_element("z", 2), inst.element("z", 0)])
        for order in (1, 3):
            dpp = inst.product((("x", 0, True), ("x", 1, False), ("z", 2, True), ("z", 0, False)))
            assert (_series_deviation(dpp, order)
                    == boxed_series_deviation(boxed, order))


def test_series_deviation_planted_tuples():
    rng = random.Random(11)
    xs = [random_family(3, rng, 3) for _ in range(2)]
    ys = [random_family(3, rng, 3)]
    # Z' = X': x0 x1^-1 y y^-1 x1 x0^-1 = I exactly, so no coefficient in the
    # window can certify it; the all-equal tuple is I as well
    inst = TppInstance(MatrixGroupOps(3), xs, ys, xs, "family")
    for tup in [(0, 1, 0, 0, 1, 0), (1, 1, 0, 0, 0, 0)]:
        packed = inst.product(tpp_factors(*tup))
        boxed = boxed_chain([inst.element("x", tup[0]), inst.inv_element("x", tup[1]),
                             inst.element("y", 0), inst.inv_element("y", 0),
                             inst.element("z", tup[4]), inst.inv_element("z", tup[5])])
        assert _series_deviation(packed, 3) == boxed_series_deviation(boxed, 3)
        assert _series_deviation(packed, 3) == (False, 3)
    rep = verify_tpp_series(inst, order=3, mode="exhaustive")
    assert rep.verdict == "inconclusive"
    ix, ix2, iy, iy2, iz, iz2 = rep.witness.indices
    assert ix != ix2 and iy == iy2 and (iz, iz2) == (ix2, ix)


def test_packed_memo_keeps_public_api_boxed():
    rng = random.Random(3)
    fams = [random_family(2, rng, 2) for _ in range(2)]
    inst = TppInstance(MatrixGroupOps(2), fams, fams[:1], fams, "family")
    inst.product(tpp_factors(0, 1, 0, 0, 1, 0))
    for which in "xyz":
        for idx in range(len(getattr(inst, which))):
            assert all(isinstance(s, EpsLaurent) for s in inst.element(which, idx).data)
    inv = inst.inv_element("x", 1)
    assert all(isinstance(s, EpsLaurent) for s in inv.data)
    assert same_entries(inv.matmul(fams[1]), oracle_matmul(inv, fams[1]))
    assert same_entries(mat_inv_series(fams[1]), inv)


# -- LinearForm on series arguments ----------------------------------------------

def boxed_linear_form(form: LinearForm, m: Mat) -> OracleSeries:
    """Oracle: sum of coef_r * Re(x) + coef_i * Im(x) over oracle series."""
    def part(x, which):
        return OracleSeries({e: GaussRational(getattr(c, which))
                             for e, c in x.coeffs.items() if getattr(c, which) != 0},
                            x.lo, x.hi)

    acc = OracleSeries.of(0)
    for j in range(m.rows):
        for k in range(m.cols):
            x = OracleSeries.of(m[j, k])
            coef_r = GaussRational(form.rr[j, k], form.ir[j, k])
            coef_i = GaussRational(form.ri[j, k], form.ii[j, k])
            if not coef_r.is_zero():
                acc = acc + coef_r * part(x, "re")
            if not coef_i.is_zero():
                acc = acc + coef_i * part(x, "im")
    return acc


# mostly zero, as the left-inverse forms are
form_coeffs = st.one_of(st.just(QQ(0)), st.just(QQ(0)), rationals)


@st.composite
def form_and_argument(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mats = [draw(matrices(rows, cols, form_coeffs)) for _ in range(4)]
    # zero coefficient rows, in all four matrices at once
    for j in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        for mat in mats:
            for k in range(cols):
                mat[j, k] = QQ(0)
    m = draw(matrices(rows, cols, st.one_of(series_entries(), series_entries(),
                                            exact_entries)))
    if not m.has_series_entries():
        m[0, 0] = draw(series_entries())
    return LinearForm(*mats), m


@settings(max_examples=400, deadline=None)
@given(form_and_argument())
def test_linear_form_series_matches_boxed_sum(fm):
    form, m = fm
    want = boxed_linear_form(form, m)
    got = form.eval(m)
    assert type(got) is EpsLaurent
    assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi)
    qq = type(QQ(0))
    for c in got.coeffs.values():
        assert type(c) is GaussRational
        assert type(c.re) is qq and type(c.im) is qq


def test_linear_form_windows_of_zero_parts():
    # Re part zero on [-2, 1], Im part eps^-1: the real term starts at hi = 1,
    # the imaginary one at -1; the sum stops at the smallest hi over its terms
    one = Mat(1, 1, [QQ(1)])
    zero = Mat(1, 1, [QQ(0)])
    x = EpsLaurent({-1: GaussRational(0, 3)}, lo=-2, hi=1)
    for form, lo in [(LinearForm(one, zero, zero, zero), 0),
                     (LinearForm(zero, one, zero, zero), -1),
                     (LinearForm(zero, zero, zero, zero), 0)]:
        got = form.eval(Mat(1, 1, [x]))
        want = boxed_linear_form(form, Mat(1, 1, [x]))
        assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi)
        assert got.lo == lo


# -- p_1 (MinorInvariant, k = 1) on series arguments ------------------------------

@st.composite
def p1_and_argument(draw):
    n = draw(st.integers(1, 4))
    d = draw(matrices(n, n, st.one_of(st.just(0), rationals, rationals, gauss)))
    # Laurent entries with short, saturating and unlimited windows, mixed with
    # exact entries, or an all-exact argument
    entries = draw(st.sampled_from([series_entries(),
                                    st.one_of(series_entries(), exact_entries),
                                    exact_entries]))
    return d, draw(matrices(n, n, entries))


@settings(max_examples=300, deadline=None)
@given(p1_and_argument())
def test_packed_p1_matches_boxed_loop(dm):
    d, m = dm
    want = outcome(oracle_pk, 1, d, m)
    got = outcome(MinorInvariant(1, d).eval, m, EvalContext())
    if want is InsufficientOrderError:
        assert got is InsufficientOrderError
        return
    if not m.has_series_entries():
        # an exact argument is packed and read at eps^0: the constant term
        assert want.hi == INF_ORDER and set(want.coeffs) <= {0}
        assert got == want.coeff(0)
        return
    assert type(got) is EpsLaurent
    assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi)
    qq = type(QQ(0))
    for c in got.coeffs.values():
        assert type(c) is GaussRational
        assert type(c.re) is qq and type(c.im) is qq


def test_packed_p1_on_su_arguments():
    # the y_i^-1 y_j arguments of the su-exhaustive p0 contract, and the
    # cofactor-route cross-check, which agrees on these group elements
    from tppverify.su import su_build, su_p1_cross_checked, su_p1_node, su_s_matrix, su_y_lattice

    constr = su_build(4)
    coords, _ = su_y_lattice(constr, 2, cap=6, seed=0)
    ys = [mat_exp_trunc(su_s_matrix(constr, c), 3) for c in coords]
    node = su_p1_node(constr)
    for yi in ys:
        inv = mat_inv_series(yi)
        for yj in ys:
            m = inv.matmul(yj)
            got = node.eval(m, EvalContext())
            want = oracle_pk(1, constr.d_mat, m)
            assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi)
            checked = su_p1_cross_checked(constr, m)
            assert (checked.coeffs, checked.lo, checked.hi) == (got.coeffs, got.lo, got.hi)


# -- entrywise packed operations against EpsLaurent --------------------------------

def packed_scaled(p: PackedSeriesMat, f: int) -> PackedSeriesMat:
    """The same matrix over f times its denominator."""
    return PackedSeriesMat(p.rows, p.cols, p.den * f,
                           [(lo, hi, v, tuple((e, re * f, im * f) for e, re, im in t))
                            for lo, hi, v, t in p.entries])


def same_series(got, want) -> bool:
    return type(got) is EpsLaurent and triple(got) == triple(want)


any_entries = st.one_of(series_entries(), series_entries(), exact_entries)


@st.composite
def entry_pairs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a, b = (draw(matrices(rows, cols, any_entries)) for _ in range(2))
    return a, b, draw(st.integers(1, 6)), draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(entry_pairs(), st.integers(-4, 4), st.one_of(st.integers(-3, 6), st.just(INF_ORDER)))
def test_packed_entrywise_ops_match_eps_laurent(ab, k, h):
    a, b, fa, fb = ab
    pa = packed_scaled(PackedSeriesMat.pack(a), fa)
    pb = packed_scaled(PackedSeriesMat.pack(b), fb)
    sa, sb = to_oracle(a), to_oracle(b)
    assert same_entries(pa.add(pb).unpack(), sa + sb)
    assert same_entries(pa.neg().unpack(), sa.map(lambda x: -x))
    assert same_entries(pa.shift(k).unpack(), sa.map(lambda x: x.shift(k)))
    assert same_entries(pa.truncate(h).unpack(), sa.map(lambda x: x.truncate(h)))
    # every operation keeps each entry's effective valuation consistent
    for p in (pa.add(pb), pa.neg(), pa.shift(k), pa.truncate(h), pa.reduced()):
        for _, hi, v, t in p.entries:
            assert v == (t[0][0] if t else hi)


@settings(max_examples=200, deadline=None)
@given(entry_pairs())
def test_packed_key_names_the_value_not_its_denominator(ab):
    a, b, fa, fb = ab
    pa = PackedSeriesMat.pack(a)
    # the reduced form is the packed form of the unpacked matrix
    scaled = packed_scaled(pa, fa * fb)
    red = scaled.reduced()
    assert (red.den, red.entries) == (pa.den, pa.entries)
    assert scaled.key() == pa.key()
    equal = same_entries(mat_to_series(a), mat_to_series(b))
    assert (PackedSeriesMat.pack(b).key() == pa.key()) == equal


# -- the Neumann inverse ------------------------------------------------------------

def boxed_inv_series(m: Mat) -> Mat:
    """Oracle: the Neumann loop on oracle series, products by oracle_matmul.

    A stored negative power or an unlimited window is accepted only when a
    power of N = C M - I is exactly zero (every entry zero with an unlimited
    window) within n terms.  A window starting above eps^0 is accepted: its
    eps^0 coefficient is a known zero.
    """
    n = m.rows
    m = to_oracle(m)
    hi = min(x.hi for x in m.data)
    c0 = m.map(lambda x: x.coeff(0))
    c0_inv_s = to_oracle(mat_inv_exact(c0))
    ident = to_oracle(Mat.identity(n))
    nmat = oracle_matmul(c0_inv_s, m) - ident
    negative = any(e < 0 for x in m.data for e in x.coeffs)
    must_vanish = negative or hi >= INF_ORDER
    acc = term = ident
    for _ in range(n if must_vanish else hi):
        term = oracle_matmul(term, nmat).map(lambda x: -x)
        if all(x.is_zero_on_window() for x in term.data):
            break
        acc = acc + term
    if must_vanish and any(x.coeffs or x.hi < INF_ORDER for x in term.data):
        raise ExactArithmeticError(
            "series matrix inverse of negative powers needs a nilpotent C M - I"
            if negative else
            "series matrix inverse of an unlimited window needs a nilpotent C M - I")
    return oracle_matmul(acc, c0_inv_s).map(lambda x: x.truncate(hi))


def multiplies_back(m: Mat, inv: Mat) -> bool:
    """m inv equals I on every entry's window (oracle arithmetic)."""
    prod = oracle_matmul(m, inv)
    n = m.rows
    return all(prod[i, j].eq_on_window(int(i == j)) for i in range(n) for j in range(n))


def outcome_text(fn, *args):
    """fn(*args), or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except (InsufficientOrderError, ExactArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def near_identity_entries(draw):
    """Mostly valuation-0 windows with a constant term; sometimes lo = 1 or
    a window ending below eps^0, and unlimited windows."""
    lo = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    hi = draw(st.one_of(st.integers(max(lo, -1), 4), st.just(INF_ORDER)))
    exps = draw(st.lists(st.integers(lo, min(hi, lo + 4)), max_size=3, unique=True))
    return EpsLaurent({e: draw(gauss) for e in exps if e >= lo}, lo=lo, hi=hi)


@st.composite
def inverse_operands(draw):
    n = draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        # unit upper triangular with Laurent entries above the diagonal:
        # N = C M - I is strictly upper triangular, so exactly nilpotent
        above = st.one_of(exact_entries, near_identity_entries(), st.builds(
            lambda c, hi: EpsLaurent({-1: c}, lo=-1, hi=hi), gauss, st.integers(0, 3)))
        return Mat(n, n, [1 if i == j else draw(above) if j > i else 0
                          for i in range(n) for j in range(n)])
    if draw(st.integers(0, 3)) == 0:
        # I + O(eps), the path that skips C: one window for every entry or
        # one per entry, finite or unlimited
        his = st.sampled_from([0, 1, 2, 3, INF_ORDER])
        shared = draw(st.one_of(st.none(), his))
        data = []
        for idx in range(n * n):
            hi = draw(his) if shared is None else shared
            exps = draw(st.lists(st.integers(1, 4), max_size=2, unique=True))
            coeffs = {e: draw(gauss) for e in exps if e <= hi}
            if idx % (n + 1) == 0:
                coeffs[0] = 1
            data.append(EpsLaurent(coeffs, lo=0, hi=hi))
        return Mat(n, n, data)
    m = draw(matrices(n, n, st.one_of(near_identity_entries(), near_identity_entries(),
                                      exact_entries)))
    if draw(st.booleans()):
        # I + m: an invertible constant term most of the time
        for i in range(n):
            m[i, i] = m[i, i] + 1
    return m


@settings(max_examples=300, deadline=None)
@given(inverse_operands())
def test_packed_inverse_matches_boxed_neumann(m):
    want = outcome_text(boxed_inv_series, m)
    got = outcome_text(mat_inv_series, m)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert same_entries(got, want)
    # every inverse given is an inverse on its window; with a negative power
    # drawn, only a nilpotent N = C M - I (one that vanishes exactly) passes
    assert multiplies_back(m, got)
    if any(e < 0 for x in to_oracle(m).data for e in x.coeffs):
        n = m.rows
        c0_inv = mat_inv_exact(to_oracle(m).map(lambda x: x.coeff(0)))
        nmat = oracle_matmul(c0_inv, m) - to_oracle(Mat.identity(n))
        power = nmat
        for _ in range(n - 1):
            power = oracle_matmul(power, nmat)
        assert all(not x.coeffs and x.hi >= INF_ORDER for x in power.data)
    # the packed inverse is reduced: its own pack, over the smallest denominator
    packed = PackedSeriesMat.pack(m).inverse()
    assert (packed.den, packed.entries) == (PackedSeriesMat.pack(got).den,
                                            PackedSeriesMat.pack(got).entries)


def test_packed_inverse_refuses_a_singular_laurent_matrix():
    # [[1, eps^-1], [eps, 1]] has determinant 0; N = M - I squares to I, so
    # the truncated Neumann sum 2I - N was once returned as its inverse
    m = Mat.from_rows([[EpsLaurent({0: 1}, lo=0, hi=2), EpsLaurent({-1: 1}, lo=-1, hi=2)],
                       [EpsLaurent({1: 1}, lo=0, hi=2), EpsLaurent({0: 1}, lo=0, hi=2)]])
    refusal = (ExactArithmeticError,
               "series matrix inverse of negative powers needs a nilpotent C M - I")
    assert outcome_text(mat_inv_series, m) == refusal
    assert outcome_text(boxed_inv_series, m) == refusal
    assert outcome_text(mat_inv_exact, m) == (
        ExactArithmeticError, "mat_inv_exact expects exact entries (see mat_inv_series)")
    # a nilpotent N inverts exactly: [[1, eps^-1], [0, 1]]^-1 = [[1, -eps^-1], [0, 1]]
    u = Mat.from_rows([[1, EpsLaurent({-1: 1}, lo=-1, hi=2)], [0, 1]])
    inv = mat_inv_series(u)
    assert [x.coeffs for x in inv.data] == [{0: 1}, {-1: -1}, {}, {0: 1}]
    assert min(x.hi for x in inv.data) == 2
    assert same_entries(inv, boxed_inv_series(u))
    assert multiplies_back(u, inv)


def test_packed_inverse_on_running_example_families():
    p0, yfams, _ = running_border_p0(4, 4, yfam_cap=6, seed=2, check_pairs=0)
    for y in yfams:
        assert same_entries(mat_inv_series(y), boxed_inv_series(y))


# -- UniPoly on series: integer Taylor against the boxed expansion ------------------

def boxed_taylor(poly: UniPoly, c: GaussRational, order: int):
    """Oracle: the Taylor coefficients of p(c + h) by the boxed recurrence."""
    order_full = min(order, poly.degree)
    t = [GaussRational(1)] + [GaussRational(0)] * order_full
    deg_so_far = 0
    for r in poly.roots:
        base = c - r
        deg_so_far = min(deg_so_far + 1, order_full)
        for k in range(deg_so_far, 0, -1):
            t[k] = t[k] * base + t[k - 1]
        t[0] = t[0] * base
    t = [poly.scale * x for x in t]
    return t + [GaussRational(0)] * (order + 1 - len(t))


def boxed_eval_series(poly: UniPoly, x: EpsLaurent) -> OracleSeries:
    """Oracle: the boxed Taylor evaluation, sums and products of oracle series."""
    x = OracleSeries.of(x)
    c = x.coeff(0)
    h = x - c
    if any(e < 0 for e in h.coeffs):
        needed = poly.degree
    else:
        needed = min(poly.degree, max(x.hi, 0) if x.hi < 10 ** 8 else poly.degree)
    t = boxed_taylor(poly, c, needed)
    acc = OracleSeries.of(t[0])
    if needed >= 1:
        hpow = h
        acc = acc + t[1] * hpow
        for i in range(2, needed + 1):
            hpow = hpow * h
            acc = acc + t[i] * hpow
    if poly.degree >= 1:
        acc = acc.truncate(min(acc.hi, x.hi))
    return acc


polys = st.builds(UniPoly, st.lists(st.one_of(rationals, gauss), max_size=5),
                  st.one_of(gauss, st.just(1)))


@settings(max_examples=400, deadline=None)
@given(polys, series_entries(), st.integers(1, 5))
def test_packed_unipoly_matches_boxed_taylor(poly, x, f):
    want = outcome_text(boxed_eval_series, poly, x)
    got = outcome_text(poly.eval_series, x)
    if isinstance(want, tuple):
        assert got == want
        return
    assert same_series(got, want)
    # on a packed argument over a larger denominator: the same value, reduced
    packed = poly.eval_series(packed_scaled(PackedSeriesMat.scalar(x), f))
    assert same_series(packed.unpack_scalar(), want)
    assert packed.reduced() is packed


def test_unipoly_taylor_edge_cases():
    p = UniPoly([1, -1])                    # x^2 - 1: t_1 = 0 at c = 0
    assert [c for c in boxed_taylor(p, GaussRational(0), 2)] == [-1, 0, 1]
    cases = [
        (p, EpsLaurent({1: 1, 2: 3}, lo=0, hi=3)),
        # an unlimited-window constant, divided by eps^2 as in the p0 audit
        (p, EpsLaurent.const(GaussRational(2, -1)).shift(-2)),
        (lagrange_indicator(0, [0, QQ(1, 2), 1, QQ(3, 2)]),
         EpsLaurent({-2: QQ(-5, 3)}, lo=-2, hi=INF_ORDER)),
        # negative powers: every power of h, windows from their products
        (lagrange_indicator(1, [0, 1, 2]), EpsLaurent({-1: 2, 0: 1, 1: 1}, lo=-1, hi=2)),
        # short windows: hi = 0, and a zero x known to eps^1 only
        (lagrange_indicator(1, [0, 1, 2]), EpsLaurent({0: 1}, lo=0, hi=0)),
        (lagrange_indicator(1, [0, 1, 2]), EpsLaurent({}, lo=-3, hi=1)),
        # degree 0: the scale, with an unlimited window
        (UniPoly([], GaussRational(QQ(2, 3), 1)), EpsLaurent({0: 5, 1: 1}, lo=0, hi=2)),
        # complex roots and expansion point
        (UniPoly([GaussRational(0, 1), GaussRational(1, -2)], QQ(1, 3)),
         EpsLaurent({0: GaussRational(1, 1), 2: GaussRational(0, 2)}, lo=0, hi=3)),
    ]
    for poly, x in cases:
        assert same_series(poly.eval_series(x), boxed_eval_series(poly, x)), (poly.roots, x)


def test_unipoly_unknown_constant_term_same_error():
    p = lagrange_indicator(0, [0, 1, 2])
    x = EpsLaurent({-2: 1}, lo=-2, hi=-1)
    want = outcome_text(boxed_eval_series, p, x)
    assert want == (InsufficientOrderError, "coefficient at eps^0 unknown (window [-2,-1])")
    assert outcome_text(p.eval_series, x) == want
    assert outcome_text(PolyApply(p, DivEps(2, LeadingMinor(1))).eval,
                        Mat(1, 1, [EpsLaurent({0: 1}, lo=0, hi=1)])) == want


# -- check_border_value on packed values ------------------------------------------

def boxed_check_border_value(val, expected):
    """Oracle: the classification of a boxed value."""
    if not isinstance(val, EpsLaurent):
        val = EpsLaurent.const(val)
    for e, c in val.coeffs.items():
        if e < 0 and not c.is_zero():
            return "fail", f"surviving negative power eps^{e}"
    if not val.known(0):
        return "inconclusive", "constant term beyond valid window"
    if val.coeff(0) != GaussRational(expected):
        return "fail", f"constant term {val.coeff(0)!r} != {expected}"
    return "ok", None


def sorted_series(x: EpsLaurent) -> EpsLaurent:
    """x with its coefficients in exponent order, as every packed value
    unpacks: the packed check names the lowest surviving negative power."""
    return EpsLaurent(dict(sorted(x.coeffs.items())), lo=x.lo, hi=x.hi)


@settings(max_examples=300, deadline=None)
@given(st.one_of(series_entries(), exact_entries), st.sampled_from([0, 1]),
       st.integers(1, 7))
def test_packed_check_border_value_matches_boxed(x, expected, f):
    boxed = sorted_series(x) if isinstance(x, EpsLaurent) else x
    want = boxed_check_border_value(boxed, expected)
    assert check_border_value(x, expected) == want
    packed = packed_scaled(PackedSeriesMat.scalar(x), f)
    assert check_border_value(packed, expected) == want


def test_check_border_value_planted_values():
    planted = [
        (EpsLaurent.const(1), 0, ("fail", "constant term 1 != 0")),
        (EpsLaurent({0: GaussRational(QQ(1, 2), -1)}, lo=0, hi=2), 1,
         ("fail", "constant term (1/2-1i) != 1")),
        (EpsLaurent({-1: 3, -2: 1, 0: 1}, lo=-2, hi=1), 1,
         ("fail", "surviving negative power eps^-2")),
        (EpsLaurent({}, lo=-2, hi=-1), 0,
         ("inconclusive", "constant term beyond valid window")),
        (EpsLaurent({1: 4}, lo=0, hi=3), 0, ("ok", None)),
    ]
    for x, expected, want in planted:
        assert boxed_check_border_value(sorted_series(x), expected)[0] == want[0]
        assert check_border_value(x, expected) == boxed_check_border_value(
            sorted_series(x), expected)
        assert check_border_value(packed_scaled(PackedSeriesMat.scalar(x), 6), expected) == want


def test_tree_keeps_packed_values_and_boxed_public_api():
    p0, yfams, _ = running_border_p0(4, 4, yfam_cap=4, seed=1, check_pairs=0)
    m = mat_inv_series(yfams[0]).matmul(yfams[1])
    packed = PackedSeriesMat.pack(mat_inv_series(yfams[0])).matmul(PackedSeriesMat.pack(yfams[1]))
    ctx = EvalContext()
    for node in (p0, p0.child, p0.child.child, LeadingMinor(3), LeadingMinor(0)):
        boxed = node.eval(m, ctx)
        value = node.eval(packed, ctx)
        if isinstance(boxed, EpsLaurent):
            assert type(value) is PackedSeriesMat
            assert same_series(value.unpack_scalar(), boxed)
        else:
            assert boxed == 1
    # the boxed sum of boxed lpm values is the packed SumNode, windows included
    acc = EpsLaurent.const(0)
    for j in range(1, 5):
        acc = acc + lpm(m, j)
    assert same_series(SumNode([LeadingMinor(j) for j in range(1, 5)]).eval(m), acc)
