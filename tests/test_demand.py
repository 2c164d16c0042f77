"""Border separation evaluated at the order the verdict reads.

Both border verifiers first evaluate a tuple at an argument built from
factors truncated at the tree's demand (sepfun.demand), and re-evaluate on
the full windows every tuple whose truncated outcome is not 'ok' (the
sepverify module docstring).  The oracle here is the same verifier with
truncation off: its demand is raised past every window edge, so every
argument is the full-window product read at every order.  Values that a
tree yields read through eps^0 are also compared with its full-window
value directly.
"""

import contextlib

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from tppverify import sepverify
from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat, PackedSeriesMat, mat_exp_trunc, mat_inv_series, mat_to_series
from tppverify.running_example import running_border_p0
from tppverify.scalars import QQ, ExactArithmeticError, GaussRational
from tppverify.sepfun import (
    Affine,
    DivEps,
    EvalContext,
    Entry,
    LeadingMinor,
    LinearForm,
    MinorInvariant,
    PolyApply,
    Product,
    Reparam,
    Sandwich,
    SepFunctionError,
    SumNode,
    UniPoly,
    demand,
    lagrange_indicator,
)
from tppverify.sepverify import (
    check_border_value,
    verify_indicator_border,
    verify_separating_border,
)
from tppverify.series import INF_ORDER, EpsLaurent
from tppverify.split import SplitInputs, assemble_split
from tppverify.su import su_build, su_p0, su_s_matrix, su_theta_psi, su_y_lattice
from tppverify.tpp import InstanceError, TppInstance

# each example runs both verifiers over every tuple; a failing one is
# reported as drawn rather than shrunk at that cost
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@contextlib.contextmanager
def full_windows():
    """Truncation off: a demand past every window edge leaves the factors whole."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepverify, "demand", lambda fn: INF_ORDER)
        yield


@contextlib.contextmanager
def demand_shifted(k):
    """Every demand moved by k (a demand one too low or one too high)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepverify, "demand", lambda fn: demand(fn) + k)
        yield


def outcome(thunk):
    """(report JSON, fallbacks), or the type and text of what was raised."""
    try:
        rep = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return rep.to_json(), rep.fallbacks


# -- random trees over the eleven node kinds and random arguments ---------------

small = st.integers(-2, 2)
int_mats = st.lists(small, min_size=4, max_size=4).map(lambda d: Mat(2, 2, d))
form_coeffs = st.sampled_from([0, 0, 1, -1, QQ(1, 2)])

leaves = st.one_of(
    st.builds(Entry, st.integers(0, 1), st.integers(0, 1)),
    st.builds(LeadingMinor, st.integers(0, 2)),
    st.builds(lambda d: MinorInvariant(1, d), int_mats),
    st.builds(lambda c: LinearForm(*(Mat(2, 2, c[4 * k:4 * k + 4]) for k in range(4))),
              st.lists(form_coeffs, min_size=16, max_size=16)),
    # the constant 1: 'ok' on an expected-1 tuple
    st.just(Product([])),
)


def zero_factors(children):
    """Factors whose constant term is 0: the exact 0, and 0 + c eps^k."""
    return st.one_of(st.builds(lambda c: Affine(0, 0, c), children),
                     st.builds(lambda k, c: DivEps(-k, c), st.integers(1, 2), children))


def planted_products(children):
    """Products whose factors defeat a constant-term product read at eps^0,
    in either order: a stored eps^-1 (1 + child over eps) beside a factor
    0 + c eps, where the constant term is c times the eps^-1 coefficient,
    not 0; and a factor whose window ends below eps^0 (a child over eps^5;
    element windows end at eps^4 at most) beside a zero factor."""
    def product(first, second, flip):
        return Product([second, first] if flip else [first, second])

    negative = st.builds(lambda c: DivEps(1, Affine(1, 1, c)), children)
    short = st.builds(lambda c: DivEps(5, c), children)
    return st.one_of(
        st.builds(product, negative, st.builds(lambda c: DivEps(-1, c), children), st.booleans()),
        st.builds(product, short, zero_factors(children), st.booleans()),
    )


def extend(children):
    return st.one_of(
        st.builds(Sandwich, int_mats, int_mats, children),
        st.builds(lambda roots, c: PolyApply(UniPoly(roots), c), st.lists(small, max_size=3),
                  children),
        st.builds(Product, st.lists(children, max_size=3)),
        st.builds(SumNode, st.lists(children, max_size=3)),
        # a = b = 0 is the exact 0, 'ok' on an expected-0 tuple; b = 2 plants
        # a wrong constant term
        st.builds(Affine, small, small, children),
        # k = -1 multiplies by eps: a demand below 0, truncated at 0
        st.builds(DivEps, st.integers(-1, 2), children),
        st.builds(Reparam, st.integers(1, 2), children),
        planted_products(children),
        # the order a DivEps under a Reparam reads its child through is
        # k t past its own
        st.builds(lambda t, k, c: Reparam(t, DivEps(k, c)), st.integers(2, 3),
                  st.integers(1, 2), children),
        # sums of products, and a scale a other than 0 and 1, read at eps^0
        st.builds(lambda cs: SumNode([Product(cs), Product(cs[::-1])]),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(Affine, st.sampled_from([-1, 2, QQ(1, 2), GaussRational(0, 1)]), small,
                  st.builds(Product, st.lists(children, min_size=2, max_size=3))),
    )


trees = st.recursive(leaves, extend, max_leaves=6)

CONSTANTS = [[1, 0, 0, 1], [1, 1, 0, 1], [2, 1, 1, 1], [1, 0, -2, 1], [0, 1, 1, 0]]


@st.composite
def elements(draw, edge):
    """A 2x2 series element: constant I (unit) or another invertible integer
    constant, eps^1..eps^4 terms, every window at edge or one per entry.
    Planted: a stored eps^-1 above an exact unit diagonal (a nilpotent
    N = M - I, so the inverse exists), an entry known only to eps^0, an
    exact constant, or eps^1 and eps^2 terms on unlimited windows (whose
    inverse is refused unless N is nilpotent, and whose truncation has one)."""
    const = CONSTANTS[0] if draw(st.booleans()) else draw(st.sampled_from(CONSTANTS))
    plant = draw(st.sampled_from(["none"] * 6 + ["negative", "short", "exact", "unlimited"]))
    data = []
    for idx in range(4):
        hi = edge if edge is not None else draw(st.integers(1, 4))
        coeffs = {0: const[idx]}
        coeffs.update({e: draw(small) for e in range(1, (2 if plant == "unlimited" else hi) + 1)
                       if plant != "exact"})
        data.append(EpsLaurent(coeffs, lo=0, hi=INF_ORDER if plant in ("exact", "unlimited")
                               else hi))
    if plant == "negative":
        data = [EpsLaurent({0: 1}, lo=0, hi=3), EpsLaurent({-1: draw(small) or 1}, lo=-1, hi=3),
                EpsLaurent({}, lo=0, hi=3), EpsLaurent({0: 1}, lo=0, hi=3)]
    elif plant == "short":
        data[draw(st.integers(0, 3))] = EpsLaurent({0: const[0] and 1}, lo=0, hi=0)
    return Mat(2, 2, data)


@st.composite
def element_sets(draw, sizes):
    # one shared edge makes every unit element I + O(eps) under one window
    # edge, the gate of the y = y' rule, when the draw has no plant
    edge = draw(st.one_of(st.none(), st.integers(1, 4)))
    return [[draw(elements(edge)) for _ in range(size)] for size in sizes]


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(tree=trees, sets=element_sets([3]))
def test_truncated_indicator_matches_full_windows(tree, sets):
    (ys,) = sets
    got = outcome(lambda: verify_indicator_border(tree, ys))
    with full_windows():
        want = outcome(lambda: verify_indicator_border(tree, ys))
    assert got[0] == want[0]
    if not isinstance(want[0], str):
        assert want[1] == 0


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(members=st.lists(trees, min_size=4, max_size=4), sets=element_sets([2, 2, 2]),
       order=st.integers(0, 4))
def test_truncated_separating_border_matches_full_windows(members, sets, order):
    xs, ys, zs = sets
    try:
        inst = TppInstance(MatrixGroupOps(2), xs, ys, zs, "family")
        oracle = TppInstance(MatrixGroupOps(2), xs, ys, zs, "family")
    except InstanceError:
        assume(False)
    family = {(ix, iz): members[2 * ix + iz] for ix in range(2) for iz in range(2)}
    got = outcome(lambda: verify_separating_border(family, inst, order))
    with full_windows():
        want = outcome(lambda: verify_separating_border(family, oracle, order))
    assert got[0] == want[0]


# -- the su and GL indicators ----------------------------------------------------

def su_instance(y_cap=3, seed=1, order=3):
    """(p0, family, inst) as su_assemble builds them at n = 4, q = 2."""
    constr = su_build(4)
    coords, sampled = su_y_lattice(constr, 2, cap=y_cap, seed=seed)
    fx, fz, px, pz, _ = su_theta_psi(constr)
    yfams = [mat_exp_trunc(su_s_matrix(constr, c), order) for c in coords]
    p0, _ = su_p0(constr, 2, check_pairs=0, coords=coords if sampled else None)
    out = assemble_split(SplitInputs(fx, fz, px, pz, p0, yfams, 2), order=order,
                         seed=seed, run_dpp_check=False)
    inst = TppInstance(MatrixGroupOps(4), out.xfams, out.yfams_reparam, out.zfams, "family")
    return p0, out.sep_family, inst


@pytest.fixture(scope="module")
def su_case():
    return su_instance()


@pytest.fixture(scope="module")
def gl_case():
    p0, yfams, _ = running_border_p0(4, 4, yfam_cap=16, seed=3, check_pairs=0)
    return p0, yfams


def test_demand_of_the_su_and_gl_indicators(su_case, gl_case):
    p0, family, _ = su_case
    assert demand(p0) == 2
    for p_xz in family.values():
        _, r_ab = p_xz.children
        assert demand(p_xz) == 2
        assert demand(r_ab) == 1
    assert demand(gl_case[0]) == 2


def test_demand_rules():
    entry = Entry(0, 0)
    assert demand(entry) == 0
    assert demand(Product([])) == 0
    # DivEps adds k times the scale, Reparam multiplies the scale
    assert demand(DivEps(1, Reparam(2, DivEps(2, entry)))) == 5
    assert demand(Reparam(3, DivEps(1, entry))) == 3
    # every other node passes its demand on; a node takes its children's maximum
    tree = Product([DivEps(1, entry), SumNode([DivEps(3, entry), entry])])
    assert demand(Affine(2, 1, PolyApply(UniPoly([1]), Sandwich(
        Mat.identity(2), Mat.identity(2), tree)))) == 3
    # a multiplication by eps lowers it; the verifiers truncate at 0 at least
    assert demand(DivEps(-1, entry)) == -1
    # but a PolyApply reads its child through 0 at least: its Taylor
    # expansion needs the child's eps^0
    assert demand(DivEps(-1, PolyApply(UniPoly([0]), DivEps(1, entry)))) == 1
    assert demand(DivEps(-2, PolyApply(UniPoly([0]), entry))) == 0
    assert demand(Product([DivEps(-1, PolyApply(UniPoly([0]), entry)),
                           PolyApply(UniPoly([0]), DivEps(-1, entry))])) == 0


# x - 1 at x = 1 - c eps^2 + ..., through an affine map, and through a
# Taylor expansion that stops at the order it is read through
X_MINUS_ONE = [Affine(1, -1, Entry(0, 0)), PolyApply(UniPoly([1]), Entry(0, 0))]


@pytest.mark.parametrize("inner", X_MINUS_ONE, ids=["affine", "taylor"])
def test_poly_apply_below_order_zero_reads_its_child_through_zero(inner):
    """DivEps(-1) over a PolyApply reads it through eps^-1, yet the Taylor
    expansion needs its argument's eps^0, so the child is read through 0
    and demand counts the DivEps(1) below it: the truncated windows carry
    the equal pairs, and only the failing unequal pairs fall back."""
    tree = Affine(1, 1, DivEps(-1, PolyApply(UniPoly([0]), DivEps(1, inner))))
    assert demand(tree) == 1
    yfams = [mat_exp_trunc(Mat(2, 2, [0, a, -a, 0]), 3) for a in (1, 2)]
    rep = verify_indicator_border(tree, yfams)
    assert rep.fallbacks == 2
    assert rep.verdict == "fail"
    assert [f["pair"] for f in rep.failures] == [(0, 1), (1, 0)]
    with full_windows():
        full = verify_indicator_border(tree, yfams)
    assert full.to_json() == rep.to_json()
    assert full.fallbacks == 0

    # the same shape as the factors of a separating member
    member = Product([Affine(1, 1, DivEps(-1, PolyApply(UniPoly(roots), DivEps(1, inner))))
                      for roots in ([0], [0, 0])])
    ident = mat_to_series(Mat.identity(2))
    inst = TppInstance(MatrixGroupOps(2), [ident], yfams, [ident.copy()], "family")
    rep = verify_separating_border({(0, 0): member}, inst, 3)
    assert rep.fallbacks == 2
    assert [f["tuple"] for f in rep.failures] == [(0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)]
    with full_windows():
        assert verify_separating_border({(0, 0): member}, inst, 3).to_json() == rep.to_json()


def outcomes_at(tree, m, expected):
    """check_border_value of tree at m read through eps^0, or what it raised."""
    try:
        return check_border_value(tree.eval(m, EvalContext(order=0)), expected)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(tree=trees, sets=element_sets([1]), truncated=st.booleans())
def test_value_read_at_order_zero_is_the_full_value_on_its_window(tree, sets, truncated):
    """A value read through eps^0 (on the argument truncated at the demand,
    or on the whole one) has the full value's coefficients on its own
    window, which is no larger, and an 'ok' outcome only where the full
    value has one."""
    ((y,),) = sets
    m = PackedSeriesMat.pack(y)
    try:
        full = tree.eval(m)
    except (ArithmeticError, ValueError):
        assume(False)
    arg = m.truncate(max(0, demand(tree))) if truncated else m
    try:
        v = tree.eval(arg, EvalContext(order=0))
    except (ArithmeticError, ValueError):
        return
    (lo, hi, _, _), (_, full_hi, _, _) = v.entries[0], full.entries[0]
    assert hi <= full_hi
    boxed, full_boxed = v.unpack_scalar(), full.unpack_scalar()
    assert ({e: c for e, c in boxed.coeffs.items() if e <= hi}
            == {e: c for e, c in full_boxed.coeffs.items() if e <= hi})
    for expected in (0, 1):
        if check_border_value(v, expected)[0] == "ok":
            assert check_border_value(full, expected)[0] == "ok"


ONE = Product([])
ZERO_ON_ITS_WINDOW = Entry(0, 1)      # the argument's (0, 1) entry is 0 + O(eps^4)


@pytest.mark.parametrize("factors, expected", [
    # 0 + eps before and after a stored eps^-1: the constant term is 1, not 0
    ([DivEps(-1, ONE), DivEps(1, ONE)], 1),
    ([DivEps(1, ONE), DivEps(-1, ONE)], 1),
    ([Affine(2, 0, DivEps(-1, ONE)), ONE, DivEps(1, Affine(1, 1, Entry(0, 0)))], 4),
    # a window that ends at eps^-2, with no stored power, beside the constant
    # 1: the product's eps^0 term is unknown, not 0
    ([DivEps(5, ZERO_ON_ITS_WINDOW), ONE], 0),
    ([ONE, DivEps(5, ZERO_ON_ITS_WINDOW)], 0),
    # beside a zero factor the product is 0 either way
    ([DivEps(5, ZERO_ON_ITS_WINDOW), Affine(0, 0, ONE)], 0),
    ([DivEps(-2, ONE), DivEps(5, ZERO_ON_ITS_WINDOW)], 0),
])
def test_constant_term_product_keeps_the_full_outcome(factors, expected):
    x = EpsLaurent({0: 1, 1: 1, 2: 1, 3: 1}, lo=0, hi=3)
    m = PackedSeriesMat.pack(Mat(2, 2, [x, EpsLaurent({}, lo=0, hi=3), 0, 1]))
    for tree, want in ((Product(factors), expected),
                       (SumNode([Product(factors), ONE]), expected + 1)):
        assert outcomes_at(tree, m, want) == check_border_value(tree.eval(m), want)


def test_reparam_over_div_eps_reads_k_times_the_scale():
    """(x - 1)^2 / eps^2 at x = 1 + eps + eps^2 + eps^3 is 1 + 2 eps: under
    Reparam(2), DivEps(1) reads (x - 1)^2 through eps^2, where its only
    term of order below 3 lies; through eps^1 the value would end at eps^-1."""
    x = EpsLaurent({0: 1, 1: 1, 2: 1, 3: 1}, lo=0, hi=3)
    m = PackedSeriesMat.pack(Mat(2, 2, [x, 0, 0, 1]))
    tree = Reparam(2, DivEps(1, PolyApply(UniPoly([1, 1]), Entry(0, 0))))
    assert demand(tree) == 2
    for arg in (m, m.truncate(2)):
        assert outcomes_at(tree, arg, 1) == ("ok", None)
        assert outcomes_at(Product([tree, tree]), arg, 1) == ("ok", None)


def test_passing_su_and_gl_runs_never_fall_back(su_case, gl_case):
    _, family, inst = su_case
    gl_p0, yfams = gl_case
    runs = [
        lambda: verify_separating_border(family, inst, 3, sample_budget=200, seed=1),
        lambda: verify_indicator_border(gl_p0, yfams, sample_budget=60),
    ]
    for run in runs:
        rep = run()
        assert rep.verdict == "pass"
        assert rep.fallbacks == 0
        # one too low: the p0 argument ends below eps^0 after DivEps(2), so
        # every tuple falls back, and the report is unchanged
        with demand_shifted(-1):
            low = run()
        assert low.to_json() == rep.to_json()
        assert low.fallbacks == low.checked


def test_truncation_gate(gl_case):
    p0, yfams = gl_case
    facts = [sepverify._element_facts(sepverify.PackedSeriesMat.pack(y)) for y in yfams]
    assert sepverify._truncation([p0], facts) == 2
    # a callable member states no demand: both border verifiers refuse it
    with pytest.raises(SepFunctionError, match="SepFunction members, not function"):
        verify_indicator_border(lambda m: m, yfams)
    ident = mat_to_series(Mat.identity(4))
    inst = TppInstance(MatrixGroupOps(4), [ident], yfams, [ident.copy()], "family")
    with pytest.raises(SepFunctionError, match="SepFunction members, not function"):
        verify_separating_border({(0, 0): p0, (0, 1): lambda m: m}, inst, 3)
    # a stored negative power, an edge below eps^0 and a non-constant
    # unlimited window each keep the full windows
    for bad in (facts[0]._replace(negative=True), facts[0]._replace(low=-1),
                facts[0]._replace(low=INF_ORDER, constant=False)):
        assert sepverify._truncation([p0], facts + [bad]) is None
    # a demand that reaches every edge changes nothing, so nothing is truncated
    assert sepverify._truncation([DivEps(3, p0.child)], facts) is None


def test_missing_node_keeps_its_pair_in_both_verifiers(gl_case):
    """p0 with one reached value dropped from its node set: the pair that
    reaches it fails in the indicator verifier, and its tuples fail in the
    separating verifier run on X = Z = {I}, as on the full windows."""
    p0, yfams = gl_case
    inv0 = mat_inv_series(yfams[0])
    for j in range(1, len(yfams)):
        value = p0.child.eval(inv0.matmul(yfams[j]), EvalContext()).coeff(0)
        if not value.is_zero():
            break
    kept = [r for r in p0.poly.roots if r != value]
    assert len(kept) == len(p0.poly.roots) - 1
    planted = PolyApply(lagrange_indicator(0, [GaussRational(0)] + kept), p0.child)

    rep = verify_indicator_border(planted, yfams, pairs=[(0, 0), (0, j)])
    assert rep.verdict == "fail"
    assert [f["pair"] for f in rep.failures] == [(0, j)]
    assert rep.fallbacks == 1
    with full_windows():
        assert verify_indicator_border(planted, yfams, pairs=[(0, 0), (0, j)]).to_json() \
            == rep.to_json()

    ident = mat_to_series(Mat.identity(4))
    inst = TppInstance(MatrixGroupOps(4), [ident], yfams, [ident.copy()], "family")
    rep = verify_separating_border({(0, 0): planted}, inst, 3)
    assert rep.verdict == "fail"
    assert (0, 0, 0, 0, j, 0) in [f["tuple"] for f in rep.failures]
    assert rep.fallbacks == len(rep.failures)
    with full_windows():
        full = verify_separating_border({(0, 0): planted}, inst, 3)
    assert full.failures == rep.failures
    assert full.to_json() == rep.to_json()


def test_singular_constant_refused_as_on_the_full_windows():
    # the truncated inverse refuses a singular constant term with the text and
    # at the tuple of the full one
    y = Mat(2, 2, [EpsLaurent({0: 1, 1: 1}, lo=0, hi=3), EpsLaurent({0: 1}, lo=0, hi=3),
                   EpsLaurent({0: 1}, lo=0, hi=3), EpsLaurent({0: 1, 2: 1}, lo=0, hi=3)])
    ident = mat_to_series(Mat.identity(2))
    tree = PolyApply(UniPoly([0]), DivEps(2, Entry(0, 0)))
    got = outcome(lambda: verify_indicator_border(tree, [ident, y]))
    with full_windows():
        want = outcome(lambda: verify_indicator_border(tree, [ident, y]))
    assert got == want == (ExactArithmeticError.__name__, "singular matrix")
    inst = TppInstance(MatrixGroupOps(2), [ident], [ident.copy(), y], [ident.copy()], "family")
    got = outcome(lambda: verify_separating_border({(0, 0): tree}, inst, 3))
    with full_windows():
        want = outcome(lambda: verify_separating_border({(0, 0): tree}, inst, 3))
    assert got == want == (InstanceError.__name__, "y[1] has no inverse: singular matrix")
