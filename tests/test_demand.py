"""Border separation evaluated at the order the verdict reads.

Both border verifiers first evaluate a tuple at an argument built from
factors truncated at the tree's demand (sepfun.demand), and re-evaluate on
the full windows every tuple whose truncated outcome is not 'ok' (the
sepverify module docstring).  The oracle here is the same verifier with
truncation off: its demand is raised past every window edge, so every
argument is today's full-window product.
"""

import contextlib

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from tppverify import sepverify
from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat, mat_exp_trunc, mat_inv_series, mat_to_series
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
    SumNode,
    UniPoly,
    demand,
    lagrange_indicator,
)
from tppverify.sepverify import verify_indicator_border, verify_separating_border
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
    # a callable member, a stored negative power, an edge below eps^0 and a
    # non-constant unlimited window each keep the full windows
    assert sepverify._truncation([lambda m: m], facts) is None
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
