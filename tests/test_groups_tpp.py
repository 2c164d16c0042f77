import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from tppverify import tpp
from tppverify.groups import GroupFormatError, MatrixGroupOps, TableGroup
from tppverify.matrices import Mat, mat_exp_trunc
from tppverify.scalars import QQ
from tppverify.series import EpsLaurent
from tppverify.tpp import (
    InstanceError,
    TppInstance,
    quotient_product_set,
    recheck_tpp_witness,
    verify_dpp,
    verify_tpp,
    verify_tpp_series,
)


def brute_force_tpp(group, xs, ys, zs):
    """Oracle: first violating tuple in lexicographic index order, or None."""
    for ix, ix2, iy, iy2, iz, iz2 in itertools.product(
        range(len(xs)), range(len(xs)), range(len(ys)), range(len(ys)),
        range(len(zs)), range(len(zs))
    ):
        p = group.mul(xs[ix], group.inv(xs[ix2]))
        p = group.mul(p, group.mul(ys[iy], group.inv(ys[iy2])))
        p = group.mul(p, group.mul(zs[iz], group.inv(zs[iz2])))
        all_eq = ix == ix2 and iy == iy2 and iz == iz2
        if (p == group.identity) != all_eq:
            return (ix, ix2, iy, iy2, iz, iz2)
    return None


def test_table_group_validation():
    TableGroup.cyclic(6)  # fine
    with pytest.raises(GroupFormatError):
        TableGroup([[0, 1], [0, 1]], identity=0)  # broken identity axiom


def test_trivial_construction_passes():
    g = TableGroup.cyclic(5)
    inst = TppInstance(g, list(range(5)), [0], [0], "table")
    rep = verify_tpp(inst)
    assert rep.verdict == "pass"
    assert rep.tuples_checked == 25


def test_z2_failure_with_witness():
    g = TableGroup.cyclic(2)
    inst = TppInstance(g, [0, 1], [0, 1], [0], "table")
    rep = verify_tpp(inst)
    assert rep.verdict == "fail"
    # oracle: first lexicographic violation
    expected = brute_force_tpp(g, [0, 1], [0, 1], [0])
    assert rep.witness.indices == expected == (0, 1, 0, 1, 0, 0)
    assert recheck_tpp_witness(inst, rep.witness)


def test_witness_recheck_invariant():
    g = TableGroup.cyclic(4)
    inst = TppInstance(g, [0, 2], [0, 1], [0], "table")
    rep = verify_tpp(inst)
    if rep.verdict == "fail":
        assert recheck_tpp_witness(inst, rep.witness)


def test_abelian_translation_symmetry():
    g = TableGroup.cyclic(7)
    xs, ys, zs = [0, 1, 3], [0, 2], [0]
    base = verify_tpp(TppInstance(g, xs, ys, zs, "table")).verdict
    for a in range(7):
        for b in range(7):
            xs2 = [g.mul(a, x) for x in xs]
            zs2 = [g.mul(z, b) for z in zs]
            got = verify_tpp(TppInstance(g, xs2, ys, zs2, "table")).verdict
            assert got == base


def test_duplicate_elements_rejected():
    g = TableGroup.cyclic(5)
    with pytest.raises(InstanceError):
        TppInstance(g, [0, 0], [0], [0], "table")


def test_quotient_set_examples():
    g = TableGroup.cyclic(5)
    triv = TppInstance(g, [0], [0], [0], "table")
    qs = quotient_product_set(triv)
    assert [q for q, _ in qs] == [0]

    inst = TppInstance(g, list(range(5)), [0], [0], "table")
    qs = quotient_product_set(inst)
    assert sorted(q for q, _ in qs) == list(range(5))

    # counting bound
    inst2 = TppInstance(g, [0, 1], [0, 2], [0, 1], "table")
    qs2 = quotient_product_set(inst2)
    assert len(qs2) <= 2 * 2 * 2 * 2


def test_dpp_examples():
    g = TableGroup.cyclic(5)
    assert verify_dpp([0], [0], g, "table").verdict == "pass"
    g2 = TableGroup.cyclic(2)
    rep = verify_dpp([0, 1], [0, 1], g2, "table")
    assert rep.verdict == "fail"


def test_sampled_mode_records_seed():
    g = TableGroup.cyclic(5)
    inst = TppInstance(g, list(range(5)), [0], [0], "table")
    rep = verify_tpp(inst, mode="sampled", sample_budget=10, seed=42)
    assert rep.sampled and rep.seed == 42 and rep.tuples_checked == 10


def test_float_elements_rejected():
    ops = MatrixGroupOps(2)
    m = Mat.from_rows([[1.0, 0.0], [0.0, 1.0]])
    inst = TppInstance(ops, [m], [m.copy()], [m.copy()], "exact")
    with pytest.raises(InstanceError, match=r"float elements are refused by verify_tpp: "
                       r"give exact rationals \(integers, 'p/q' strings or QQ\)"):
        verify_tpp(inst)
    with pytest.raises(InstanceError, match="give exact rationals"):
        verify_dpp([m], [m.copy()], ops, "exact")


# -- the exact and table classifier against the fold ---------------------------

def _fold_classifier(inst, kind, order):
    """The oracle: every tuple's whole product, folded left to right."""
    return lambda tup: (inst.is_identity(inst.product(tpp._factors(kind, tup))), None)


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return TableGroup([[index[tuple(a[b[k]] for k in range(3))] for b in perms]
                       for a in perms], identity=0)


@st.composite
def split_cases(draw):
    """(kind, instance, mode, budget, seed, memo bound): small table (Z_6,
    S_3) or exact (invertible L D U, rational entries) instances, with
    planted collisions; a small memo bound makes products be evicted."""
    kind = draw(st.sampled_from(["tpp", "dpp"]))
    exact = draw(st.booleans())
    if exact:
        dim = draw(st.integers(1, 3))
        group = MatrixGroupOps(dim)
        entry = st.sampled_from([-2, -1, 0, 1, 2, QQ(1, 2), QQ(-3, 2)])

        def element():
            low, diag, up = Mat.identity(dim), Mat.identity(dim), Mat.identity(dim)
            for i in range(dim):
                diag[i, i] = draw(st.sampled_from([1, -1, 2, QQ(1, 3)]))
                for j in range(i):
                    low[i, j], up[j, i] = draw(entry), draw(entry)
            return low.matmul(diag).matmul(up)
    else:
        group = draw(st.sampled_from([TableGroup.cyclic(6), _s3()]))

        def element():
            return draw(st.integers(0, group.order - 1))
    sets = [[element() for _ in range(draw(st.integers(1, 3)))] for _ in "xyz"]
    x, y, z = sets
    plant = draw(st.sampled_from(["none", "z=x", "y", "dpp"]))
    if plant == "z=x":          # x x'^-1 y y^-1 x' x^-1 = I
        z = list(x)
    elif plant == "y" and len(z) > 1:      # y0' = z1 z0^-1 y0
        y = y + [group.mul(group.mul(z[1], group.inv(z[0])), y[0])]
    elif plant == "dpp" and len(x) > 1:    # z1 = z0 x1^-1 x0
        z = [z[0], group.mul(group.mul(z[0], group.inv(x[1])), x[0])]
    if kind == "dpp":
        y = [Mat.identity(group.dim) if exact else group.identity]
    mode_kind = "exact" if exact else "table"
    try:
        inst = TppInstance(group, x, y, z, mode_kind)
    except InstanceError:       # a planted element duplicated another
        assume(False)
    mode = draw(st.sampled_from(["auto", "exhaustive", "sampled"]))
    return (kind, inst, mode, draw(st.integers(1, 40)), draw(st.integers(0, 3)),
            draw(st.sampled_from([1, 3, tpp._SPLIT_MEMO])))


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_classifier_matches_the_fold(case):
    kind, inst, mode, budget, seed, memo = case
    with mock.patch.object(tpp, "_SPLIT_MEMO", memo):
        got = tpp._verify(inst, kind, None, mode, budget, seed)
    with mock.patch.object(tpp, "_classifier", _fold_classifier):
        want = tpp._verify(inst, kind, None, mode, budget, seed)
    assert got.to_json() == want.to_json()
    if got.witness is not None:
        assert recheck_tpp_witness(inst, got.witness)


# -- series mode -------------------------------------------------------------

def basis_mat(n, i, j):
    m = Mat.zeros(n, n)
    m[i, j] = 1
    return m


def test_series_distinctness_certified_at_order_one():
    ops = MatrixGroupOps(2)
    a = basis_mat(2, 1, 0)
    c = basis_mat(2, 0, 1)
    x = [mat_exp_trunc(a, 2)]
    z = [mat_exp_trunc(c, 2)]
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    inst = TppInstance(ops, x, [ident], z, "family")
    rep = verify_tpp_series(inst, order=1)
    assert rep.verdict == "pass"


def test_series_identity_families_pass():
    ops = MatrixGroupOps(2)
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    inst = TppInstance(ops, [ident], [ident.copy()], [ident.copy()], "family")
    assert verify_tpp_series(inst, order=2).verdict == "pass"


def test_series_duplicate_family_rejected():
    ops = MatrixGroupOps(2)
    a = basis_mat(2, 1, 0)
    fam = mat_exp_trunc(a, 2)
    with pytest.raises(InstanceError):
        ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
        TppInstance(ops, [fam, fam.copy()], [ident], [ident.copy()], "family")


def test_series_inconclusive_when_window_exhausted():
    # families that agree to the stored window except at eps^3, verified at order 2
    ops = MatrixGroupOps(2)
    a = basis_mat(2, 1, 0)
    x1 = mat_exp_trunc(a, 3)
    x2 = mat_exp_trunc(a, 3)
    x2[0, 1] = x2[0, 1] + EpsLaurent({3: 1}, lo=0, hi=3)
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    inst = TppInstance(ops, [x1, x2], [ident], [ident.copy()], "family")
    rep = verify_tpp_series(inst, order=2)
    assert rep.verdict == "inconclusive"
    assert rep.inconclusive_count > 0
    rep3 = verify_tpp_series(inst, order=3)
    assert rep3.verdict == "pass"


# -- golden reports ------------------------------------------------------------

def _unitri(n, i, j, v=1):
    m = Mat.identity(n).map(QQ)
    m[i, j] = QQ(v)
    return m


def _fam(n, i, j, order, v=1):
    a = Mat.zeros(n, n)
    a[i, j] = v
    return mat_exp_trunc(a, order)


def _golden_runs():
    """(name, zero-argument callable) for every entry point and mode.

    The instances are small and fixed; each callable returns a report's
    to_json(), or a recheck result, so the whole output can be pinned.
    """
    z7 = TableGroup.cyclic(7)
    z5 = TableGroup.cyclic(5)
    z2 = TableGroup.cyclic(2)
    ops2, ops3 = MatrixGroupOps(2), MatrixGroupOps(3)
    ex_x = [Mat.identity(3).map(QQ), _unitri(3, 0, 1), _unitri(3, 0, 2, 2)]
    ex_y = [Mat.identity(3).map(QQ), _unitri(3, 1, 2)]
    ex_z = [Mat.identity(3).map(QQ), _unitri(3, 1, 0), _unitri(3, 2, 0, 3)]
    ident2 = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    fx = [ident2, _fam(2, 1, 0, 2), _fam(2, 1, 0, 2, 3)]
    fz = [ident2.copy(), _fam(2, 0, 1, 2), _fam(2, 0, 1, 2, 5)]
    # lower, diagonal and upper: unique LDU factorisation makes this a TPP triple
    fy = [ident2.copy(), mat_exp_trunc(Mat.from_rows([[1, 0], [0, -1]]), 2)]
    f3x = [_fam(3, 1, 0, 3), _fam(3, 2, 1, 3, 2)]
    f3y = [_fam(3, 0, 2, 3)]
    x1 = _fam(2, 1, 0, 3)
    x2 = _fam(2, 1, 0, 3)
    x2[0, 1] = x2[0, 1] + EpsLaurent({3: 1}, lo=0, hi=3)

    table_fail = TppInstance(z2, [0, 1], [0, 1], [0], "table")
    exact_fail = TppInstance(ops3, ex_x, ex_y, ex_x, "exact")
    fam_collide = TppInstance(ops3, f3x, f3y, f3x, "family")

    def tpp(inst, **kw):
        return lambda: verify_tpp(inst, **kw).to_json()

    def series(inst, order, **kw):
        return lambda: verify_tpp_series(inst, order, **kw).to_json()

    def dpp(x, z, group, kind, **kw):
        return lambda: verify_dpp(x, z, group, kind, **kw).to_json()

    def recheck(inst, run):
        return lambda: recheck_tpp_witness(inst, run().witness)

    return [
        ("table-tpp-pass", tpp(TppInstance(z5, list(range(5)), [0], [0], "table"))),
        ("table-tpp-fail-late", tpp(TppInstance(z7, [0, 1, 3], [0, 2], [0], "table"))),
        ("table-tpp-fail", tpp(table_fail)),
        ("table-tpp-fail-recheck", recheck(table_fail, lambda: verify_tpp(table_fail))),
        ("table-tpp-sampled", tpp(TppInstance(z5, list(range(5)), [0], [0], "table"),
                                  mode="sampled", sample_budget=10, seed=42)),
        ("table-tpp-sampled-fail", tpp(TppInstance(z7, [0, 1, 2], [0, 1], [0, 3], "table"),
                                       mode="sampled", sample_budget=200, seed=3)),
        ("table-dpp-pass", dpp([0, 1], [0, 2], z5, "table")),
        ("table-dpp-fail", dpp([0, 1], [0, 1], z2, "table")),
        ("table-dpp-sampled", dpp([0, 1, 2], [0, 3], z7, "table", mode="sampled",
                                  sample_budget=7, seed=9)),
        ("exact-tpp-pass", tpp(TppInstance(ops3, ex_x, ex_y, ex_z, "exact"))),
        ("exact-tpp-fail", tpp(exact_fail)),
        ("exact-tpp-fail-recheck", recheck(exact_fail, lambda: verify_tpp(exact_fail))),
        ("exact-tpp-sampled", tpp(TppInstance(ops3, ex_x, ex_y, ex_z, "exact"),
                                  mode="sampled", sample_budget=25, seed=1)),
        ("exact-dpp-pass", dpp(ex_x, ex_z, ops3, "exact")),
        ("exact-dpp-fail", dpp(ex_x, ex_x, ops3, "exact")),
        ("exact-dpp-sampled", dpp(ex_x, ex_z, ops3, "exact", mode="sampled",
                                  sample_budget=12, seed=4)),
        ("family-tpp-pass", series(TppInstance(ops2, fx, fy, fz, "family"), 3)),
        ("family-tpp-sampled", series(TppInstance(ops2, fx, fy, fz, "family"), 1,
                                      mode="sampled", sample_budget=40, seed=7)),
        ("family-tpp-collision", series(fam_collide, 3, mode="exhaustive")),
        ("family-tpp-window", series(TppInstance(ops2, [x1, x2], [ident2], [ident2.copy()],
                                                 "family"), 2)),
        ("family-dpp-pass", dpp(fx, fz, ops2, "family")),
        ("family-dpp-collision", dpp(f3x, f3x, ops3, "family")),
        ("family-dpp-sampled", dpp(fx, fz, ops2, "family", mode="sampled",
                                   sample_budget=30, seed=2)),
    ]


GOLDEN = {"table-tpp-pass": {"verdict": "pass", "tuples_checked": 25, "sampled": False},
          "table-tpp-fail-late": {"verdict": "fail",
                                  "tuples_checked": 23,
                                  "sampled": False,
                                  "witness": {"kind": "tpp",
                                              "indices": [1, 2, 1, 0, 0, 0],
                                              "detail": "product is identity"}},
          "table-tpp-fail": {"verdict": "fail",
                             "tuples_checked": 6,
                             "sampled": False,
                             "witness": {"kind": "tpp",
                                         "indices": [0, 1, 0, 1, 0, 0],
                                         "detail": "product is identity"}},
          "table-tpp-fail-recheck": True,
          "table-tpp-sampled": {"verdict": "pass",
                                "tuples_checked": 10,
                                "sampled": True,
                                "seed": 42},
          "table-tpp-sampled-fail": {"verdict": "fail",
                                     "tuples_checked": 1,
                                     "sampled": True,
                                     "witness": {"kind": "tpp",
                                                 "indices": [0, 2, 0, 1, 1, 0],
                                                 "detail": "product is identity"},
                                     "seed": 3},
          "table-dpp-pass": {"verdict": "pass", "tuples_checked": 16, "sampled": False},
          "table-dpp-fail": {"verdict": "fail",
                             "tuples_checked": 6,
                             "sampled": False,
                             "witness": {"kind": "dpp", "indices": [0, 1, 0, 1], "detail": ""}},
          "table-dpp-sampled": {"verdict": "pass",
                                "tuples_checked": 7,
                                "sampled": True,
                                "seed": 9},
          "exact-tpp-pass": {"verdict": "pass", "tuples_checked": 324, "sampled": False},
          "exact-tpp-fail": {"verdict": "fail",
                             "tuples_checked": 40,
                             "sampled": False,
                             "witness": {"kind": "tpp",
                                         "indices": [0, 1, 0, 0, 1, 0],
                                         "detail": "product is identity"}},
          "exact-tpp-fail-recheck": True,
          "exact-tpp-sampled": {"verdict": "pass",
                                "tuples_checked": 25,
                                "sampled": True,
                                "seed": 1},
          "exact-dpp-pass": {"verdict": "pass", "tuples_checked": 81, "sampled": False},
          "exact-dpp-fail": {"verdict": "fail",
                             "tuples_checked": 13,
                             "sampled": False,
                             "witness": {"kind": "dpp", "indices": [0, 1, 1, 0], "detail": ""}},
          "exact-dpp-sampled": {"verdict": "pass",
                                "tuples_checked": 12,
                                "sampled": True,
                                "seed": 4},
          "family-tpp-pass": {"verdict": "pass",
                              "tuples_checked": 324,
                              "sampled": False,
                              "order_used": 2},
          "family-tpp-sampled": {"verdict": "pass",
                                 "tuples_checked": 40,
                                 "sampled": True,
                                 "order_used": 1,
                                 "seed": 7},
          "family-tpp-collision": {"verdict": "inconclusive",
                                   "tuples_checked": 16,
                                   "sampled": False,
                                   "witness": {"kind": "tpp",
                                               "indices": [0, 1, 0, 0, 1, 0],
                                               "detail": "no certified nonzero coefficient in "
                                                         "window"},
                                   "order_used": 3,
                                   "inconclusive_count": 2},
          "family-tpp-window": {"verdict": "inconclusive",
                                "tuples_checked": 4,
                                "sampled": False,
                                "witness": {"kind": "tpp",
                                            "indices": [0, 1, 0, 0, 0, 0],
                                            "detail": "no certified nonzero coefficient in "
                                                      "window"},
                                "order_used": 2,
                                "inconclusive_count": 2},
          "family-dpp-pass": {"verdict": "pass",
                              "tuples_checked": 81,
                              "sampled": False,
                              "order_used": 2},
          "family-dpp-collision": {"verdict": "inconclusive",
                                   "tuples_checked": 16,
                                   "sampled": False,
                                   "witness": {"kind": "dpp",
                                               "indices": [0, 1, 1, 0],
                                               "detail": ""},
                                   "order_used": 3,
                                   "inconclusive_count": 2},
          "family-dpp-sampled": {"verdict": "pass",
                                 "tuples_checked": 30,
                                 "sampled": True,
                                 "order_used": 2,
                                 "seed": 2}}


def test_golden_reports():
    """Every entry point's full report on fixed table, exact and family instances."""
    got = {name: run() for name, run in _golden_runs()}
    assert got == GOLDEN


def test_series_dpp_order_used_is_the_smallest_product_window():
    # Laurent entries eps^-1 known to eps^2: the derived order is 2, but a
    # product of two eps^-1 terms is known only to eps^1 (and less further on)
    one, zero = EpsLaurent.const(1), EpsLaurent.zero()
    ident = Mat.identity(2, one=one, zero=zero)

    def off(c, i, j):
        m = ident.copy()
        m[i, j] = EpsLaurent({-1: c}, lo=-1, hi=2)
        return m

    xs, zs = [ident, off(1, 1, 0), off(2, 1, 0)], [ident.copy(), off(1, 0, 1)]
    rep = verify_dpp(xs, zs, MatrixGroupOps(2), "family")
    inv = MatrixGroupOps(2).inv
    edges = [min(s.hi for s in inv(x).matmul(x2).matmul(inv(z)).matmul(z2).data)
             for x, x2, z, z2 in itertools.product(xs, xs, zs, zs)]
    assert rep.verdict == "pass"
    assert rep.order_used == min(edges + [2]) < 2


@pytest.mark.parametrize("run", [
    lambda inst, fam: verify_tpp(inst, mode="sampled", sample_budget=0),
    lambda inst, fam: verify_tpp(inst, mode="sampled", sample_budget=-1),
    lambda inst, fam: verify_tpp(inst, sample_budget=0, exhaustive_cap=1),
    lambda inst, fam: verify_dpp([0, 1], [0, 2], TableGroup.cyclic(5), "table",
                                 mode="sampled", sample_budget=0),
    lambda inst, fam: verify_tpp_series(fam, 2, mode="sampled", sample_budget=0),
], ids=["tpp-0", "tpp-negative", "tpp-auto-0", "dpp-0", "series-0"])
def test_sampled_budget_below_one_rejected(run):
    """A sampled run with no samples would pass having checked nothing."""
    inst = TppInstance(TableGroup.cyclic(2), [0, 1], [0, 1], [0], "table")
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    fam = TppInstance(MatrixGroupOps(2), [ident, _fam(2, 1, 0, 2)], [ident.copy()],
                      [ident.copy()], "family")
    with pytest.raises(ValueError, match="budget of at least 1"):
        run(inst, fam)
    # an exhaustive run draws no samples, so its budget is not read
    assert verify_tpp(inst, mode="exhaustive", sample_budget=0).verdict == "fail"


def test_empty_element_set_rejected():
    with pytest.raises(InstanceError, match="empty element set"):
        verify_tpp(TppInstance(TableGroup.cyclic(3), [], [0], [0], "table"))
