import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.matrices import Mat, mat_det, mat_exp_trunc
from tppverify.scalars import GaussRational, QQ
from tppverify.sepfun import MinorInvariant, SepFunctionError
from tppverify.series import EpsLaurent
from tppverify.su import (
    SuConstructionError,
    kvn_inequality_check,
    su_assemble,
    su_achievable_c_nodes,
    su_build,
    su_c_from_diff,
    su_c_value,
    su_eps2_check,
    su_lattice_entries,
    su_p0,
    su_p1_cross_checked,
    su_s_matrix,
    su_theta_psi,
    su_trace_invariant,
    su_y_lattice,
)

from series_oracle import oracle_cofactors, oracle_pk


CONSTR = {n: su_build(n) for n in (4, 6)}


@pytest.fixture(scope="module")
def constr4():
    return CONSTR[4]


def boxed_c_from_diff(constr, diff):
    """Oracle: c = sum_{i<j} (d_i^2 - d_j^2)^2 |C[i,j]|^2 with 2C = W diff W.

    Each needed entry of W diff W is its defining double sum, in boxed
    Gaussian-rational arithmetic (terms with a zero factor of W skipped).
    """
    w, n = constr.w_mat, constr.n
    acc = QQ(0)
    for (i, j), wt in constr.weights.items():
        entry = GaussRational(0)
        for k in range(n):
            if w[i, k]:
                for l in range(n):
                    if w[l, j]:
                        entry = entry + w[i, k] * GaussRational.from_any(diff[k, l]) * w[l, j]
        acc += wt * entry.norm2() / 4
    return acc


def boxed_achievable(constr, q, coords=None):
    """Oracle: the achievable set as the boxed c of each lattice difference."""
    if coords is None:
        _, m = su_lattice_entries(q)
        vals = [GaussRational(a, b) for a in range(-2 * m, 2 * m + 1)
                for b in range(-2 * m, 2 * m + 1)]
        diffs = itertools.product(vals, repeat=constr.complex_dim)
    else:
        diffs = [[x - y for x, y in zip(ca, cb)] for ca in coords for cb in coords]
    return sorted({boxed_c_from_diff(constr, su_s_matrix(constr, d)) for d in diffs})


@pytest.mark.parametrize("check_pairs", [-1, -4])
def test_su_p0_negative_check_pairs_rejected(constr4, check_pairs):
    # 0 skips the contract check; a negative count must not skip it silently
    with pytest.raises(ValueError, match="check_pairs must be at least 0"):
        su_p0(constr4, 2, check_pairs=check_pairs)


def test_build_exact_identities(constr4):
    c = constr4
    assert [str(v) for v in c.d0] == ["4", "3", "1/3", "1/4"]
    assert c.trace_dd2 == QQ(256) + 81 + QQ(1, 81) + QQ(1, 256)
    # identity checks run inside su_build; failure would have raised
    assert mat_det(c.d_mat.map(QQ)) == QQ(1)
    with pytest.raises(SuConstructionError):
        su_build(5)


def test_d_denominators_divide_2_factorials(constr4):
    bound = 2 * math.factorial(4) * math.factorial(4)
    for x in constr4.d_mat.data:
        assert bound % QQ(x).denominator == 0


def test_s_basis_properties(constr4):
    basis = constr4.s_basis
    assert len(basis) == 4  # 2 complex coordinates = 4 real basis matrices
    for b in basis:
        assert b.conj_transpose() == -b
        for i in range(4):
            assert b[i, i] == GaussRational(0)


def test_trace_invariant_at_identity(constr4):
    ident = Mat.identity(4).map(lambda v: GaussRational(v))
    val = su_trace_invariant(ident, constr4)
    assert val == GaussRational(constr4.trace_dd2)


def test_trace_invariant_series_invariance(constr4):
    # p1(x M z) = p1(M) on the window, for construction-type x, z families
    c = constr4
    rng = random.Random(1)
    coords = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    a_mat = su_s_matrix(c, coords)
    # x = D^-1 exp(eps A) D, z = D exp(eps A') D^-1, as truncated families
    exp_a = mat_exp_trunc(a_mat, 3)
    coords2 = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    exp_a2 = mat_exp_trunc(su_s_matrix(c, coords2), 3)
    d_series = c.d_mat.map(lambda v: EpsLaurent.const(v))
    dinv_series = c.d_inv.map(lambda v: EpsLaurent.const(v))
    x = dinv_series.matmul(exp_a).matmul(d_series)
    z = d_series.matmul(exp_a2).matmul(dinv_series)
    m_rand = Mat.from_rows([[GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(4)] for _ in range(4)])
    m_series = m_rand.map(lambda v: EpsLaurent.const(v))
    lhs = su_trace_invariant(x.matmul(m_series).matmul(z), c)
    rhs = su_trace_invariant(m_series, c)
    assert lhs.eq_on_window(rhs)


def test_trace_invariant_eps1_vanishes(constr4):
    rng = random.Random(2)
    coords = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    m = mat_exp_trunc(su_s_matrix(constr4, coords), 2)
    val = su_trace_invariant(m, constr4)
    assert val.coeff(1).is_zero()


def test_dual_path_conjugation_on_group_elements(constr4):
    rng = random.Random(3)
    coords = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    m = mat_exp_trunc(su_s_matrix(constr4, coords), 3)
    # the cross-check raises on mismatch; on a group element the two routes agree
    direct = su_trace_invariant(m, constr4)
    checked = su_p1_cross_checked(constr4, m)
    assert direct.eq_on_window(checked)


def test_p2_invariant_dual_path_and_invariance(constr4):
    # p_2 is a test oracle only: the pk node refuses k = 2; on the oracle
    # loop, direct and cofactor-route conjugation agree on a group element,
    # and p_2 is X/Z-invariant on the window
    c = constr4
    with pytest.raises(SepFunctionError, match="k = 1"):
        MinorInvariant(2, c.d_mat, c.q_form)
    rng = random.Random(12)
    coords = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    m = mat_exp_trunc(su_s_matrix(c, coords), 3)
    direct = oracle_pk(2, c.d_mat, m)
    qmq = c.q_form.matmul(m).matmul(c.q_form)
    assert direct.eq_on_window(oracle_pk(2, c.d_mat, m, oracle_cofactors(qmq)))
    # invariance under construction-type sandwiches
    coords2 = [GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
    d_series = c.d_mat.map(lambda v: EpsLaurent.const(v))
    dinv_series = c.d_inv.map(lambda v: EpsLaurent.const(v))
    x = dinv_series.matmul(mat_exp_trunc(su_s_matrix(c, coords2), 3)).matmul(d_series)
    m_rand = Mat.from_rows([[GaussRational(rng.randint(-2, 2), rng.randint(-2, 2))
                             for _ in range(4)] for _ in range(4)])
    m_series = m_rand.map(lambda v: EpsLaurent.const(v))
    lhs = oracle_pk(2, c.d_mat, x.matmul(m_series))
    rhs = oracle_pk(2, c.d_mat, m_series)
    assert lhs.eq_on_window(rhs)


def test_su_assemble_q4_smoke():
    rep = su_assemble(4, 4, sample_budget=200, seed=13, y_cap=20)
    assert rep.verdict == "pass"
    assert rep.cardinalities["X"] == 16 and rep.cardinalities["Z"] == 16
    dr = rep.degree_report
    assert dr["deg_r"] == (4 - 1) * 2 * 2  # (q-1)(d_X + d_Z), degree-1 forms
    assert dr["deg_total"] == dr["deg_p0"] + dr["deg_r"]


def test_dual_path_flags_non_group_matrix(constr4):
    bad = Mat.identity(4).map(lambda v: GaussRational(v))
    bad[0, 1] = GaussRational(1)  # upper-triangular bump: not in the group
    with pytest.raises(SepFunctionError, match="not in the group"):
        su_p1_cross_checked(constr4, bad)


def test_eps2_identity_trivial_and_random(constr4):
    c = constr4
    z = su_s_matrix(c, [GaussRational(0), GaussRational(0)])
    rep = su_eps2_check(c, z, z)
    assert rep.ok and rep.expected_coeff2 == 0
    rng = random.Random(4)
    vals, _ = su_lattice_entries(4)
    for _ in range(20):
        a = su_s_matrix(c, [vals[rng.randrange(len(vals))] for _ in range(2)])
        b = su_s_matrix(c, [vals[rng.randrange(len(vals))] for _ in range(2)])
        assert su_eps2_check(c, a, b).ok


def test_eps2_zero_iff_diagonal_conjugate(constr4):
    # planted diagonal C: A - B commutes into a diagonal conjugate iff A = B here
    c = constr4
    a = su_s_matrix(c, [GaussRational(1, 1), GaussRational(0)])
    b = su_s_matrix(c, [GaussRational(1, 1), GaussRational(0)])
    assert su_c_from_diff(c, a - b) == 0
    b2 = su_s_matrix(c, [GaussRational(1, 0), GaussRational(0)])
    assert su_c_from_diff(c, a - b2) != 0


def test_c_value_integrality_corrected_constant(constr4):
    """2 * (n!/(n/2)!)^4 clears every achievable denominator (exhaustively here)."""
    c = constr4
    vals, _ = su_lattice_entries(2)
    for va in vals:
        for vb in vals:
            a = su_s_matrix(c, [va, GaussRational(0)])
            b = su_s_matrix(c, [GaussRational(0), vb])
            rep = su_c_value(c, a, b)
            assert rep.c >= 0
            assert isinstance(rep.c_times_clear_const, int)
            assert rep.is_zero == (va.is_zero() and vb.is_zero())


def test_c_value_nominal_constant_fails():
    """The nominal clearing constant 2*(n!)^2 is refuted by exact arithmetic."""
    c = su_build(4)
    a = su_s_matrix(c, [GaussRational(1), GaussRational(0)])
    b = su_s_matrix(c, [GaussRational(0), GaussRational(0)])
    rep = su_c_value(c, a, b)
    assert not rep.nominal_integral
    assert rep.c_times_nominal_const.denominator != 1
    # and the corrected constant is tight: the denominator of c is exactly it
    assert rep.c.denominator == c.clear_constant


def test_c_zero_iff_equal_sample(constr4):
    rng = random.Random(5)
    coords, _ = su_y_lattice(constr4, 4, cap=30, seed=5)
    for _ in range(100):
        ca = coords[rng.randrange(len(coords))]
        cb = coords[rng.randrange(len(coords))]
        rep = su_c_value(constr4, su_s_matrix(constr4, ca), su_s_matrix(constr4, cb))
        assert rep.is_zero == (ca == cb)


def test_c_max_scales_linearly_in_q(constr4):
    # the lattice box scales with ceil(sqrt(q)/2)^2 ~ q/4: c_max(8)/c_max(2) = 4
    nodes2, _ = su_achievable_c_nodes(constr4, 2)
    nodes8, _ = su_achievable_c_nodes(constr4, 8)
    assert nodes8[-1] == 4 * nodes2[-1]


def test_lattice_entry_box():
    vals, m = su_lattice_entries(2)
    assert m == 1 and len(vals) == 9
    vals8, m8 = su_lattice_entries(8)
    assert m8 == 2 and len(vals8) == 25


def test_theta_psi_rank_and_inverses(constr4):
    fx, fz, px, pz, rank = su_theta_psi(constr4)
    assert rank == 8  # 2 complex coords x 2 sides x (re, im)
    rng = random.Random(6)
    for _ in range(50):
        a = [GaussRational(QQ(rng.randint(-9, 9), rng.randint(1, 3)),
                           QQ(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(2)]
        b = [GaussRational(QQ(rng.randint(-9, 9), rng.randint(1, 3)),
                           QQ(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(2)]
        v = fx.apply(a) - fz.apply(b)
        assert [f.eval(v) for f in px] == a
        assert [f.eval(v) for f in pz] == b
    # theta(0, 0) = 0
    assert all(x.is_zero() for x in (fx.apply([GaussRational(0)] * 2)
                                     - fz.apply([GaussRational(0)] * 2)).data)


def test_su_p0_contract(constr4):
    coords, _ = su_y_lattice(constr4, 2, cap=20, seed=7)
    yfams = [mat_exp_trunc(su_s_matrix(constr4, c), 3) for c in coords]
    p0, rep = su_p0(constr4, 2, check_pairs=60, seed=7, yfams=yfams)
    assert rep.contract.verdict == "pass"
    assert rep.deg_p0_tracked == rep.deg_r * 4  # conjugate entries have degree n-1
    assert rep.degree_bound_grid >= rep.deg_r  # the grid route is never smaller


def test_su_p0_planted_violation_detected(constr4):
    from tppverify.sepfun import Product
    from tppverify.sepverify import verify_indicator_border

    coords, _ = su_y_lattice(constr4, 2, cap=12, seed=8)
    yfams = [mat_exp_trunc(su_s_matrix(constr4, c), 3) for c in coords]
    rep = verify_indicator_border(Product([]), yfams, sample_budget=80, seed=8)
    assert rep.verdict == "fail"  # constant 1 cannot vanish on unequal pairs


def test_kvn_inequality_monte_carlo():
    rep = kvn_inequality_check(4, trials=200, tol=1e-9, seed=1)
    assert rep.verdict == "pass"
    assert rep.max_violation <= 1e-9
    assert rep.planted_equality_gap <= 1e-9
    assert rep.identity_gap <= 1e-9


def test_p0_invariance_audit(constr4):
    from tppverify.split import audit_p0_invariance, SplitError
    from tppverify.sepfun import Entry, PolyApply, lagrange_indicator

    coords, _ = su_y_lattice(constr4, 2, cap=8, seed=11)
    yfams = [mat_exp_trunc(su_s_matrix(constr4, c), 3) for c in coords]
    p0, _ = su_p0(constr4, 2, check_pairs=0, yfams=None)
    fx, fz, _, _, _ = su_theta_psi(constr4)
    xfams = [mat_exp_trunc(fx.apply([GaussRational(a), GaussRational(b)]), 3)
             for a in (0, 1) for b in (0, 1)]
    zfams = [mat_exp_trunc(fz.apply([GaussRational(a), GaussRational(b)]), 3)
             for a in (0, 1) for b in (0, 1)]
    assert audit_p0_invariance(p0, xfams, zfams, trials=12, seed=1) == 12
    # a non-invariant candidate fails the audit
    bad = PolyApply(lagrange_indicator(0, [0, 1]), Entry(0, 1))
    with pytest.raises(SplitError):
        audit_p0_invariance(bad, xfams, zfams, trials=20, seed=1)


def test_su_assemble_smoke():
    rep = su_assemble(4, 2, sample_budget=300, seed=9, y_cap=24)
    assert rep.verdict == "pass"
    assert rep.t == 1 and rep.order == 3
    dr = rep.degree_report
    assert dr["deg_total"] == dr["deg_p0"] + dr["deg_r"]
    assert rep.cardinalities["X"] == 4 and rep.cardinalities["Z"] == 4
    assert rep.cardinalities["Y"] >= rep.cardinalities["Y_target"]
    assert any("reparametrization skipped" in d for d in rep.deviations)


def test_su_assemble_n6_generality():
    # the construction is not hard-wired to n=4: 6x6 split, sampled lattice
    rep = su_assemble(6, 2, sample_budget=60, seed=3, y_cap=10)
    assert rep.verdict == "pass"
    assert rep.cardinalities["theta_rank"] == 24  # 2 sides x (re, im) x 6 coords
    assert rep.cardinalities["X"] == 64 == rep.cardinalities["X_target"]
    assert rep.cardinalities["Y_sampled"] is True
    dr = rep.degree_report
    assert dr["deg_total"] == dr["deg_p0"] + dr["deg_r"]


def test_su_assemble_detects_planted_constant_p0():
    # planted violation: replacing p0 by the constant 1 must fail separation
    import tppverify.su as su_mod
    from tppverify.sepfun import Product

    orig = su_mod.su_p0

    def fake_p0(constr, q, check_pairs=0, seed=0, yfams=None, coords=None):
        p0, rep = orig(constr, q, check_pairs=0, seed=seed, yfams=None, coords=coords)
        return Product([]), rep

    su_mod.su_p0 = fake_p0
    try:
        rep = su_mod.su_assemble(4, 2, sample_budget=300, seed=10, y_cap=16,
                                 p0_check_pairs=0)
    finally:
        su_mod.su_p0 = orig
    assert rep.verdict == "fail"


# -- the Gram form of the trace deficit against the boxed W diff W oracle -------

small_rationals = st.builds(QQ, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def coordinate_vectors(draw, integral):
    n = draw(st.sampled_from([4, 6]))
    part = st.integers(-4, 4) if integral else small_rationals
    d = CONSTR[n].complex_dim
    return n, [GaussRational(draw(part), draw(part)) for _ in range(d)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(coordinate_vectors(True), coordinate_vectors(False)))
def test_gram_c_matches_boxed_oracle(nd):
    n, delta = nd
    constr = CONSTR[n]
    diff = su_s_matrix(constr, delta)
    got = su_c_from_diff(constr, diff)
    assert type(got) is type(QQ(0))
    assert got == boxed_c_from_diff(constr, diff)


def test_gram_clears_with_the_clearing_constant():
    # 41472 G integral means 41472 c(delta) = x^T (41472 G) x is an integer for
    # every integer delta, not only on sampled pairs
    for n in (4, 6):
        c = CONSTR[n]
        dim = 2 * c.complex_dim
        gram = [[QQ(g, c.gram_den) for g in row] for row in c.gram]
        assert all(gram[k][l] == gram[l][k] for k in range(dim) for l in range(dim))
        assert all((c.clear_constant * g).denominator == 1 for row in gram for g in row)
        # the unit vectors give the diagonal of G
        for k in range(dim):
            coords = [GaussRational(0)] * c.complex_dim
            coords[k // 2] = GaussRational(0, 1) if k % 2 else GaussRational(1)
            assert gram[k][k] == boxed_c_from_diff(c, su_s_matrix(c, coords))
    assert CONSTR[4].gram_den == CONSTR[4].clear_constant == 41472


@pytest.mark.parametrize("q", [2, 8])
def test_achievable_set_matches_boxed_oracle(q):
    nodes, exhaustive = su_achievable_c_nodes(CONSTR[4], q)
    assert exhaustive
    assert nodes == boxed_achievable(CONSTR[4], q)
    assert len(nodes) == {2: 44, 8: 287}[q]


def test_achievable_sampled_branch_matches_boxed_oracle():
    constr = CONSTR[6]
    coords, sampled = su_y_lattice(constr, 2, cap=12, seed=3)
    assert sampled
    nodes, exhaustive = su_achievable_c_nodes(constr, 2, coords_for_sampling=coords)
    assert not exhaustive
    assert nodes == boxed_achievable(constr, 2, coords)


def test_c_from_diff_rejects_matrices_outside_s(constr4):
    good = su_s_matrix(constr4, [GaussRational(1, 2), GaussRational(-1)])
    bad = []
    for (i, j), val in [((0, 0), GaussRational(0, 1)),      # diagonal
                        ((1, 0), GaussRational(5)),         # lower != -conj(upper)
                        ((0, 2), GaussRational(1))]:        # off the blocks
        m = good.copy()
        m[i, j] = val
        bad.append(m)
    bad.append(good.map(EpsLaurent.const))                  # not exact
    for m in bad:
        with pytest.raises(SuConstructionError, match="not an element of S"):
            su_c_from_diff(constr4, m)
    assert su_c_from_diff(constr4, good) == boxed_c_from_diff(constr4, good)


def test_border_evaluates_each_form_once_per_distinct_argument(monkeypatch):
    # su-exhaustive shape: 4 coordinate forms and 48 distinct M give 192
    # (form, M) pairs; the indicator values of one form share its argument
    import tppverify.su as su_mod
    from tppverify.sepfun import LinearForm

    calls = []
    inside = []
    orig_eval = LinearForm.eval
    orig_verify = su_mod.verify_separating_border

    def counting_eval(self, m, ctx=None):
        if inside:
            calls.append((id(self), m.key()))
        return orig_eval(self, m, ctx)

    def verify(*args, **kwargs):
        inside.append(True)
        try:
            return orig_verify(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(LinearForm, "eval", counting_eval)
    monkeypatch.setattr(su_mod, "verify_separating_border", verify)
    rep = su_mod.su_assemble(4, 2, sample_budget=1024, seed=0, y_cap=2)
    assert rep.verdict == "pass" and rep.separating["checked"] == 1024
    assert len(calls) == len(set(calls)) == 192
