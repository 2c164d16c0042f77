import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.matrices import Mat, mat_det, mat_exp_trunc
from tppverify.scalars import GaussRational, QQ, as_qq
from tppverify.sepfun import (
    Affine,
    DivEps,
    Entry,
    LinearForm,
    MinorInvariant,
    PolyApply,
    Product,
    SepFunctionError,
    lagrange_indicator,
)
from tppverify.series import EpsLaurent, series
from tppverify.split import SplitError, SplitInputs, assemble_split, audit_p0_invariance
from tppverify.su import (
    KVN_PHASES,
    SuConstructionError,
    kvn_certificate,
    kvn_planted_unitary,
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
    # the float oracle never exceeds the bound the certificate proves
    from float_oracle import kvn_max_violation

    constr = su_build(4)
    cert = kvn_certificate(constr)
    assert cert.verdict == "pass" and cert.failures == []
    assert cert.identity_equality and cert.planted_equality
    assert kvn_max_violation(constr, trials=200, seed=1) <= 1e-9


@pytest.mark.parametrize("n", [4, 6])
def test_kvn_certificate_passes_and_plants_an_exact_unitary(n):
    constr = su_build(n)
    cert = kvn_certificate(constr)
    assert cert.to_json() == {"verdict": "pass", "proof": cert.to_json()["proof"],
                              "identity_equality": True, "planted_equality": True}
    m = kvn_planted_unitary(constr)
    assert m.conj_transpose().matmul(m) == Mat.identity(n)
    assert m != Mat.identity(n)
    assert su_trace_invariant(m, constr) == constr.trace_dd2
    assert all(phi.norm2() == 1 for phi in KVN_PHASES)


def test_kvn_certificate_refuses_planted_defects():
    import dataclasses

    constr = su_build(4)
    d = constr.d_mat.copy()
    d[0, 1] = d[0, 1] + 1
    cert = kvn_certificate(dataclasses.replace(constr, d_mat=d))
    assert cert.verdict == "fail" and "D is not Hermitian" in cert.failures
    off = dataclasses.replace(constr, trace_dd2=constr.trace_dd2
                              + QQ(1, constr.trace_dd2.denominator))
    cert = kvn_certificate(off)
    assert cert.verdict == "fail"
    assert "Tr(P^2), trace_dd2 and sum d_i^4 differ" in cert.failures
    assert not cert.identity_equality
    # (2M)* (2M) = 4I
    cert = kvn_certificate(constr, planted=kvn_planted_unitary(constr).scale(2))
    assert cert.verdict == "fail" and cert.failures == ["the planted M is not unitary"]
    assert cert.identity_equality and not cert.planted_equality


def sandwich_oracle(p0, xfams, zfams, trials: int, seed: int = 0,
                    entry_range: int = 3) -> int:
    """p0(x M z) = p0(M) on the common window for random exact M and (x, z).

    The sampled oracle of split.audit_p0_invariance: returns the number of
    trials, raises SplitError at the first violation.
    """
    rng = random.Random(seed)
    n = xfams[0].rows
    for trial in range(trials):
        x = xfams[rng.randrange(len(xfams))]
        z = zfams[rng.randrange(len(zfams))]
        m = Mat.from_rows([[GaussRational(rng.randint(-entry_range, entry_range),
                                          rng.randint(-entry_range, entry_range))
                            for _ in range(n)] for _ in range(n)])
        m_series = m.map(EpsLaurent.const)
        lhs = p0.eval(x.matmul(m_series).matmul(z))
        rhs = p0.eval(m_series)
        lhs_s = lhs if isinstance(lhs, EpsLaurent) else EpsLaurent.const(lhs)
        rhs_s = rhs if isinstance(rhs, EpsLaurent) else EpsLaurent.const(rhs)
        if not lhs_s.eq_on_window(rhs_s):
            raise SplitError(f"sandwich oracle: p0(xMz) != p0(M) on the window at trial {trial}")
    return trials


def su_split_families(n, q, y_cap, seed, order=3):
    """(p0, X', Z') as su_assemble builds them, without the verifiers."""
    constr = CONSTR[n]
    coords, sampled = su_y_lattice(constr, q, cap=y_cap, seed=seed)
    fx, fz, px, pz, _ = su_theta_psi(constr)
    yfams = [mat_exp_trunc(su_s_matrix(constr, c), order) for c in coords]
    p0, _ = su_p0(constr, q, check_pairs=0, coords=coords if sampled else None)
    out = assemble_split(SplitInputs(fx, fz, px, pz, p0, yfams, q), order=order,
                         seed=seed, run_dpp_check=False)
    return p0, out.xfams, out.zfams


def test_p0_invariance_audit(constr4):
    # the sampled oracle: p0 passes, and a non-invariant candidate fails
    p0, _ = su_p0(constr4, 2, check_pairs=0, yfams=None)
    fx, fz, _, _, _ = su_theta_psi(constr4)
    xfams = [mat_exp_trunc(fx.apply([GaussRational(a), GaussRational(b)]), 3)
             for a in (0, 1) for b in (0, 1)]
    zfams = [mat_exp_trunc(fz.apply([GaussRational(a), GaussRational(b)]), 3)
             for a in (0, 1) for b in (0, 1)]
    assert sandwich_oracle(p0, xfams, zfams, trials=12, seed=1) == 12
    bad = PolyApply(lagrange_indicator(0, [0, 1]), Entry(0, 1))
    with pytest.raises(SplitError):
        sandwich_oracle(bad, xfams, zfams, trials=20, seed=1)


@pytest.mark.parametrize("y_cap, seed", [(2, 0), (128, 1)], ids=["su-exhaustive", "su-sampled"])
def test_invariance_certificate_agrees_with_sandwich_oracle(y_cap, seed):
    p0, xfams, zfams = su_split_families(4, 2, y_cap, seed)
    assert len(xfams) == len(zfams) == 4
    assert audit_p0_invariance(p0, xfams, zfams).endswith(" on 4 Z' (window edge 3)")
    assert sandwich_oracle(p0, xfams, zfams, trials=50, seed=seed) == 50


def _negative_power(m):
    """m with eps^-1 added to its (0, 1) entry."""
    out = Mat(m.rows, m.cols, list(m.data))
    out[0, 1] = out[0, 1] + series({-1: 1})
    return out


def _exp_e00():
    """exp(eps E_00): x* H x = H + eps (E_00 H + H E_00) + ..., and H_00 > 0."""
    e = Mat.zeros(4, 4)
    e[0, 0] = 1
    return mat_exp_trunc(e, 3)


def _with_d(constr, d):
    """su_p0's chain with D replaced by d."""
    return PolyApply(lagrange_indicator(0, [0, 1]),
                     DivEps(2, Affine(-1, constr.trace_dd2, MinorInvariant(1, d, constr.q_form))))


# each plant maps (construction, p0, X', Z') at the su-exhaustive arguments,
# built at the given order, to the refused certificate input
@pytest.mark.parametrize("order, plant, message", [
    (3, lambda c, p0, xs, zs: (p0, xs[:-1] + [_exp_e00()], zs), "does not preserve the form"),
    (3, lambda c, p0, xs, zs: (p0, xs, zs[:-1] + [zs[-1].map(lambda v: v * 2)]),
     "does not preserve the form"),
    (1, lambda c, p0, xs, zs: (p0, xs, zs), "window edge 1 < 2"),
    (3, lambda c, p0, xs, zs: (p0, [_negative_power(xs[1])] + xs[1:], zs), "negative eps power"),
    (3, lambda c, p0, xs, zs: (_with_d(c, c.d_inv), xs, zs), "does not preserve the form"),
    (3, lambda c, p0, xs, zs: (PolyApply(lagrange_indicator(0, [0, 1]), Entry(0, 1)), xs, zs),
     "needs p0 = r"),
], ids=["x-breaks-eps1", "z-scaled", "window-edge-1", "negative-power", "other-D",
        "not-p1-chain"])
def test_invariance_certificate_refuses(order, plant, message):
    p0, xfams, zfams = plant(CONSTR[4], *su_split_families(4, 2, 2, 0, order=order))
    with pytest.raises(SplitError, match=message):
        audit_p0_invariance(p0, xfams, zfams)


@pytest.mark.parametrize("n", [4, 6])
def test_left_inverse_check_accepts_su_split(n):
    fx, fz, px, pz, _ = su_theta_psi(CONSTR[n])
    SplitInputs(fx, fz, px, pz, Product([]), [], 2).check_left_inverse()


@pytest.mark.parametrize("side", ["x", "z"])
def test_left_inverse_check_refuses_one_unit_off(constr4, side):
    fx, fz, px, pz, _ = su_theta_psi(constr4)
    forms = px if side == "x" else pz
    form = forms[0]
    den = math.lcm(*(as_qq(c).denominator
                     for m in (form.rr, form.ri, form.ir, form.ii) for c in m.data))
    k = next(k for k, c in enumerate(form.rr.data) if c)
    rr = Mat(form.rr.rows, form.rr.cols, list(form.rr.data))
    rr.data[k] = as_qq(rr.data[k]) + QQ(1, den)
    forms[0] = LinearForm(rr, form.ri, form.ir, form.ii)
    with pytest.raises(SplitError, match="left-inverse check failed"):
        SplitInputs(fx, fz, px, pz, Product([]), [], 2).check_left_inverse()


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
