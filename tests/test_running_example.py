import random

import numpy as np
import pytest

from tppverify.matrices import Mat, mat_det, mat_exp_trunc, mat_inv_series
from tppverify.scalars import QQ
from tppverify.running_example import (
    SIGN_CORRECTION_NOTE,
    build_orthogonal_family,
    build_running_sep_family,
    build_unitriangular_sets,
    lpm_expansion_check,
    lpm_sum_node,
    running_border_p0,
    skew_symmetric_lattice,
    verify_column_agreement,
    verify_tpp_numeric,
)
from tppverify.sepfun import Affine, Entry
from tppverify.sepverify import check_border_value, verify_indicator_border


def to_float(m: Mat) -> np.ndarray:
    return np.array([[float(v) for v in m.row(i)] for i in range(m.rows)])


def test_unitriangular_counts_and_dets():
    xq, zq, sampled = build_unitriangular_sets(2, 2)
    assert not sampled
    assert [m.to_rows() for m in xq] == [[[1, 0], [1, 1]], [[1, 0], [2, 1]]]
    xq3, zq3, _ = build_unitriangular_sets(3, 2)
    assert len(xq3) == len(zq3) == 8
    for m in xq3 + zq3:
        assert mat_det(m) == 1


def test_unitriangular_sampling_cap():
    xq, zq, sampled = build_unitriangular_sets(4, 3, cap=10, seed=1)
    assert sampled and len(xq) == 10


def test_seeded_lattice_samples_are_pinned():
    # the samplers share tpp.lattice_tuples: one randrange per coordinate,
    # distinct index tuples, sorted; a change to the draws or their order
    # would change every sampled instance and report
    from tppverify.su import su_build, su_y_lattice

    xq, _, sampled = build_unitriangular_sets(3, 3, cap=4, seed=1)
    assert sampled
    assert [tuple(int(m[i, j]) for i in range(3) for j in range(i)) for m in xq] == [
        (1, 3, 1), (2, 1, 1), (2, 1, 2), (2, 2, 3)]
    mats, sampled = skew_symmetric_lattice(3, 4, cap=4, seed=2)
    assert sampled
    assert [tuple(int(m[i, j]) for i in range(3) for j in range(i + 1, 3)) for m in mats] == [
        (-2, -2, -2), (0, -1, 0), (0, 2, -1), (2, -2, 2)]
    coords, sampled = su_y_lattice(su_build(4), 2, cap=3, seed=3)
    assert sampled
    assert [tuple(map(str, c)) for c in coords] == [
        ("(-1+1i)", "(0+1i)"), ("(0-1i)", "(1+1i)"), ("1", "-1")]


def test_orthogonal_family_wq_properties():
    fam = build_orthogonal_family(3, 3, count=6, seed=0)
    # every w is rational with denominator the bucket length; 1 is a member
    assert any(w == 1 for w in fam.wq)
    assert len(fam.wq) <= 40 * 9  # measured O(q^2) with recorded constant
    for idx, y in fam.members:
        assert np.max(np.abs(y.T @ y - np.eye(3))) < 1e-12


def test_column_agreement_and_planted_violation():
    fam = build_orthogonal_family(3, 2, count=5, seed=3)
    rep = verify_column_agreement(fam, tol=1e-9)
    assert rep.verdict == "pass"
    # plant: a member sharing the full index prefix whose second column is an
    # arbitrary unit vector in the first column's complement (2-dimensional,
    # so it genuinely differs), pushing the diagonal product off W_q
    idx0, y0 = fam.members[0]
    bad = y0.copy()
    v = np.array([0.123, -0.456, 0.781])
    v -= (bad[:, 0] @ v) * bad[:, 0]
    v /= np.linalg.norm(v)
    bad[:, 1] = v
    w = np.cross(bad[:, 0], bad[:, 1])
    bad[:, 2] = w / np.linalg.norm(w)
    fam.members.append((idx0, bad))
    rep2 = verify_column_agreement(fam, tol=1e-9)
    assert rep2.verdict == "fail"
    assert any(viol["position"] == 2 for viol in rep2.violations)


def test_running_tpp_numeric_n3():
    xq, zq, _ = build_unitriangular_sets(3, 2)
    fam = build_orthogonal_family(3, 2, count=4, seed=0)
    rep = verify_tpp_numeric(xq, [m for _, m in fam.members], zq, tol=1e-9)
    assert rep.verdict == "pass"
    assert rep.tuples_checked == (8 * 8) * (4 * 4) * (8 * 8)


def test_running_tpp_numeric_detects_planted_violation():
    xq, zq, _ = build_unitriangular_sets(3, 2)
    fam = build_orthogonal_family(3, 2, count=3, seed=0)
    ys = [m for _, m in fam.members]
    ys.append(ys[0])  # duplicate orthogonal element: x x'^-1 y y'^-1 z z'^-1 = I
    rep = verify_tpp_numeric(xq, ys, zq, tol=1e-9)
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_sep_family_contract_float():
    n, q = 3, 2
    xq, zq, _ = build_unitriangular_sets(n, q)
    fam = build_orthogonal_family(n, q, count=3, seed=1)
    x, z = xq[5], zq[2]
    p = build_running_sep_family(n, q, x, z, fam.wq)
    y = fam.members[1][1]
    m_diag = to_float(x) @ (y.T @ y) @ to_float(z)
    mv = Mat.from_rows([[complex(v) for v in row] for row in m_diag.tolist()])
    assert abs(p.eval(mv) - 1) < 1e-6
    # x mismatch in the first column: the per-entry indicator factor vanishes
    x_bad = next(m for m in xq if m[1, 0] != x[1, 0])
    m_bad = to_float(x_bad) @ (y.T @ y) @ to_float(z)
    mv_bad = Mat.from_rows([[complex(v) for v in row] for row in m_bad.tolist()])
    assert abs(p.eval(mv_bad)) < 1e-6
    # distinct orthogonal parts: the W_q indicator factor vanishes.  The
    # top-left entry of y^T y2 is an exact W_q member, where the indicator is
    # exactly zero; in floats the dense Lagrange nodes amplify the 1e-16
    # input error, so the product only gets a loose envelope.
    from tppverify.sepfun import lagrange_indicator

    y2 = fam.members[2][1]
    r_poly = lagrange_indicator(1, fam.wq)
    w_exact = next(w for w in fam.wq if abs(float(w) - (y.T @ y2)[0, 0]) < 1e-12)
    assert r_poly.eval_exact(w_exact).is_zero()
    m_y = to_float(x) @ (y.T @ y2) @ to_float(z)
    mv_y = Mat.from_rows([[complex(v) for v in row] for row in m_y.tolist()])
    assert abs(p.eval(mv_y)) < 1e-3


def test_sep_family_degree_budget():
    n, q = 3, 2
    xq, zq, _ = build_unitriangular_sets(n, q)
    fam = build_orthogonal_family(n, q, count=2, seed=0)
    p = build_running_sep_family(n, q, xq[0], zq[0], fam.wq)
    w = len(fam.wq)
    expected = sum((w - 1) + 2 * (q - 1) * (n - 1 - k) for k in range(n))
    assert p.degree == expected
    assert p.degree <= n * (w - 1) + 2 * n * n * q  # O(q^2) budget for fixed n


def test_lpm_expansion_trivial_and_hand_cases():
    n = 2
    z = Mat.zeros(2, 2)
    rep = lpm_expansion_check(2, z, z)
    assert rep.ok and rep.expected_coeff2 == 0
    # single off-diagonal disagreement w: coefficient -w^2/2 (hand expansion)
    for w in (1, 3):
        a = Mat.from_rows([[0, w], [-w, 0]])
        rep = lpm_expansion_check(2, a, z)
        assert rep.ok
        assert rep.expected_coeff2 == -QQ(w * w, 2)


def test_lpm_expansion_random_exact():
    rng = random.Random(9)
    for _ in range(20):
        n = 4
        def rand_skew():
            m = Mat.zeros(n, n)
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randint(-4, 4)
                    m[i, j] = v
                    m[j, i] = -v
            return m
        rep = lpm_expansion_check(n, rand_skew(), rand_skew())
        assert rep.ok


def test_lpm_sum_float_oracle():
    # independent float oracle for the lpm-sum series coefficients
    a = Mat.from_rows([[0, 2, -1], [-2, 0, 1], [1, -1, 0]])
    b = Mat.from_rows([[0, 1, 1], [-1, 0, -2], [-1, 2, 0]])
    m = mat_exp_trunc(a, 3).matmul(mat_inv_series(mat_exp_trunc(b, 3)))
    series_val = lpm_sum_node(3).eval(m)
    from scipy.linalg import expm

    af = to_float(a)
    bf = to_float(b)
    eps = 1e-5
    mf = expm(eps * af) @ np.linalg.inv(expm(eps * bf))
    float_val = sum(np.linalg.det(mf[:j, :j]) for j in range(1, 4))
    series_float = sum(float(complex(c).real) * eps ** e
                       for e, c in series_val.coeffs.items())
    assert abs(series_float - float_val) < 1e-12


def test_border_p0_contract_and_deviation():
    p0, yfams, rep = running_border_p0(3, 4, yfam_cap=40, seed=5, check_pairs=120)
    assert rep.contract.verdict == "pass"
    assert SIGN_CORRECTION_NOTE in rep.deviations
    assert rep.grid_size == 1 + 16 * (4 // 2) ** 2


def _shear_families(count, n=2, order=3):
    """exp(eps * k * E_01) for k = 1..count: pairwise distinct families."""
    fams = []
    for k in range(1, count + 1):
        a = Mat.zeros(n, n)
        a[0, 1] = k
        fams.append(mat_exp_trunc(a, order))
    return fams


# the constant 1: it must fail on every unequal pair
CONST_ONE = Affine(0, 1, Entry(0, 0))


@pytest.mark.parametrize("budget", [0, -3])
def test_indicator_border_sampled_budget_below_one_rejected(budget):
    yfams = _shear_families(5)
    with pytest.raises(ValueError, match="budget of at least 1"):
        verify_indicator_border(CONST_ONE, yfams, sample_budget=budget)


def test_indicator_border_constant_one_fails():
    yfams = _shear_families(5)
    sampled = verify_indicator_border(CONST_ONE, yfams, sample_budget=3, seed=2)
    assert sampled.sampled and sampled.verdict == "fail"
    full = verify_indicator_border(CONST_ONE, yfams, sample_budget=25)
    assert not full.sampled and full.verdict == "fail"
    assert len(full.failures) == full.unequal_pairs == 20
    # explicit pairs are checked as given; the budget plays no part
    eq = verify_indicator_border(CONST_ONE, yfams, pairs=[(1, 1)], sample_budget=0)
    assert eq.verdict == "pass" and eq.checked == 1


@pytest.mark.parametrize("check_pairs", [-1, -4])
def test_border_p0_negative_check_pairs_rejected(check_pairs):
    with pytest.raises(ValueError, match="check_pairs must be at least 0"):
        running_border_p0(2, 2, check_pairs=check_pairs)


def test_border_p0_specific_values():
    # n=2, single disagreement w=1: argument constant 1/2, an off-zero grid node
    p0, yfams, rep = running_border_p0(2, 2, check_pairs=0)
    a = Mat.from_rows([[0, 1], [-1, 0]])
    z = Mat.zeros(2, 2)
    m = mat_exp_trunc(a, 3).matmul(mat_inv_series(mat_exp_trunc(z, 3)))
    val = p0.eval(m)
    status, _ = check_border_value(val, 0)
    assert status == "ok"
    m_eq = mat_exp_trunc(a, 3).matmul(mat_inv_series(mat_exp_trunc(a, 3)))
    val_eq = p0.eval(m_eq)
    status_eq, _ = check_border_value(val_eq, 1)
    assert status_eq == "ok"


def test_border_p0_degree_ratio_quadratic():
    degs = {}
    for q in (2, 4, 8):
        _, _, rep = running_border_p0(3, q, yfam_cap=4, seed=0, check_pairs=0)
        degs[q] = rep.deg_r
    r1 = degs[4] / degs[2]
    r2 = degs[8] / degs[4]
    assert 3 <= r1 <= 5 and 3 <= r2 <= 5  # ~q^2 growth per doubling


def test_skew_lattice_cap():
    mats, sampled = skew_symmetric_lattice(3, 4, cap=10, seed=0)
    assert sampled and len(mats) == 10
    full, sampled_full = skew_symmetric_lattice(3, 2, cap=None)
    assert not sampled_full and len(full) == 27  # (2*1+1)^3
