import random

import pytest
from hypothesis import given, settings, strategies as st

from tppverify.scalars import ExactArithmeticError, GaussRational, QQ
from tppverify.matrices import (
    Mat,
    PackedSeriesMat,
    _exact_quotient,
    lpm,
    mat_det,
    mat_exp_trunc,
    mat_inv_exact,
    mat_inv_series,
    mat_minor,
    mat_rank,
    mat_to_series,
    solve_linear,
)
from series_oracle import oracle_det, oracle_det_dp

def rand_qq_mat(n, rng, lo=-5, hi=5):
    return Mat.from_rows([[QQ(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def test_det_2x2():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert mat_det(m) == -2


def test_lpm_identity():
    m = Mat.identity(5)
    for j in range(6):
        assert lpm(m, j) == 1


def test_det_multiplicativity_random():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_qq_mat(4, rng)
        b = rand_qq_mat(4, rng)
        assert mat_det(a.matmul(b)) == mat_det(a) * mat_det(b)


def test_row_reduction_det_vs_cofactor_dp():
    rng = random.Random(5)
    for _ in range(15):
        m = rand_qq_mat(4, rng)
        assert mat_det(m) == oracle_det_dp(m)


def test_lpm_unitriangular_sandwich():
    # lpm of (lower unitriangular) * M * (upper unitriangular) equals lpm of M
    rng = random.Random(11)
    for _ in range(10):
        n = 4
        m = rand_qq_mat(n, rng)
        low = Mat.identity(n, one=QQ(1), zero=QQ(0))
        up = Mat.identity(n, one=QQ(1), zero=QQ(0))
        for i in range(n):
            for j in range(i):
                low[i, j] = QQ(rng.randint(-3, 3))
                up[j, i] = QQ(rng.randint(-3, 3))
        prod = low.matmul(m).matmul(up)
        for j in range(n + 1):
            assert lpm(prod, j) == lpm(m, j)


def test_minor_selection():
    m = Mat.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert mat_minor(m, drop_rows=[0], drop_cols=[0]) == 5 * 10 - 6 * 8
    assert mat_minor(m, keep_rows=[0, 1], keep_cols=[1, 2]) == 2 * 6 - 3 * 5
    with pytest.raises(Exception):
        mat_minor(m, keep_rows=[0], keep_cols=[0, 1])


def test_exp_trunc_zero_matrix():
    z = Mat.zeros(3, 3)
    e = mat_exp_trunc(z, 4)
    for i in range(3):
        for j in range(3):
            expect = GaussRational(1 if i == j else 0)
            assert e[i, j].constant_term() == expect
            assert all(c.is_zero() for k, c in e[i, j].coeffs.items() if k > 0)


def test_exp_trunc_order2_definition():
    a = Mat.from_rows([[0, 1], [2, 0]])
    e = mat_exp_trunc(a, 2)
    a2 = a.matmul(a)
    for i in range(2):
        for j in range(2):
            assert e[i, j].coeff(1) == GaussRational(a[i, j])
            assert e[i, j].coeff(2) == GaussRational(QQ(a2[i, j], 2))
    assert (e[0, 0].lo, e[0, 0].hi) == (0, 2)


def test_exp_trunc_skew_conj_transpose_cancellation():
    # for skew-symmetric real A: exp(eps A) * exp(eps A)^* = I + O(eps^3)
    a = Mat.from_rows([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
    e = mat_exp_trunc(a, 2)
    prod = e.matmul(e.conj_transpose())
    for i in range(3):
        for j in range(3):
            s = prod[i, j]
            assert s.coeff(0) == GaussRational(1 if i == j else 0)
            assert s.coeff(1).is_zero()
            assert s.coeff(2).is_zero()


def test_exp_trunc_order_consistency():
    rng = random.Random(2)
    a = rand_qq_mat(3, rng, -2, 2)
    e3 = mat_exp_trunc(a, 3)
    e2 = mat_exp_trunc(a, 2)
    for i in range(3):
        for j in range(3):
            assert e3[i, j].truncate(2) == e2[i, j]


def test_conj_transpose_laws():
    m = Mat.from_rows([[GaussRational(1, 2), GaussRational(0, 1)],
                       [GaussRational(3), GaussRational(2, -1)]])
    n = Mat.from_rows([[GaussRational(0, 1), GaussRational(1)],
                       [GaussRational(1, 1), GaussRational(0)]])
    assert m.conj_transpose().conj_transpose() == m
    assert m.matmul(n).conj_transpose() == n.conj_transpose().matmul(m.conj_transpose())
    # (iI)^* = -iI
    ii = Mat.identity(2, one=GaussRational(0, 1), zero=GaussRational(0))
    assert ii.conj_transpose() == Mat.identity(2, one=GaussRational(0, -1), zero=GaussRational(0))


def test_exp_conj_transpose_skew_hermitian():
    # conj_transpose(exp_trunc(eps A, 2)) = exp_trunc(-eps A, 2) for skew-Hermitian A
    a = Mat.from_rows([
        [GaussRational(0, 1), GaussRational(2, 3)],
        [GaussRational(-2, 3), GaussRational(0, -1)],
    ])
    assert a.conj_transpose() == -a
    left = mat_exp_trunc(a, 2).conj_transpose()
    right = mat_exp_trunc(-a, 2)
    assert left == right


def test_series_matrix_inverse_roundtrip():
    a = Mat.from_rows([[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
    e = mat_exp_trunc(a, 3)
    inv = mat_inv_series(e)
    prod = e.matmul(inv)
    for i in range(3):
        for j in range(3):
            s = prod[i, j]
            assert s.constant_term() == GaussRational(1 if i == j else 0)
            assert all(c.is_zero() for k, c in s.coeffs.items() if k != 0)


def test_exact_inverse():
    m = Mat.from_rows([[QQ(1), QQ(2)], [QQ(3), QQ(4)]])
    inv = mat_inv_exact(m)
    assert m.matmul(inv) == Mat.identity(2, one=QQ(1), zero=QQ(0))


def test_solve_linear_and_rank():
    a = [[QQ(1), QQ(2)], [QQ(2), QQ(4)]]
    assert mat_rank(a) == 1
    sol, reason = solve_linear(a, [[QQ(1)], [QQ(2)]])
    assert reason is None
    assert sol[0][0] + 2 * sol[1][0] == QQ(1)
    sol, reason = solve_linear(a, [[QQ(1)], [QQ(3)]])
    assert sol is None and "inconsistent" in reason


# -- the row reduction behind mat_det, mat_inv_exact, solve_linear, mat_rank --

BACKEND_INT = type(QQ(0).numerator)     # int, or mpz under gmpy2

ENTRY_KINDS = {
    "int": lambda re, im: re,
    "backend int": lambda re, im: BACKEND_INT(re),
    "QQ": lambda re, im: QQ(re, 2),
    "Gauss": lambda re, im: GaussRational(QQ(re, 3), im),
}


# "mixed" draws the kind of each entry
KINDS = sorted(ENTRY_KINDS) + ["mixed"]


@st.composite
def field_matrices(draw, rows, cols, kind):
    """rows x cols entries of one kind, small so that singular matrices are
    common; sometimes a row is a multiple of another."""
    makers = [ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))] if kind == "mixed"
              else ENTRY_KINDS[kind] for _ in range(rows * cols)]
    data = [make(draw(st.integers(-2, 2)), draw(st.integers(-1, 1))) for make in makers]
    m = Mat(rows, cols, data)
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        for k in range(cols):
            m[i, k] = m[j, k] * c
    return m


@st.composite
def linear_systems(draw):
    kind = draw(st.sampled_from(KINDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        cols = rows
    return (draw(field_matrices(rows, cols, kind)),
            draw(field_matrices(rows, draw(st.integers(1, 2)), kind)))


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_row_reduction_callers_are_exact(system):
    a, b = system
    n = a.rows
    rank = mat_rank(a.to_rows())
    assert rank == mat_rank(a.transpose().to_rows()) <= min(a.rows, a.cols)
    if a.is_square:
        det = mat_det(a)
        assert det == oracle_det(a)
        assert (rank == n) == (det != 0)
        if rank == n:
            inv = mat_inv_exact(a)
            assert a.matmul(inv) == Mat.identity(n) == inv.matmul(a)
        else:
            with pytest.raises(ExactArithmeticError, match="singular matrix"):
                mat_inv_exact(a)
    sol, reason = solve_linear(a.to_rows(), b.to_rows())
    ab = [ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())]
    if mat_rank(ab) > rank:
        assert sol is None and reason.startswith("inconsistent system")
    else:
        assert reason is None
        assert a.matmul(Mat.from_rows(sol)) == b


def test_integer_matrices_are_reduced_over_the_rationals():
    assert mat_inv_exact(Mat.from_rows([[2, 0], [0, 1]])) == Mat.from_rows(
        [[QQ(1, 2), 0], [0, 1]])
    assert mat_rank([[2, 1], [4, 2]]) == 1
    assert mat_det(Mat.from_rows([[0, 2], [3, 4]])) == -6


# -- the packed constant inverse, fraction-free, against mat_inv_exact ---------

def test_inexact_division_is_refused():
    assert _exact_quotient([6, -4, 0], -2) == [-3, 2, 0]
    with pytest.raises(ExactArithmeticError, match="does not divide"):
        _exact_quotient([6, 3], 2)


def check_constant_inverse(c: Mat):
    packed = PackedSeriesMat.pack(mat_to_series(c))
    try:
        want = PackedSeriesMat.pack(mat_inv_exact(c))
    except ExactArithmeticError:
        with pytest.raises(ExactArithmeticError, match="singular matrix"):
            packed._constant_inverse()
        return
    got = packed._constant_inverse()
    assert (got.den, got.entries) == (want.den, want.entries)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.sampled_from(KINDS).flatmap(lambda kind: field_matrices(n, n, kind))),
    st.booleans())
def test_constant_inverse_is_the_packed_exact_inverse(c, zero_corner):
    if zero_corner:
        c[0, 0] = c[0, 0] * 0       # the first pivot, if any, needs a row swap
    check_constant_inverse(c)


def test_constant_inverse_swaps_gaussian_rows():
    # column 0 pivots in row 2, and the rows swapped have imaginary parts
    i = GaussRational(0, 1)
    check_constant_inverse(Mat.from_rows([[0, i, 1], [0, 2, 3 * i], [4 + i, 5, 6]]))


def test_constant_inverse_on_gl_and_su_constants():
    from tppverify.running_example import build_unitriangular_sets
    from tppverify.su import su_build

    xq, zq, _ = build_unitriangular_sets(4, 4, cap=8, seed=1)
    for c in xq + zq + [su_build(4).d_mat, su_build(6).d_mat]:
        check_constant_inverse(c)
