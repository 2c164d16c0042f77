import itertools

import pytest

from tppverify.groups import MatrixGroupOps
from tppverify.matrices import Mat
from tppverify.scalars import GaussRational
from tppverify.sepfun import Const, PolyApply, lagrange_indicator
from tppverify.sepverify import verify_separating_border
from tppverify.series import EpsLaurent
from tppverify.split import (
    SplitError,
    SplitInputs,
    assemble_split,
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
    return SplitInputs(fx, fz, px, pz, p0 or Const(1),
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
    bad = SplitInputs(fx, fz, pz, px, Const(1), [ident_family(2)], q=2)  # swapped
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
