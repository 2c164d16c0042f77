"""Untimed negative controls: planted defects that every run must reject.

A control that passes is a failed operation, so a later fast path cannot
certify more than it proves.  All controls are built from production
constructors and expression nodes only.
"""

from __future__ import annotations

from tppverify.groups import MatrixGroupOps
from tppverify.matrices import mat_inv_series
from tppverify.running_example import build_unitriangular_sets
from tppverify.scalars import QQ, GaussRational
from tppverify.sepfun import EvalContext, PolyApply, lagrange_indicator
from tppverify.sepverify import verify_indicator_border
from tppverify.tpp import (
    TppInstance,
    recheck_tpp_witness,
    verify_tpp,
    verify_tpp_series,
)


def tpp_collision_exact(n: int, q: int, seed: int) -> bool:
    """Z' = X' on exact unitriangular matrices: verify_tpp must fail, and
    recheck_tpp_witness must reproduce the witness."""
    xq, zq, _ = build_unitriangular_sets(n, q, cap=2, seed=seed)
    xq, zq = [m.map(QQ) for m in xq], [m.map(QQ) for m in zq]
    inst = TppInstance(MatrixGroupOps(n), xq, zq, xq, "exact")
    rep = verify_tpp(inst, mode="exhaustive")
    return rep.verdict == "fail" and recheck_tpp_witness(inst, rep.witness)


def tpp_collision_family(inst: TppInstance, order: int) -> bool:
    """Z' = X' on the workload's own families.

    A window can prove a product differs from I but never that it equals I,
    so the collision x x'^-1 y y^-1 x' x^-1 = I must come back inconclusive
    (not pass), with the planted tuple as its witness.
    """
    x = inst.x[:2]
    planted = TppInstance(inst.group, x, inst.y[:1], x, "family")
    rep = verify_tpp_series(planted, order=order, mode="exhaustive")
    if rep.verdict != "inconclusive" or rep.witness is None:
        return False
    ix, ix2, iy, iy2, iz, iz2 = rep.witness.indices
    return ix != ix2 and iy == iy2 and iz == ix2 and iz2 == ix


def p0_missing_node(p0, yfams) -> bool:
    """Drop from p0's node set one nonzero value that a pair y_0^-1 y_j
    actually reaches; verify_indicator_border must then fail on that pair."""
    ctx = EvalContext()
    inv0 = mat_inv_series(yfams[0])
    for j in range(1, len(yfams)):
        value = p0.child.eval(inv0.matmul(yfams[j]), ctx).coeff(0)
        if not value.is_zero():
            break
    else:
        return False
    roots = p0.poly.roots
    kept = [r for r in roots if r != value]
    if len(kept) != len(roots) - 1:
        return False                      # the reached value is not a node
    planted = PolyApply(lagrange_indicator(0, [GaussRational(0)] + kept), p0.child)
    rep = verify_indicator_border(planted, yfams, pairs=[(0, 0), (0, j)])
    return rep.verdict == "fail" and [f["pair"] for f in rep.failures] == [(0, j)]


def run_controls(n: int, q_exact: int, seed: int, inst: TppInstance,
                 order: int, p0) -> dict:
    """Name -> True when the planted defect was rejected as it should be."""
    return {
        "tpp_collision_exact": tpp_collision_exact(n, q_exact, seed),
        "tpp_collision_family": tpp_collision_family(inst, order),
        "p0_missing_node": p0_missing_node(p0, inst.y),
    }
