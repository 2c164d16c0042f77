"""Per-call timings of each layer's public functions on a workload's own inputs.

Operands are taken from the objects the run itself built (its x', y^-1, M,
p0 and p_xz), so each figure describes the code path its workload runs.
"""

from __future__ import annotations

import statistics
import time

from tppverify.matrices import mat_det, mat_exp_trunc, mat_inv_series
from tppverify.sepfun import EvalContext


def per_call_us(fn, batch_s: float = 0.02, repeats: int = 5) -> float:
    """Median over `repeats` batches of the per-call time, in microseconds."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    calls = max(1, int(batch_s / max(once, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6


def _richest(mat):
    """The entry with the most stored coefficients (first on ties)."""
    return max(mat.data, key=lambda s: len(s.coeffs))


def _coefficient(mat):
    """A stored coefficient of the matrix, preferring a fully complex one."""
    coeffs = [s.coeffs[k] for s in mat.data for k in sorted(s.coeffs)]
    return max(coeffs, key=lambda c: (c.re != 0) + 2 * (c.im != 0))


def _rational(g):
    return g.re if g.re != 0 else g.im


def layer_timings(left, right, y, exp_args, m, p0, pxz) -> dict:
    """left.matmul(right) is the workload's hot product; m is a verifier
    argument; pxz is None where the workload has no per-pair function."""
    sa, sb = _richest(left), _richest(right)
    ga, gb = _coefficient(left), _coefficient(right)
    fa, fb = _rational(ga), _rational(gb)
    ctx = EvalContext()
    return {
        "scalars.fraction_mul_us": per_call_us(lambda: fa * fb),
        "scalars.gauss_mul_us": per_call_us(lambda: ga * gb),
        "series.mul_us": per_call_us(lambda: sa * sb),
        "matrices.matmul_us": per_call_us(lambda: left.matmul(right)),
        "matrices.inv_series_us": per_call_us(lambda: mat_inv_series(y)),
        "matrices.exp_trunc_us": per_call_us(lambda: mat_exp_trunc(*exp_args)),
        "matrices.det_series_us": per_call_us(lambda: mat_det(m)),
        "sepfun.p0_eval_us": per_call_us(lambda: p0.eval(m, ctx)),
        "sepfun.pxz_eval_us": per_call_us(lambda: pxz.eval(m, ctx)) if pxz else 0.0,
    }
