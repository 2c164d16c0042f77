"""Float Monte-Carlo oracle for the trace inequality that su.kvn_certificate proves.

Random unitaries come from QR of complex Gaussian matrices with the phases
of R's diagonal divided out; each is compared against the exact bound
Tr((D*D)^2) in floats.
"""

import math

import numpy as np


def kvn_max_violation(constr, trials: int, seed: int) -> float:
    """max over `trials` random unitaries M of Tr(D* M* D* D M D) - Tr((D*D)^2)."""
    n = constr.n
    rng = np.random.default_rng(seed)
    w = np.array([[float(constr.w_mat[i, j]) for j in range(n)] for i in range(n)])
    u = w / math.sqrt(2.0)
    d_mat = u @ np.diag([float(v) for v in constr.d0]) @ u.conj().T
    bound = float(constr.trace_dd2)
    worst = -math.inf
    for _ in range(trials):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        qmat, rmat = np.linalg.qr(g)
        m = qmat @ np.diag(np.diag(rmat) / np.abs(np.diag(rmat)))
        inner = d_mat.conj().T @ m.conj().T @ d_mat.conj().T @ d_mat @ m @ d_mat
        worst = max(worst, float(np.trace(inner).real) - bound)
    return worst
