"""The unitriangular/orthogonal construction in GL_n(R), desk-scale checks.

X_q and Z_q are lower/upper unitriangular integer matrices with off-diagonal
entries in {1..q}; Y_q is a finite orthogonal family assembled column by
column from integer unit-vector buckets, so that pairwise products have
diagonal entries confined to a small exact rational set W_q.  The separating
polynomials peel one column/row per level, each level contributing an
indicator over W_q and per-entry indicators over {1..q}.

The border variant replaces Y_q by exponentials of integer skew-symmetric
matrices and uses the leading-principal-minor sum as the invariant.  Note the
sign convention: sum_j lpm_j(M) = n - (eps^2/2) sum (i'-i) (A-B)[i,i']^2 +
O(eps^3), so the indicator argument implemented here is
(n - sum_j lpm_j(M)) / eps^2, whose values are the nonnegative half-integer
grid; reports carry this as a recorded deviation from the flipped sign some
descriptions of the construction use, which is inconsistent with the
expansion above.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .matrices import Mat, mat_exp_trunc
from .scalars import QQ
from .sepfun import (
    Affine,
    DivEps,
    Entry,
    LeadingMinor,
    PolyApply,
    Product,
    Sandwich,
    SepFunction,
    SumNode,
    lagrange_indicator,
)
from .sepverify import Eps2Report, SepReport, eps2_expansion_check, verify_indicator_border
from .tpp import TppReport, TppWitness, lattice_tuples

SIGN_CORRECTION_NOTE = (
    "indicator argument uses (n - sum lpm_j)/eps^2, the expansion-consistent "
    "sign (the flipped '-n - sum lpm_j' variant is dimensionally inconsistent "
    "with the lpm expansion and is not implemented)"
)


# ---------------------------------------------------------------------------
# Set construction
# ---------------------------------------------------------------------------

def build_unitriangular_sets(n: int, q: int, cap: int | None = None, seed: int = 0):
    """(X_q, Z_q): lower/upper unitriangular, off-diagonal entries in {1..q}.

    Returns (xq, zq, sampled).  Each full set has q^(n(n-1)/2) elements; a
    seeded sample of entry tuples is drawn when that exceeds the cap.
    """
    if n < 2 or q < 1:
        raise ValueError("need n >= 2 and q >= 1")
    positions = [(i, j) for i in range(n) for j in range(i)]
    tuples, sampled = lattice_tuples(range(1, q + 1), len(positions), cap, seed)
    xq = []
    zq = []
    for vals in tuples:
        low = Mat.identity(n)
        up = Mat.identity(n)
        for (i, j), v in zip(positions, vals):
            low[i, j] = v
            up[j, i] = v
        xq.append(low)
        zq.append(up)
    return xq, zq, sampled


@dataclass
class OrthogonalFamily:
    n: int
    q: int
    members: list                  # (index_tuple, float ndarray)
    wq: list                       # exact rationals (QQ), sorted
    bucket_lengths: list           # squared length l_i per dimension i=1..n
    bucket_sizes: list
    entry_range: int
    notes: list = field(default_factory=list)

    @property
    def wq_floats(self):
        return sorted(float(w) for w in self.wq)


def _unit_vector_bucket(dim: int, entry_max: int):
    """Most popular squared-length bucket of integer vectors in [0, entry_max]^dim."""
    import numpy as np

    vecs = np.array(list(itertools.product(range(entry_max + 1), repeat=dim)), dtype=np.int64)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    if len(vecs) == 0:
        raise ValueError(f"empty unit-vector bucket for dimension {dim}")
    lengths = np.sum(vecs * vecs, axis=1)
    uniq, counts = np.unique(lengths, return_counts=True)
    best = counts.max()
    length = int(uniq[counts == best].min())  # tie -> smallest length
    return vecs[lengths == length], length


def build_orthogonal_family(n: int, q: int, count: int = 16, seed: int = 0,
                            entry_range_mult: int = 4) -> OrthogonalFamily:
    """Sampled orthogonal family with the agreeing-prefix inner-product contract.

    Column j is drawn from the unit-vector bucket of dimension n-j+1 and
    mapped into the orthogonal complement of the previous columns by a
    deterministic completion that depends only on those columns.
    """
    import numpy as np

    if n < 2 or q < 2:
        raise ValueError("need n >= 2 and q >= 2")
    entry_max = entry_range_mult * q
    buckets = []
    lengths = []
    wq_set = set()
    for dim in range(1, n + 1):
        vecs, length = _unit_vector_bucket(dim, entry_max)
        buckets.append(vecs)
        lengths.append(length)
        grams = np.unique(vecs @ vecs.T)
        for g in grams.tolist():
            wq_set.add(QQ(int(g), length))
    wq = sorted(wq_set)
    rng = random.Random(seed)
    members = []
    seen = set()
    sizes = [len(b) for b in buckets]
    max_count = 1
    for dim in range(1, n + 1):
        max_count *= sizes[dim - 1]
    count = min(count, max_count)
    while len(members) < count:
        idx = tuple(rng.randrange(sizes[n - 1 - j]) for j in range(n))
        if idx in seen:
            continue
        seen.add(idx)
        members.append((idx, _assemble_orthogonal(n, idx, buckets, lengths)))
    return OrthogonalFamily(n=n, q=q, members=members, wq=wq,
                            bucket_lengths=lengths, bucket_sizes=sizes,
                            entry_range=entry_max)


def _assemble_orthogonal(n: int, idx, buckets, lengths) -> np.ndarray:
    import numpy as np

    cols = []
    for j in range(n):
        dim = n - j
        v = buckets[dim - 1][idx[j]].astype(float) / math.sqrt(lengths[dim - 1])
        if j == 0:
            cols.append(v)
        else:
            basis = _complement_basis(np.column_stack(cols), n)
            cols.append(basis @ v)
    return np.column_stack(cols)


def _complement_basis(prefix: np.ndarray, n: int) -> np.ndarray:
    """Deterministic orthonormal completion of the prefix columns.

    Gram-Schmidt over the standard basis in fixed order; depends only on the
    prefix, so equal prefixes get equal isometries.
    """
    import numpy as np

    have = [prefix[:, k] for k in range(prefix.shape[1])]
    out = []
    for j in range(n):
        w = np.zeros(n)
        w[j] = 1.0
        for u in have:
            w = w - (u @ w) * u
        for u in out:
            w = w - (u @ w) * u
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            out.append(w / norm)
    return np.column_stack(out)


@dataclass
class ColumnAgreementReport:
    verdict: str
    pairs_checked: int
    violations: list = field(default_factory=list)


def verify_column_agreement(fam: OrthogonalFamily, tol: float = 1e-9) -> ColumnAgreementReport:
    """For pairs agreeing in their first i columns (by chosen indices), the
    (i+1, i+1) entry of y^T y' must be within tol of some element of W_q."""
    import numpy as np

    wq = np.array(fam.wq_floats)
    report = ColumnAgreementReport("pass", 0)
    for a in range(len(fam.members)):
        idx_a, ya = fam.members[a]
        for b in range(len(fam.members)):
            idx_b, yb = fam.members[b]
            agree = 0
            while agree < fam.n and idx_a[agree] == idx_b[agree]:
                agree += 1
            gram = ya.T @ yb
            report.pairs_checked += 1
            for pos in range(min(agree + 1, fam.n)):
                val = gram[pos, pos]
                if np.min(np.abs(wq - val)) > tol:
                    report.violations.append({
                        "pair": (a, b), "position": pos + 1, "value": float(val),
                    })
    if report.violations:
        report.verdict = "fail"
    return report


# ---------------------------------------------------------------------------
# Numeric TPP check (tolerance-tagged; the only float path in verification)
# ---------------------------------------------------------------------------

def verify_tpp_numeric(x_list, y_list, z_list, tol: float = 1e-9) -> TppReport:
    """Exhaustive TPP check with float matrices compared to I within tol.

    x/z entries may be exact matrices (converted to float); y entries are
    float orthogonal matrices whose inverses are taken as transposes.
    """
    import numpy as np

    def to_np(m):
        if isinstance(m, np.ndarray):
            return m
        return np.array([[float(v) for v in m.row(i)] for i in range(m.rows)])

    xs = [to_np(m) for m in x_list]
    ys = [to_np(m) for m in y_list]
    zs = [to_np(m) for m in z_list]
    xinvs = [np.linalg.inv(m) for m in xs]
    yinvs = [m.T for m in ys]
    zinvs = [np.linalg.inv(m) for m in zs]
    n = xs[0].shape[0]
    ident = np.eye(n)
    checked = 0
    for ix, x in enumerate(xs):
        for ix2 in range(len(xs)):
            a = x @ xinvs[ix2]
            for iy, y in enumerate(ys):
                for iy2 in range(len(ys)):
                    b = a @ y @ yinvs[iy2]
                    for iz, z in enumerate(zs):
                        for iz2 in range(len(zs)):
                            checked += 1
                            p = b @ z @ zinvs[iz2]
                            is_ident = np.max(np.abs(p - ident)) <= tol
                            all_eq = ix == ix2 and iy == iy2 and iz == iz2
                            if is_ident != all_eq:
                                return TppReport(
                                    "fail",
                                    witness=TppWitness("tpp", (ix, ix2, iy, iy2, iz, iz2)),
                                    tuples_checked=checked,
                                )
    return TppReport("pass", tuples_checked=checked)


def exact_matrix(a) -> Mat:
    """The float array a as a Mat of the exact rationals its entries hold.

    QQ(float) is exact, so a separating polynomial evaluated on the result
    adds no rounding of its own to that of the float product.
    """
    return Mat.from_rows([[QQ(v) for v in row] for row in a.tolist()])


# ---------------------------------------------------------------------------
# Separating polynomials
# ---------------------------------------------------------------------------

def peel_matrices(x: Mat, z: Mat):
    """Per-level left/right factors clearing one column of x and row of z."""
    n = x.rows
    lefts = [Mat.identity(n)]
    rights = [Mat.identity(n)]
    for k in range(n - 1):
        xk_inv = Mat.identity(n)
        zk_inv = Mat.identity(n)
        for i in range(k + 1, n):
            xk_inv[i, k] = -x[i, k]
            zk_inv[k, i] = -z[k, i]
        lefts.append(xk_inv.matmul(lefts[-1]))
        rights.append(rights[-1].matmul(zk_inv))
    return lefts, rights


def build_running_sep_family(n: int, q: int, x: Mat, z: Mat, wq) -> SepFunction:
    """The product-of-levels separating polynomial for the pair (x, z).

    Level k (after peeling the first k columns/rows) contributes an indicator
    of 1 over W_q at entry (k, k), and per-entry indicators over {1..q}
    matching x's k-th column below the diagonal and z's k-th row right of
    the diagonal.
    """
    r_poly = lagrange_indicator(1, wq)
    entry_nodes = {v: lagrange_indicator(v, list(range(1, q + 1))) for v in range(1, q + 1)}
    lefts, rights = peel_matrices(x, z)
    factors = []
    for k in range(n):
        level = [PolyApply(r_poly, Entry(k, k))]
        for i in range(k + 1, n):
            xv = int(x[i, k])
            zv = int(z[k, i])
            level.append(PolyApply(entry_nodes[xv], Entry(i, k)))
            level.append(PolyApply(entry_nodes[zv], Entry(k, i)))
        factors.append(Sandwich(lefts[k], rights[k], Product(level)))
    return Product(factors)


# ---------------------------------------------------------------------------
# Border machinery: lpm expansion and the invariant indicator
# ---------------------------------------------------------------------------

def lpm_sum_node(n: int) -> SumNode:
    """sum_{j=1..n} lpm_j(M) as an expression node."""
    return SumNode([LeadingMinor(j) for j in range(1, n + 1)])


def skew_weight_sum(diff: Mat):
    """(1/2) sum_{i<i'} (i'-i) diff[i,i']^2 as an exact rational."""
    n = diff.rows
    acc = QQ(0)
    for i in range(n):
        for i2 in range(i + 1, n):
            v = diff[i, i2]
            v = v if isinstance(v, int) else QQ(v)
            acc += (i2 - i) * QQ(v) * QQ(v)
    return acc / 2


def lpm_expansion_check(n: int, a: Mat, b: Mat) -> Eps2Report:
    """Exact check of the lpm-sum expansion for skew-symmetric integer a, b.

    With M = exp(eps a) exp(eps b)^-1:
      coeff 0 of sum lpm_j(M) must be n, coeff 1 must be 0, and coeff 2 must
      be -(1/2) sum_{i<i'} (i'-i) (a-b)[i,i']^2.
    """
    return eps2_expansion_check(lpm_sum_node(n).eval, a, b, n, -skew_weight_sum(a - b))


def skew_symmetric_lattice(n: int, q: int, cap: int | None = None, seed: int = 0):
    """Integer skew-symmetric matrices with entries in [-q/2, q/2]."""
    bound = q // 2
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tuples, sampled = lattice_tuples(range(-bound, bound + 1), len(positions), cap, seed)
    mats = []
    for vals in tuples:
        m = Mat.zeros(n, n)
        for (i, j), v in zip(positions, vals):
            m[i, j] = v
            m[j, i] = -v
        mats.append(m)
    return mats, sampled


@dataclass
class BorderP0Report:
    grid_size: int
    deg_r: int
    deg_p0_tracked: int
    t_max: object
    yfam_count: int
    sampled: bool
    contract: SepReport | None
    deviations: list = field(default_factory=list)


def running_border_p0(n: int, q: int, yfam_cap: int = 200, seed: int = 0,
                      order: int = 3, check_pairs: int = 200,
                      grid_cap: int = 20000):
    """(p0, yfams, report): the indicator over the achievable half-integer grid.

    p0(M) = r((n - sum_j lpm_j(M))/eps^2) with r the indicator of 0 on the
    full arithmetic grid {k/2 : 0 <= k <= 2*T_max}; T_max is the lattice
    bound of (1/2) sum (i'-i) w^2 over difference entries w.
    """
    if check_pairs < 0:
        raise ValueError(f"check_pairs must be at least 0 (got {check_pairs}); 0 skips the check")
    bound = 2 * (q // 2)
    weight_total = sum(d * (n - d) for d in range(1, n))
    t_max = QQ(bound * bound * weight_total, 2)
    needed = int(2 * t_max) + 1
    if needed > grid_cap:
        raise ValueError(
            f"indicator grid overflow: {needed} nodes required (cap {grid_cap})"
        )
    grid = [QQ(k, 2) for k in range(0, needed)]
    r_poly = lagrange_indicator(0, grid)
    argument = DivEps(2, Affine(-1, n, lpm_sum_node(n)))
    p0 = PolyApply(r_poly, argument)

    mats, sampled = skew_symmetric_lattice(n, q, cap=yfam_cap, seed=seed)
    yfams = [mat_exp_trunc(m, order) for m in mats]

    contract = None
    if check_pairs:
        contract = verify_indicator_border(p0, yfams, sample_budget=check_pairs, seed=seed)
    report = BorderP0Report(
        grid_size=len(grid),
        deg_r=len(grid) - 1,
        deg_p0_tracked=p0.degree,
        t_max=t_max,
        yfam_count=len(yfams),
        sampled=sampled,
        contract=contract,
        deviations=[SIGN_CORRECTION_NOTE],
    )
    return p0, yfams, report
