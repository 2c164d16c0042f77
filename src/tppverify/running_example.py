"""The unitriangular/orthogonal construction in GL_n(R), desk-scale checks.

X_q and Z_q are lower/upper unitriangular integer matrices with off-diagonal
entries in {1..q}; Y_q is a finite, exactly orthogonal family of rational
matrices assembled column by column from integer vectors of one
perfect-square squared length per dimension (rational Householder
completions), so that pairwise products have diagonal entries confined to a
small exact rational set W_q.  Every check is exact: the column contract is
membership in W_q, and the TPP runs on the exact tuple engine.  The separating
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
from .tpp import lattice_tuples

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


SQUARE_LENGTH_NOTE = (
    "Y_q buckets hold the most popular perfect-square squared length among "
    "integer vectors in [0, 4q]^d (not the most popular length), so each unit "
    "vector is rational and a Householder completion keeps Y_q exactly "
    "orthogonal"
)


@dataclass
class OrthogonalFamily:
    n: int
    q: int
    members: list                  # (index_tuple, exact orthogonal Mat)
    wq: list                       # exact rationals (QQ), sorted
    bucket_lengths: list           # squared length l_i per dimension i=1..n
    bucket_sizes: list
    entry_range: int


def _unit_vector_bucket(dim: int, entry_max: int):
    """(vectors, l): the integer vectors in [0, entry_max]^dim of the most
    popular perfect-square squared length l (ties to the smallest), so that
    v / sqrt(l) is rational."""
    by_length = {}
    for vec in itertools.product(range(entry_max + 1), repeat=dim):
        length = sum(v * v for v in vec)
        if length and math.isqrt(length) ** 2 == length:
            by_length.setdefault(length, []).append(vec)
    if not by_length:
        raise ValueError(f"empty unit-vector bucket for dimension {dim}")
    length = min(by_length, key=lambda l: (-len(by_length[l]), l))
    return by_length[length], length


def build_orthogonal_family(n: int, q: int, count: int = 16, seed: int = 0,
                            entry_range_mult: int = 4) -> OrthogonalFamily:
    """Sampled exactly orthogonal family with the agreeing-prefix contract.

    Column j is a rational unit vector v from the bucket of dimension n-j,
    mapped into the orthogonal complement of the previous columns by an
    isometry that depends only on those columns' indices (_assemble_orthogonal).
    Two members that agree in their first i indices share that isometry, so
    the (i+1, i+1) entry of y^T y' is v . v', an element of W_q.
    """
    if n < 2 or q < 2:
        raise ValueError("need n >= 2 and q >= 2")
    entry_max = entry_range_mult * q
    buckets = []
    lengths = []
    wq_set = set()
    for dim in range(1, n + 1):
        vecs, length = _unit_vector_bucket(dim, entry_max)
        root = math.isqrt(length)
        buckets.append([[QQ(v, root) for v in vec] for vec in vecs])
        lengths.append(length)
        wq_set.update(QQ(sum(a * b for a, b in zip(u, v)), length) for u in vecs for v in vecs)
    wq = sorted(wq_set)
    rng = random.Random(seed)
    members = []
    seen = set()
    sizes = [len(b) for b in buckets]
    count = min(count, math.prod(sizes))
    while len(members) < count:
        idx = tuple(rng.randrange(sizes[n - 1 - j]) for j in range(n))
        if idx in seen:
            continue
        seen.add(idx)
        members.append((idx, _assemble_orthogonal(n, idx, buckets)))
    return OrthogonalFamily(n=n, q=q, members=members, wq=wq,
                            bucket_lengths=lengths, bucket_sizes=sizes,
                            entry_range=entry_max)


def _assemble_orthogonal(n: int, idx, buckets) -> Mat:
    """The exact orthogonal member with column indices idx.

    Q starts as I.  At column j, with v the rational unit vector of
    dimension n-j, Q[:, j:] is multiplied by the Householder reflection
    H = I - 2 w w^T / (w^T w), w = e_1 - v, which is rational, orthogonal and
    has H e_1 = v.  Column j becomes Q[:, j:] v and the later columns span
    its complement; Q depends only on idx[:j + 1] after step j.
    """
    cols = [[QQ(int(i == k)) for i in range(n)] for k in range(n)]
    for j in range(n):
        v = buckets[n - j - 1][idx[j]]
        w = [QQ(int(k == 0)) - vk for k, vk in enumerate(v)]
        ww = sum(wk * wk for wk in w)
        if not ww:
            continue
        sub = cols[j:]
        u = [sum(wk * col[i] for wk, col in zip(w, sub)) for i in range(n)]
        cols[j:] = [[c - 2 * wk / ww * ui for c, ui in zip(col, u)]
                    for wk, col in zip(w, sub)]
    return Mat(n, n, [cols[k][i] for i in range(n) for k in range(n)])


@dataclass
class ColumnAgreementReport:
    verdict: str
    pairs_checked: int
    violations: list = field(default_factory=list)


def verify_column_agreement(fam: OrthogonalFamily) -> ColumnAgreementReport:
    """For pairs agreeing in their first i columns (by chosen indices), the
    (i+1, i+1) entry of y^T y' must be an element of W_q, exactly."""
    wq = set(fam.wq)
    n = fam.n
    report = ColumnAgreementReport("pass", 0)
    for a, (idx_a, ya) in enumerate(fam.members):
        for b, (idx_b, yb) in enumerate(fam.members):
            agree = 0
            while agree < n and idx_a[agree] == idx_b[agree]:
                agree += 1
            report.pairs_checked += 1
            for pos in range(min(agree + 1, n)):
                val = sum(ya[i, pos] * yb[i, pos] for i in range(n))
                if val not in wq:
                    report.violations.append({"pair": (a, b), "position": pos + 1,
                                              "value": val})
    if report.violations:
        report.verdict = "fail"
    return report


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
