"""The special-unitary-form construction: exact data, identities, assembly.

The containing group is G = {M : M* Q M = Q, det M = 1} with the split form
Q = diag(I, -I).  All exact data is generated from the integer involution
W = [[I, J], [J, -I]] (J antidiagonal): with U = W/sqrt(2), the conjugator
D = U D0 U* equals (1/2) W D0 W^T and is exactly rational, so sqrt(2) never
enters the arithmetic.  D0 = diag(n, ..., n/2+1, (n/2+1)^-1, ..., n^-1).

The key quantity is the trace deficit of the invariant p_1:
for M = exp(eps A) exp(eps B)^-1 with A, B in the block skew-Hermitian space
S, the eps^2 coefficient of Tr((D*D)^2) - p_1(M) equals

    c = sum_{i<j} (d_i^2 - d_j^2)^2 |C[i,j]|^2,   C = U*(A-B)U,

which is zero iff A = B.  2C = W (A-B) W is real-linear in the 2 * complex_dim
real coordinates x of delta = A - B in S (real and imaginary part of each
above-diagonal slot, in s_basis order), so c is a quadratic form in them:

    c(delta) = x^T G x,   G[k][l] = sum_{i<j} w_ij Re(b_k[i,j] conj(b_l[i,j])) / 4,

with b_k = W s_k W and w_ij = (d_i^2 - d_j^2)^2.  su_build computes G once,
as integers over one denominator (41472 at n = 4), and every value of c --
su_c_from_diff and the achievable-value enumeration alike -- is this form
evaluated on integers.  On the Gaussian-integer lattice the values of c
are integer multiples of 1/(2 P^4) with P = n!/(n/2)! -- note this corrects
the constant 2 (n!)^2 sometimes quoted for this construction, which exact
arithmetic refutes already at n = 4 (see su_c_value).  The indicator
polynomial for the trace deficit is built on the exact achievable value set
rather than the full arithmetic grid: the grid with the true quantum has
~10^8 nodes already at n = 4, q = 2, which is both uneconomical and
unnecessary, while the achievable set stays in the hundreds.  The grid node
count 2 P^4 * c_max is still reported, as the degree bound that scales
linearly in q.

The trace inequality p_1(M) <= Tr((D*D)^2) for unitary M, with equality at
M = U diag(phases) U*, is a theorem; kvn_certificate checks its premises and
two equality cases exactly (proof in its docstring).

p_1 is the packed Hermitian form of sepfun.MinorInvariant.
su_p1_cross_checked also reads it through the cofactors of Q M Q, which
equal conj(M) only on the group, and su_eps2_check runs that cross-check
on every pair it is given, so a non-group argument raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .groups import MatrixGroupOps
from .matrices import Mat, mat_det, mat_exp_trunc, mat_minor
from .scalars import GR_ZERO, GaussRational, QQ
from .sepfun import (
    Affine,
    DivEps,
    MinorInvariant,
    PolyApply,
    SepFunctionError,
    lagrange_indicator,
)
from .sepverify import (
    Eps2Report,
    SepReport,
    eps2_expansion_check,
    verify_indicator_border,
    verify_separating_border,
)
from .series import EpsLaurent
from .split import (
    LinearMatMap,
    SplitInputs,
    assemble_split,
    audit_p0_invariance,
    left_inverse_forms,
)
from .tpp import TppInstance, lattice_tuples, verify_tpp_series


class SuConstructionError(ValueError):
    pass


C_INTEGRALITY_NOTE = (
    "trace-deficit integrality: the constant 2*(n!)^2 does not clear the "
    "denominators of c (counterexample at n=4: c has denominator 41472 = "
    "2*(n!/(n/2)!)^4 > 2*(n!)^2 = 1152); the verified clearing constant is "
    "2*(n!/(n/2)!)^4"
)

ACHIEVABLE_NODE_NOTE = (
    "indicator nodes are the exact achievable trace-deficit values, not the "
    "full arithmetic grid (grid would have 2*(n!/(n/2)!)^4 * c_max ~ 10^8 "
    "nodes at n=4, q=2); the grid bound is reported as degree_bound_grid"
)


# ---------------------------------------------------------------------------
# Exact construction data
# ---------------------------------------------------------------------------

@dataclass
class SuConstruction:
    n: int
    w_mat: Mat                 # integer involution, U = w/sqrt(2)
    d0: list                   # diagonal entries of D0 (exact rationals)
    d_mat: Mat                 # D = (1/2) W D0 W^T, exact
    d_inv: Mat
    q_form: Mat                # diag(I, -I)
    s_basis: list              # real basis of S (pairs per above-diagonal slot)
    trace_dd2: QQ              # Tr((D*D)^2)
    weights: dict              # (i, j) -> (d_i^2 - d_j^2)^2 for i < j
    clear_constant: int        # 2 * (n!/(n/2)!)^4
    nominal_constant: int        # 2 * (n!)^2
    coord_slots: list          # (block offset, i, j) per complex coordinate
    gram: tuple                # c(delta) = x^T gram x / gram_den, integer rows
    gram_den: int

    @property
    def complex_dim(self) -> int:
        return len(self.coord_slots)


def su_build(n: int) -> SuConstruction:
    """Exact construction data; raises if any defining identity fails."""
    if n % 2 != 0 or n < 4:
        raise SuConstructionError("need even n >= 4")
    half = n // 2
    w = Mat.zeros(n, n)
    for i in range(half):
        w[i, i] = 1
        w[i, half + (half - 1 - i)] = 1
        w[half + i, half - 1 - i] = 1
        w[half + i, half + i] = -1
    d0 = [QQ(n - i) for i in range(half)] + [QQ(1, half + 1 + i) for i in range(half)]
    d_mat = _half_sandwich(w, d0)
    d_inv = _half_sandwich(w, [QQ(1) / v for v in d0])
    q_form = Mat.diag([1] * half + [-1] * half)

    # defining identities, all exact
    ident = Mat.identity(n).map(QQ)
    if d_mat.matmul(d_inv).map(QQ) != ident:
        raise SuConstructionError("D * D^-1 != I")
    if d_mat.transpose().matmul(q_form).matmul(d_mat).map(QQ) != q_form.map(QQ):
        raise SuConstructionError("D*QD != Q")
    if mat_det(d_mat.map(QQ)) != QQ(1):
        raise SuConstructionError("det D != 1")
    # U* Q U = [[0, J], [J, 0]] exactly, computed as (1/2) W Q W
    uqu = w.matmul(q_form).matmul(w).map(lambda x: QQ(x) / 2)
    expect = Mat.zeros(n, n, zero=QQ(0))
    for i in range(half):
        expect[i, half + (half - 1 - i)] = QQ(1)
        expect[half + i, half - 1 - i] = QQ(1)
    if uqu != expect:
        raise SuConstructionError("U*QU != [[0,J],[J,0]]")

    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            diff = d0[i] * d0[i] - d0[j] * d0[j]
            weights[(i, j)] = diff * diff
    p_const = math.factorial(n) // math.factorial(half)
    coord_slots = [(off, i, j) for off in (0, half)
                   for i in range(half) for j in range(i + 1, half)]
    s_basis = []
    for (off, i, j) in coord_slots:
        re_mat = Mat.zeros(n, n, zero=GR_ZERO)
        re_mat[off + i, off + j] = GaussRational(1)
        re_mat[off + j, off + i] = GaussRational(-1)
        im_mat = Mat.zeros(n, n, zero=GR_ZERO)
        im_mat[off + i, off + j] = GaussRational(0, 1)
        im_mat[off + j, off + i] = GaussRational(0, 1)
        s_basis.extend([re_mat, im_mat])
    gram, gram_den = _trace_deficit_gram(w, s_basis, weights)
    return SuConstruction(
        n=n, w_mat=w, d0=d0, d_mat=d_mat, d_inv=d_inv, q_form=q_form,
        s_basis=s_basis,
        trace_dd2=sum((v ** 4 for v in d0), QQ(0)),
        weights=weights,
        clear_constant=2 * p_const ** 4,
        nominal_constant=2 * math.factorial(n) ** 2,
        coord_slots=coord_slots,
        gram=gram,
        gram_den=gram_den,
    )


def _trace_deficit_gram(w: Mat, s_basis, weights):
    """(G, den): the Gram form of c over s_basis coordinates, G integral.

    b_k = W s_k W is 2C for the k-th basis element, so |2C[i,j]|^2 is
    sum_kl x_k x_l Re(b_k[i,j] conj(b_l[i,j])); den is the least common
    denominator of the rational Gram entries.
    """
    images = [w.matmul(s).matmul(w) for s in s_basis]
    rat = [[sum((wt * (bk[i, j] * bl[i, j].conjugate()).re
                 for (i, j), wt in weights.items()), QQ(0)) / 4
            for bl in images] for bk in images]
    den = math.lcm(*(g.denominator for row in rat for g in row))
    return tuple(tuple(int(g * den) for g in row) for row in rat), den


def _half_sandwich(w: Mat, diag_vals) -> Mat:
    """(1/2) * W * diag(vals) * W^T, exact."""
    n = w.rows
    out = Mat.zeros(n, n, zero=QQ(0))
    for i in range(n):
        for j in range(n):
            acc = QQ(0)
            for k in range(n):
                acc += QQ(w[i, k]) * diag_vals[k] * QQ(w[j, k])
            out[i, j] = acc / 2
    return out


# ---------------------------------------------------------------------------
# Invariants and the trace deficit
# ---------------------------------------------------------------------------

def su_p1_node(constr: SuConstruction) -> MinorInvariant:
    """The invariant p_1(M) = Tr(D* M* D* D M D) as an expression node."""
    return MinorInvariant(1, constr.d_mat, constr.q_form)


def su_trace_invariant(m: Mat, constr: SuConstruction):
    """p_1 on m."""
    return su_p1_node(constr).eval(m)


def su_p1_cross_checked(constr: SuConstruction, m: Mat):
    """p_1(m), cross-checked against p_1 read through the cofactors of Q m Q.

    On the group (m* Q m = Q, det m = 1), conj(m) is the cofactor matrix of
    Q m Q, so sum_ij (D m D)_ij (D cof(Q m Q) D)_ij equals p_1(m) (D is
    real); off the group the two generally differ, and a mismatch raises
    SepFunctionError.
    """
    value = su_trace_invariant(m, constr)
    n, d, q = constr.n, constr.d_mat, constr.q_form
    qmq = q.matmul(m).matmul(q)
    cof = Mat(n, n, [mat_minor(qmq, drop_rows=[i], drop_cols=[j]) * (-1) ** (i + j)
                     for i in range(n) for j in range(n)])
    dmd = d.matmul(m).matmul(d)
    via = None
    for x, y in zip(dmd.data, d.matmul(cof).matmul(d).data):
        via = x * y if via is None else via + x * y
    same = value.eq_on_window(via) if isinstance(value, EpsLaurent) else value == via
    if not same:
        raise SepFunctionError("dual-path conjugation mismatch: argument is not in the group")
    return value


def su_lattice_entries(q: int):
    """The Gaussian-integer box: a + ib with |a|, |b| <= ceil(sqrt(q)/2)."""
    m = 0
    while 4 * m * m < q:
        m += 1
    vals = [GaussRational(a, b) for a in range(-m, m + 1) for b in range(-m, m + 1)]
    return vals, m


def su_s_matrix(constr: SuConstruction, coords) -> Mat:
    """The S element with the given above-diagonal complex coordinates."""
    n = constr.n
    out = Mat.zeros(n, n, zero=GR_ZERO)
    for (off, i, j), c in zip(constr.coord_slots, coords):
        c = GaussRational.from_any(c)
        out[off + i, off + j] = c
        out[off + j, off + i] = -c.conjugate()
    return out


def su_y_lattice(constr: SuConstruction, q: int, cap: int | None = None, seed: int = 0):
    """S-lattice elements with entries in the q-box; (coords list, sampled)."""
    vals, _ = su_lattice_entries(q)
    return lattice_tuples(vals, constr.complex_dim, cap, seed)


def _scaled_coords(coord_lists):
    """(vectors, scale): each list's real coordinates times one common scale.

    The real coordinates of a complex coordinate list are the real and
    imaginary part of each entry, in s_basis order; scale is the least
    common denominator, so every vector is integral.
    """
    reals = []
    for coords in coord_lists:
        row = []
        for c in coords:
            c = GaussRational.from_any(c)
            row += (c.re, c.im)
        reals.append(row)
    scale = math.lcm(*(v.denominator for row in reals for v in row))
    return [[int(v * scale) for v in row] for row in reals], scale


def _gram_apply(gram, x):
    """G x for an integer vector x."""
    return [sum(g * v for g, v in zip(row, x) if v) for row in gram]


def _gram_value(gram, x) -> int:
    """x^T G x for an integer vector x."""
    return sum(v * gx for v, gx in zip(x, _gram_apply(gram, x)) if v)


def su_c_from_diff(constr: SuConstruction, diff: Mat) -> QQ:
    """c(delta) for diff = S(delta) in S, exact, from the Gram form.

    delta is read from the coord_slots of diff; a diff outside S (a wrong
    lower triangle, a nonzero diagonal or off-block entry, or a non-exact
    entry) raises SuConstructionError.
    """
    try:
        coords = [GaussRational.from_any(diff[off + i, off + j])
                  for (off, i, j) in constr.coord_slots]
        in_s = diff == su_s_matrix(constr, coords)
    except TypeError:
        in_s = False
    if not in_s:
        raise SuConstructionError("the difference is not an element of S")
    (x,), scale = _scaled_coords([coords])
    return QQ(_gram_value(constr.gram, x), constr.gram_den * scale * scale)


@dataclass
class CReport:
    c: QQ
    c_times_nominal_const: QQ        # 2 (n!)^2 c
    nominal_integral: bool
    c_times_clear_const: int       # 2 (n!/(n/2)!)^4 c, always integral
    is_zero: bool


def su_c_value(constr: SuConstruction, a: Mat, b: Mat) -> CReport:
    """Exact trace-deficit value for a lattice pair, with integrality audit.

    Non-integrality against the corrected clearing constant is a hard error
    (it would signal an arithmetic bug); the nominal 2 (n!)^2 constant is
    only reported, since it genuinely fails on most lattice pairs.
    """
    c = su_c_from_diff(constr, a - b)
    if c < 0:
        raise SuConstructionError("trace deficit must be nonnegative")
    scaled = c * constr.clear_constant
    if scaled.denominator != 1:
        raise SuConstructionError(
            f"arithmetic bug: {constr.clear_constant} * c not integral (c = {c})"
        )
    nominal_scaled = c * constr.nominal_constant
    return CReport(
        c=c,
        c_times_nominal_const=nominal_scaled,
        nominal_integral=nominal_scaled.denominator == 1,
        c_times_clear_const=int(scaled.numerator),
        is_zero=c == 0,
    )


def su_eps2_check(constr: SuConstruction, a: Mat, b: Mat) -> Eps2Report:
    """Exact eps^2 identity for p_1 on M = exp(eps a) exp(eps b)^-1, with
    p_1 cross-checked through the cofactor route (su_p1_cross_checked)."""
    return eps2_expansion_check(lambda m: su_p1_cross_checked(constr, m), a, b,
                                constr.trace_dd2, -su_c_from_diff(constr, a - b))


# ---------------------------------------------------------------------------
# The indicator polynomial p0
# ---------------------------------------------------------------------------

@dataclass
class SuP0Report:
    node_count: int
    deg_r: int
    deg_p0_tracked: int
    c_max: QQ
    degree_bound_grid: int         # corrected-quantum arithmetic-grid size - 1
    degree_bound_grid_nominal: int   # with the nominal 2 (n!)^2 quantum
    nodes_exhaustive: bool
    contract: SepReport | None
    deviations: list = field(default_factory=list)


def su_achievable_c_nodes(constr: SuConstruction, q: int,
                          diff_cap: int = 10 ** 6,
                          coords_for_sampling=None):
    """Achievable trace-deficit values over the difference lattice.

    Exhaustive when the difference lattice is small enough; otherwise the
    values realized by pairwise differences of the supplied coordinate sample.
    Either way each value is the Gram form x^T G x on an integer vector: every
    point of the lattice box, or a - b for sampled a, b as a^T G a + b^T G b
    - 2 a^T G b.
    """
    _, m = su_lattice_entries(q)
    gram = constr.gram
    real_dim = 2 * constr.complex_dim
    if (4 * m + 1) ** real_dim <= diff_cap:
        span = range(-2 * m, 2 * m + 1)
        nums = {_gram_value(gram, x) for x in itertools.product(span, repeat=real_dim)}
        scale = 1
        exhaustive = True
    else:
        if coords_for_sampling is None:
            raise SuConstructionError(
                "difference lattice too large; supply the coordinate sample"
            )
        vecs, scale = _scaled_coords(coords_for_sampling)
        images = [_gram_apply(gram, x) for x in vecs]
        quads = [sum(v * g for v, g in zip(x, gx)) for x, gx in zip(vecs, images)]
        nums = set()
        for a, qa in zip(vecs, quads):
            for gb, qb in zip(images, quads):
                nums.add(qa + qb - 2 * sum(v * g for v, g in zip(a, gb) if v))
        exhaustive = False
    den = constr.gram_den * scale * scale
    return [QQ(v, den) for v in sorted(nums)], exhaustive


def su_p0(constr: SuConstruction, q: int, check_pairs: int = 100, seed: int = 0,
          yfams=None, coords=None, node_cap: int = 200000):
    """(p0, report): the indicator of zero trace deficit over achievable values.

    p0(M) = r((Tr((D*D)^2) - p_1(M)) / eps^2), r vanishing on every nonzero
    achievable c and equal to 1 at 0.
    """
    if check_pairs < 0:
        raise ValueError(f"check_pairs must be at least 0 (got {check_pairs}); 0 skips the check")
    nodes, exhaustive = su_achievable_c_nodes(constr, q, coords_for_sampling=coords)
    if len(nodes) > node_cap:
        raise SuConstructionError(
            f"indicator node overflow: {len(nodes)} achievable values (cap {node_cap})"
        )
    if QQ(0) not in nodes:
        nodes = [QQ(0)] + nodes
    r_poly = lagrange_indicator(0, nodes)
    argument = DivEps(2, Affine(-1, constr.trace_dd2, su_p1_node(constr)))
    p0 = PolyApply(r_poly, argument)
    c_max = nodes[-1]
    contract = None
    if check_pairs and yfams is not None:
        contract = verify_indicator_border(p0, yfams, sample_budget=check_pairs, seed=seed)
    report = SuP0Report(
        node_count=len(nodes),
        deg_r=len(nodes) - 1,
        deg_p0_tracked=p0.degree,
        c_max=c_max,
        degree_bound_grid=int(math.ceil(c_max * constr.clear_constant)),
        degree_bound_grid_nominal=int(math.ceil(c_max * constr.nominal_constant)),
        nodes_exhaustive=exhaustive,
        contract=contract,
        deviations=[C_INTEGRALITY_NOTE, ACHIEVABLE_NODE_NOTE],
    )
    return p0, report


# ---------------------------------------------------------------------------
# Coordinate split (theta / psi) and end-to-end assembly
# ---------------------------------------------------------------------------

def su_theta_psi(constr: SuConstruction):
    """(fx, fz, px_forms, pz_forms, rank): the conjugated coordinate split.

    fx(a) = D^-1 tau(a) D and fz(b) = D tau(b) D^-1, where tau places the
    complex coordinates above the block diagonals with negated conjugates
    below (so the image lies in S).  The real-linear map theta(a, b) =
    fx(a) - fz(b) has trivial kernel; its exact left inverse yields the
    coordinate read-off forms.
    """
    d = constr.complex_dim
    us = []
    vs = []
    for s in range(d):
        coords = [GaussRational(0)] * d
        coords[s] = GaussRational(1)
        us.append(su_s_matrix(constr, coords))
        coords[s] = GaussRational(0, 1)
        vs.append(su_s_matrix(constr, coords))
    dmat, dinv = constr.d_mat, constr.d_inv
    fx = LinearMatMap([dinv.matmul(u).matmul(dmat) for u in us],
                      [dinv.matmul(v).matmul(dmat) for v in vs])
    fz = LinearMatMap([dmat.matmul(u).matmul(dinv) for u in us],
                      [dmat.matmul(v).matmul(dinv) for v in vs])
    px_forms, pz_forms, rank = left_inverse_forms(fx, fz)
    return fx, fz, px_forms, pz_forms, rank


@dataclass
class SuAssembleReport:
    verdict: str
    n: int
    q: int
    t: int
    order: int
    tpp: dict
    separating: dict
    degree_report: dict
    cardinalities: dict
    p0_report: SuP0Report
    deviations: list
    notes: list = field(default_factory=list)
    instance: object = None        # the assembled family instance (optional reuse)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "n": self.n,
            "q": self.q,
            "t": self.t,
            "order": self.order,
            "tpp": self.tpp,
            "separating": self.separating,
            "degrees": {k: str(v) for k, v in self.degree_report.items()},
            "cardinalities": self.cardinalities,
            "p0": {
                "nodes": self.p0_report.node_count,
                "deg_r": self.p0_report.deg_r,
                "deg_tracked": self.p0_report.deg_p0_tracked,
                "c_max": str(self.p0_report.c_max),
                "degree_bound_grid": self.p0_report.degree_bound_grid,
                "nodes_exhaustive": self.p0_report.nodes_exhaustive,
            },
            "deviations": self.deviations,
            "notes": self.notes,
        }


def su_assemble(n: int, q: int, sample_budget: int = 10 ** 4, seed: int = 0,
                order: int | None = None, t: int | None = None,
                y_cap: int = 128, p0_check_pairs: int = 64) -> SuAssembleReport:
    """End-to-end: build, split, and verify the TPP and border separation."""
    constr = su_build(n)
    coords, y_sampled = su_y_lattice(constr, q, cap=y_cap, seed=seed)
    fx, fz, px_forms, pz_forms, rank = su_theta_psi(constr)

    deg_r = (q - 1) * 2 * constr.complex_dim
    t_eff = t if t is not None else 1  # middle families are I + O(eps)
    order_eff = order if order is not None else t_eff + 2
    yfams = [mat_exp_trunc(su_s_matrix(constr, c), order_eff) for c in coords]

    p0, p0_report = su_p0(constr, q, check_pairs=p0_check_pairs, seed=seed,
                          yfams=yfams, coords=coords if y_sampled else None)

    inputs = SplitInputs(fx, fz, px_forms, pz_forms, p0, yfams, q)
    out = assemble_split(inputs, order=order_eff, t=t, seed=seed)
    invariance = audit_p0_invariance(p0, out.xfams, out.zfams)

    inst = TppInstance(MatrixGroupOps(n), out.xfams, out.yfams_reparam, out.zfams,
                       "family")
    total_tpp = (len(out.xfams) * len(out.yfams_reparam) * len(out.zfams)) ** 2
    tpp_rep = verify_tpp_series(
        inst, order=out.order,
        mode="sampled" if total_tpp > sample_budget else "auto",
        sample_budget=sample_budget, seed=seed,
    )
    sep_rep = verify_separating_border(out.sep_family, inst, order=out.order,
                                       sample_budget=sample_budget, seed=seed)

    verdict = "pass"
    for rep in (tpp_rep.verdict, sep_rep.verdict,
                p0_report.contract.verdict if p0_report.contract else "pass"):
        if rep == "fail":
            verdict = "fail"
            break
        if rep == "inconclusive":
            verdict = "inconclusive"

    d = constr.complex_dim
    report = SuAssembleReport(
        verdict=verdict,
        n=n, q=q, t=out.t, order=out.order,
        tpp=tpp_rep.to_json(),
        separating=sep_rep.to_json(),
        degree_report=out.degree_report,
        cardinalities={
            **out.cardinalities,
            "Y_target": q ** d,
            "Y_sampled": y_sampled,
            "theta_rank": rank,
        },
        p0_report=p0_report,
        deviations=list(p0_report.deviations),
        notes=list(out.notes) + [invariance],
        instance=inst,
    )
    if out.t == 1:
        report.deviations.append(
            "reparametrization skipped (t = 1): every middle family is "
            "I + O(eps), so no negative eps powers arise and the exponent "
            "guard t > deg r is unnecessary; forcing t = deg r + 1 would "
            "push the invariant deficit to eps^(2t), beyond any window of "
            "order t + 2"
        )
    return report


# ---------------------------------------------------------------------------
# The trace inequality, proved
# ---------------------------------------------------------------------------

KVN_PROOF = (
    "for Hermitian P = D*D and unitary M, p_1(M) = Tr(M* P M P) is the "
    "Frobenius inner product of M* P M and P; Cauchy-Schwarz with "
    "||M* P M||_F = ||P||_F bounds it by Tr(P^2), as von Neumann's trace "
    "inequality does; D = D* and Tr(P^2) = trace_dd2 = sum d_i^4 are checked "
    "exactly"
)

# Gaussian-rational unit phases of the planted equality case, cycled along
# the diagonal
KVN_PHASES = (GaussRational(QQ(3, 5), QQ(4, 5)), GaussRational(QQ(5, 13), QQ(-12, 13)),
              GaussRational(0, 1), GaussRational(-1))


@dataclass
class KvnCertificate:
    verdict: str
    identity_equality: bool
    planted_equality: bool
    failures: list                 # the premises or equality cases that fail

    def to_json(self):
        return {"verdict": self.verdict, "proof": KVN_PROOF,
                "identity_equality": self.identity_equality,
                "planted_equality": self.planted_equality}


def kvn_planted_unitary(constr: SuConstruction) -> Mat:
    """M = (1/2) W diag(phi) W^T = U diag(phi) U*, the KVN_PHASES cycled.

    Every |phi_i| = 1, so M is unitary; M commutes with P = U D0^2 U*, so
    M* P M = P and p_1(M) = Tr(P^2).
    """
    phases = [KVN_PHASES[i % len(KVN_PHASES)] for i in range(constr.n)]
    return _half_sandwich(constr.w_mat, phases)


def kvn_certificate(constr: SuConstruction, planted: Mat | None = None) -> KvnCertificate:
    """Exact certificate of p_1(M) = Tr(D* M* D* D M D) <= Tr((D*D)^2) for
    every unitary M, with its equality cases.

    Proof.  Let P = D*D, which is Hermitian.  When D = D*, cyclicity gives
    p_1(M) = Tr(M* P M P), the Frobenius inner product <M* P M, P>.  By
    Cauchy-Schwarz it is at most ||M* P M||_F ||P||_F, and ||M* P M||_F =
    ||P||_F for unitary M, so p_1(M) <= ||P||_F^2 = Tr(P^2).  Von Neumann's
    trace inequality gives the same bound.  The premises are exact checks:
    D = D*, and Tr(P^2) = trace_dd2 = sum d_i^4.  Equality must hold exactly
    at M = I and at the planted unitary M (kvn_planted_unitary by default),
    whose unitarity M* M = I is checked exactly too.
    """
    n = constr.n
    d = constr.d_mat
    ident = Mat.identity(n)
    failures = []
    if d != d.conj_transpose():
        failures.append("D is not Hermitian")
    p = d.conj_transpose().matmul(d)
    trace_p2 = sum((x * y for x, y in zip(p.data, p.transpose().data)), QQ(0))
    if not trace_p2 == constr.trace_dd2 == sum((v ** 4 for v in constr.d0), QQ(0)):
        failures.append("Tr(P^2), trace_dd2 and sum d_i^4 differ")
    identity_equality = su_trace_invariant(ident, constr) == constr.trace_dd2
    if not identity_equality:
        failures.append("p_1(I) != trace_dd2")
    m = kvn_planted_unitary(constr) if planted is None else planted
    unitary = m.conj_transpose().matmul(m) == ident
    if not unitary:
        failures.append("the planted M is not unitary")
    planted_equality = unitary and su_trace_invariant(m, constr) == constr.trace_dd2
    if unitary and not planted_equality:
        failures.append("p_1(M) != trace_dd2 at the planted M")
    return KvnCertificate("fail" if failures else "pass", identity_equality,
                          planted_equality, failures)
