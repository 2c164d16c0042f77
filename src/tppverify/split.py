"""Generic assembly of border-separating families from a single invariant.

Given coordinate embeddings into the tangent spaces of two sets X, Z with
exact linear left-inverses, plus one indicator-style invariant p0 for the
middle set, assemble_split builds the finite exponential families

    X' = {exp(eps f_X(a)) : a in A^dX},   Z' = {exp(eps f_Z(b)) : b in B^dZ}

and the per-pair border-separating polynomials

    p_{x,z}(M) = p0'(M) * r_{a,b}((M - I)/eps),

where r_{a,b} is a product of Lagrange coordinate indicators composed with
the left-inverse forms, and p0' is p0 with eps replaced by eps^t.  The
forms are real-linear, so each coordinate is read as (form(M) - form(I))/eps
from M itself; (M - I)/eps is never built.  One indicator node per (form,
value) is shared by every pair that reads it.

The reparametrization exponent t is chosen minimally: t = deg(r) + 1 when
some middle family fails to be I + O(eps) (that is the case the exponent
guards against -- negative powers of eps contributed by r must not reach
p0's vanishing order), and t = 1 when every middle family has identity
constant term, where no negative powers arise at all.  Callers can force a
specific t to reproduce the failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import MatrixGroupOps
from .matrices import Mat, PackedSeriesMat, mat_exp_trunc, row_reduce
from .scalars import GaussRational, GR_ZERO
from .sepfun import (
    Affine,
    DivEps,
    LinearForm,
    MinorInvariant,
    PolyApply,
    Product,
    Reparam,
    SepFunction,
    lagrange_indicator,
)
from .series import EpsLaurent
from .tpp import lattice_tuples, verify_dpp


class SplitError(ValueError):
    pass


class LinearMatMap:
    """Real-linear map from complex coordinate vectors into exact matrices.

    map(c) = sum_s Re(c_s) * u_s + Im(c_s) * v_s.
    """

    def __init__(self, us, vs):
        if len(us) != len(vs):
            raise SplitError("need matching real/imaginary basis images")
        self.us = us
        self.vs = vs

    @property
    def dim(self) -> int:
        return len(self.us)

    @classmethod
    def complex_linear(cls, basis):
        """Complex-linear map from a matrix basis: v_s = i * u_s."""
        i = GaussRational(0, 1)
        return cls(list(basis), [b.map(lambda x: i * GaussRational.from_any(x)) for b in basis])

    def apply(self, coords) -> Mat:
        coords = [GaussRational.from_any(c) for c in coords]
        if len(coords) != self.dim:
            raise SplitError("coordinate dimension mismatch")
        n = self.us[0].rows
        out = Mat.zeros(n, self.us[0].cols, zero=GR_ZERO)
        for c, u, v in zip(coords, self.us, self.vs):
            if c.re != 0:
                out = out + u.map(lambda x: GaussRational(c.re) * GaussRational.from_any(x))
            if c.im != 0:
                out = out + v.map(lambda x: GaussRational(c.im) * GaussRational.from_any(x))
        return out


def _flatten_real(m: Mat):
    """Real flattening [Re entries..., Im entries...] of an exact matrix."""
    res = []
    ims = []
    for x in m.data:
        g = GaussRational.from_any(x)
        res.append(g.re)
        ims.append(g.im)
    return res + ims


def _forms_from_psi_rows(row_re, row_im, rows, cols):
    """Build the LinearForm reading one complex coordinate from psi rows."""
    n2 = rows * cols
    def mat_of(vals):
        return Mat(rows, cols, list(vals))
    return LinearForm(
        rr=mat_of(row_re[:n2]), ri=mat_of(row_re[n2:]),
        ir=mat_of(row_im[:n2]), ii=mat_of(row_im[n2:]),
    )


def left_inverse_forms(fx: LinearMatMap, fz: LinearMatMap):
    """Exact left inverse of theta(a, b) = fx(a) - fz(b), as forms.

    Returns (px_forms, pz_forms, rank): the forms reading the X and Z
    coordinates, and the certified rank of theta, whose columns are the
    real flattenings of fx's basis images and of fz's, negated.
    """
    theta_columns = []
    for sign, f in ((1, fx), (-1, fz)):
        for u, v in zip(f.us, f.vs):
            theta_columns.append([sign * x for x in _flatten_real(u)])
            theta_columns.append([sign * x for x in _flatten_real(v)])
    rows, cols, dx, dz = fx.us[0].rows, fx.us[0].cols, fx.dim, fz.dim
    ncols = len(theta_columns)
    # psi = (Theta^T Theta)^-1 Theta^T, exact over the rationals: one row
    # reduction of [Theta^T Theta | Theta^T]; Theta^T Theta has Theta's rank
    gram_rows = [[sum(a * b for a, b in zip(ci, cj)) for cj in theta_columns] + ci
                 for ci in theta_columns]
    reduced, pivots, _, _ = row_reduce(gram_rows, ncols)
    rank = len(pivots)
    if rank != ncols:
        raise SplitError(
            f"tangent spaces intersect: rank {rank} < {ncols} (left inverse impossible)"
        )
    psi_rows = [row[ncols:] for row in reduced]
    px_forms = [_forms_from_psi_rows(psi_rows[2 * s], psi_rows[2 * s + 1], rows, cols)
                for s in range(dx)]
    pz_forms = [_forms_from_psi_rows(psi_rows[2 * dx + 2 * s], psi_rows[2 * dx + 2 * s + 1],
                                     rows, cols)
                for s in range(dz)]
    return px_forms, pz_forms, rank


def disjoint_lie_split(basis_x, basis_z):
    """Coordinate maps and exact left-inverse forms for disjoint tangent bases.

    basis_x, basis_z: exact matrices spanning the two tangent spaces.  The
    concatenated real flattenings must be linearly independent; otherwise the
    spaces intersect and the split is impossible.
    """
    fx = LinearMatMap.complex_linear(basis_x)
    fz = LinearMatMap.complex_linear(basis_z)
    px_forms, pz_forms, _ = left_inverse_forms(fx, fz)
    return fx, fz, px_forms, pz_forms


@dataclass
class SplitInputs:
    fx: LinearMatMap
    fz: LinearMatMap
    px_forms: list
    pz_forms: list
    p0: SepFunction
    yfams: list
    q: int
    coord_set_a: list = None
    coord_set_b: list = None
    deg_px: int = 1
    deg_pz: int = 1

    def __post_init__(self):
        if self.coord_set_a is None:
            self.coord_set_a = list(range(self.q))
        if self.coord_set_b is None:
            self.coord_set_b = list(range(self.q))
        if len(self.coord_set_a) != self.q or len(self.coord_set_b) != self.q:
            raise SplitError("coordinate sets must have exactly q values")

    def check_left_inverse(self):
        """Prove psi . theta = I: every form reads its unit coordinate exactly.

        theta(a, b) = fX(a) - fZ(b) and the forms are real-linear, so psi .
        theta = I follows from its value on the 2(dX + dZ) real basis
        vectors: the images of 1 and i in every coordinate of fX and of -fZ.
        """
        forms = self.px_forms + self.pz_forms
        images = [m for pair in zip(self.fx.us, self.fx.vs) for m in pair]
        images += [-m for pair in zip(self.fz.us, self.fz.vs) for m in pair]
        for k, image in enumerate(images):
            want = [GR_ZERO] * len(forms)
            want[k // 2] = GaussRational(0, 1) if k % 2 else GaussRational(1)
            if [form.eval(image) for form in forms] != want:
                raise SplitError(
                    f"left-inverse check failed: p_X/p_Z do not invert theta on "
                    f"real basis vector {k}"
                )


def _p0_conjugator(p0: SepFunction) -> Mat:
    """D from p0 = PolyApply(r, DivEps(2, Affine(a, b, p_1 with D)))."""
    node = p0
    for kind in (PolyApply, DivEps, Affine):
        if type(node) is not kind or (kind is DivEps and node.k != 2):
            break
        node = node.child
    else:
        if type(node) is MinorInvariant:
            return node.d_mat
    raise SplitError("p0 invariance certificate needs p0 = r((b + a p_1(M)) / eps^2) "
                     "with p_1 a MinorInvariant node")


def _preserves(form: PackedSeriesMat, left: Mat, right: Mat) -> int:
    """The window edge h of an element, given with its conjugate transpose as
    left and right; refused unless left form right = form through eps^h."""
    lp, rp = PackedSeriesMat.pack(left), PackedSeriesMat.pack(right)
    if any(t and t[0][0] < 0 for _, _, _, t in lp.entries):
        raise SplitError("p0 invariance certificate: an element stores a negative eps power")
    h = min(hi for _, hi, _, _ in lp.entries)
    if h < 2:
        raise SplitError(f"p0 invariance certificate: window edge {h} < 2")
    prod = lp.matmul(form).matmul(rp)
    if any(hi < h for _, hi, _, _ in prod.entries) or not prod.truncate(h).eq_on_window(form):
        raise SplitError("p0 invariance certificate: an element does not preserve the form")
    return h


def audit_p0_invariance(p0: SepFunction, xfams, zfams) -> str:
    """Certify p0(x M z) = p0(M) on the window for every x in xfams, z in zfams.

    p0 must be r((b + a p_1(M)) / eps^2) with p_1(M) = Tr(D* M* D* D M D)
    = Tr(M* H M H'), H = D*D and H' = DD*; D is read from p0's own
    MinorInvariant node.  So p_1(x M z) = Tr(M* (x* H x) M (z H' z*)),
    and the certificate is x* H x = H and z H' z* = H', checked exactly on
    each element's window [0, h] with packed products.  The constant
    p0 = 1 (an empty Product) reads no entry of M and is invariant outright.
    Returns the certificate's report note; any failure raises SplitError.

    Window lemma.  If x* H x - H = O(eps^(h+1)), z H' z* - H' =
    O(eps^(h+1)) and M has no negative powers, then p_1(x M z) - p_1(M) =
    O(eps^(h+1)).  After DivEps(2) the argument of r is known through
    eps^(h-2) and changes only from eps^(h-1) on, so when h >= 2 its eps^0
    and negative coefficients, the ones check_border_value reads, are known
    and unchanged, and r, which reads only the known window, gives the same
    value on it.  Hence the refusals: an element with a stored negative
    power, or with h < 2.
    """
    if type(p0) is Product and not p0.children:
        return "p0 invariance certificate: p0 is the constant 1"
    d = _p0_conjugator(p0)
    d_star = d.conj_transpose()
    left = PackedSeriesMat.pack(d_star.matmul(d))
    right = PackedSeriesMat.pack(d.matmul(d_star))
    edge = min([_preserves(left, x.conj_transpose(), x) for x in xfams]
               + [_preserves(right, z, z.conj_transpose()) for z in zfams])
    return (f"p0 invariance certificate: x* (D*D) x = D*D on {len(xfams)} X', "
            f"z (DD*) z* = DD* on {len(zfams)} Z' (window edge {edge})")


@dataclass
class SplitOutput:
    xfams: list
    yfams_reparam: list
    zfams: list
    sep_family: dict            # (x index, z index) -> SepFunction
    a_tuples: list
    b_tuples: list
    t: int
    order: int
    degree_report: dict
    cardinalities: dict
    notes: list = field(default_factory=list)


def _family_has_identity_constant(fam: Mat) -> bool:
    p = PackedSeriesMat.pack(fam)
    return p.has_unit_constant() and not any(t and t[0][0] < 0 for _, _, _, t in p.entries)


def coordinate_indicators(values, forms):
    """Lagrange indicators of each form's coordinate of (M - I)/eps.

    Returns one {value: node} dict per form.  A LinearForm is real-linear,
    so form((M - I)/eps) = (form(M) - form(I))/eps: each node applies its
    indicator polynomial to DivEps(1, Affine(1, -form(I), form)), with form(I)
    an exact constant, and M itself is never shifted.  A node is shared by
    every pair that reads it, so the border verifier evaluates it once per
    argument.
    """
    polys = {v: lagrange_indicator(v, values) for v in values}
    out = []
    for form in forms:
        at_identity = form.eval(Mat.identity(form.rr.rows))
        argument = DivEps(1, Affine(1, -at_identity, form))
        out.append({v: PolyApply(polys[v], argument) for v in values})
    return out


# coordinate tuples per side past which assemble_split samples them, seeded
COORD_CAP = 4096


def assemble_split(inputs: SplitInputs, order: int | None = None,
                   t: int | None = None, seed: int = 0,
                   run_dpp_check: bool = True) -> SplitOutput:
    """Build X', Z', the reparametrized middle families, and all p_{x,z}."""
    inputs.check_left_inverse()
    dx, dz = inputs.fx.dim, inputs.fz.dim
    q = inputs.q

    deg_r = (q - 1) * (dx * inputs.deg_px + dz * inputs.deg_pz)
    identity_middle = all(_family_has_identity_constant(f) for f in inputs.yfams)
    if t is None:
        t = 1 if identity_middle else deg_r + 1
    if order is None:
        order = t + 2

    # coordinate tuples (seeded sample when the grid exceeds the cap)
    def coord_tuples(values, d):
        tuples, sampled = lattice_tuples(values, d, COORD_CAP, seed)
        return sorted(tuples, key=repr) if sampled else tuples

    a_tuples = coord_tuples(inputs.coord_set_a, dx)
    b_tuples = coord_tuples(inputs.coord_set_b, dz)
    if not a_tuples or not b_tuples:
        raise SplitError(f"no coordinate tuples to assemble (q = {q})")

    xfams = [mat_exp_trunc(inputs.fx.apply(a), order) for a in a_tuples]
    zfams = [mat_exp_trunc(inputs.fz.apply(b), order) for b in b_tuples]
    yfams_reparam = [f.map(lambda s: (s if isinstance(s, EpsLaurent) else EpsLaurent.const(s)).reparametrize(t))
                     for f in inputs.yfams]

    alphas = coordinate_indicators(inputs.coord_set_a, inputs.px_forms)
    betas = coordinate_indicators(inputs.coord_set_b, inputs.pz_forms)

    p0_part = Reparam(t, inputs.p0) if t > 1 else inputs.p0
    sep_family = {}
    deg_total = None
    for ai, a in enumerate(a_tuples):
        for bi, b in enumerate(b_tuples):
            r_ab = Product([alphas[s][a[s]] for s in range(dx)]
                           + [betas[s][b[s]] for s in range(dz)])
            p_xz = Product([p0_part, r_ab])
            sep_family[(ai, bi)] = p_xz
            if deg_total is None:
                deg_total = p_xz.degree
                deg_r_tracked = r_ab.degree

    degree_report = {
        "deg_p0": inputs.p0.degree,
        "deg_r": deg_r_tracked,
        "deg_r_bound": deg_r,
        "deg_total": deg_total,
    }
    if deg_total != inputs.p0.degree + deg_r_tracked:
        raise SplitError("degree bookkeeping violated: total != p0 + r")

    out = SplitOutput(
        xfams=xfams,
        yfams_reparam=yfams_reparam,
        zfams=zfams,
        sep_family=sep_family,
        a_tuples=a_tuples,
        b_tuples=b_tuples,
        t=t,
        order=order,
        degree_report=degree_report,
        cardinalities={
            "X": len(xfams), "Y": len(yfams_reparam), "Z": len(zfams),
            "X_target": q ** dx, "Z_target": q ** dz,
        },
    )
    if identity_middle and t == 1:
        out.notes.append(
            "middle families are I + O(eps); reparametrization skipped (t = 1)"
        )
    if run_dpp_check:
        n = xfams[0].rows
        dpp_budget = 2000
        dpp_mode = "auto" if (len(xfams) * len(zfams)) ** 2 <= dpp_budget else "sampled"
        dpp = verify_dpp(xfams, zfams, MatrixGroupOps(n), "family",
                         mode=dpp_mode, sample_budget=dpp_budget, seed=seed)
        if dpp.verdict != "pass":
            raise SplitError(f"assembled X', Z' fail the double product property: {dpp.verdict}")
        out.notes.append(f"DPP series check: pass ({dpp.tuples_checked} tuples)")
    return out
