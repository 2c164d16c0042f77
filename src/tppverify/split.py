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

import random
from dataclasses import dataclass, field

from .groups import MatrixGroupOps
from .matrices import Mat, PackedSeriesMat, mat_rank, mat_inv_exact, mat_exp_trunc
from .scalars import GaussRational, QQ, GR_ZERO
from .sepfun import (
    Affine,
    DivEps,
    LinearForm,
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
    theta_rows = [[col[r] for col in theta_columns] for r in range(len(theta_columns[0]))]
    rank = mat_rank(theta_rows)
    if rank != ncols:
        raise SplitError(
            f"tangent spaces intersect: rank {rank} < {ncols} (left inverse impossible)"
        )
    # psi = (Theta^T Theta)^-1 Theta^T, exact over the rationals
    gram = [[sum(a * b for a, b in zip(theta_columns[i], theta_columns[j]))
             for j in range(ncols)] for i in range(ncols)]
    gram_inv = mat_inv_exact(Mat.from_rows(gram))
    nreal = len(theta_columns[0])
    psi_rows = []
    for i in range(ncols):
        row = [QQ(0)] * nreal
        for j in range(ncols):
            gij = gram_inv[i, j]
            if gij != 0:
                col = theta_columns[j]
                for r in range(nreal):
                    if col[r] != 0:
                        row[r] += gij * col[r]
        psi_rows.append(row)
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

    def spot_check_inverses(self, trials: int = 50, seed: int = 0):
        """pX(fX(a) - fZ(b)) = a and pZ(...) = b on random exact coordinates."""
        rng = random.Random(seed)
        for _ in range(trials):
            a = [GaussRational(QQ(rng.randint(-9, 9), rng.randint(1, 4)),
                               QQ(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(self.fx.dim)]
            b = [GaussRational(QQ(rng.randint(-9, 9), rng.randint(1, 4)),
                               QQ(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(self.fz.dim)]
            v = self.fx.apply(a) - self.fz.apply(b)
            got_a = [form.eval(v) for form in self.px_forms]
            got_b = [form.eval(v) for form in self.pz_forms]
            if got_a != a or got_b != b:
                raise SplitError("left-inverse spot check failed: p_X/p_Z do not invert")


def audit_p0_invariance(p0: SepFunction, xfams, zfams, trials: int = 50,
                        seed: int = 0, entry_range: int = 3) -> int:
    """Randomized invariance audit: p0(x M z) = p0(M) exactly on the window.

    Samples random exact matrices M and family pairs (x, z); raises on the
    first violation, returns the number of checks performed.
    """
    rng = random.Random(seed)
    n = xfams[0].rows
    checked = 0
    for _ in range(trials):
        x = xfams[rng.randrange(len(xfams))]
        z = zfams[rng.randrange(len(zfams))]
        m = Mat.from_rows([[GaussRational(rng.randint(-entry_range, entry_range),
                                          rng.randint(-entry_range, entry_range))
                            for _ in range(n)] for _ in range(n)])
        m_series = m.map(lambda v: EpsLaurent.const(v))
        lhs = p0.eval(x.matmul(m_series).matmul(z))
        rhs = p0.eval(m_series)
        lhs_s = lhs if isinstance(lhs, EpsLaurent) else EpsLaurent.const(lhs)
        rhs_s = rhs if isinstance(rhs, EpsLaurent) else EpsLaurent.const(rhs)
        if not lhs_s.eq_on_window(rhs_s):
            raise SplitError(
                f"p0 invariance audit failed at trial {checked}: "
                f"p0(xMz) != p0(M) on the common window"
            )
        checked += 1
    return checked


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
    sampled_coords: bool
    seed: int | None
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


def assemble_split(inputs: SplitInputs, order: int | None = None,
                   t: int | None = None, coord_cap: int = 4096,
                   seed: int = 0, run_dpp_check: bool = True) -> SplitOutput:
    """Build X', Z', the reparametrized middle families, and all p_{x,z}."""
    inputs.spot_check_inverses(trials=20, seed=seed)
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
        tuples, sampled = lattice_tuples(values, d, coord_cap, seed)
        return (sorted(tuples, key=repr) if sampled else tuples), sampled

    a_tuples, sampled_a = coord_tuples(inputs.coord_set_a, dx)
    b_tuples, sampled_b = coord_tuples(inputs.coord_set_b, dz)
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
        sampled_coords=sampled_a or sampled_b,
        seed=seed if (sampled_a or sampled_b) else None,
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
