"""Group-algebra embedding of matrix multiplication and its exact recovery.

Matrices A (|X| x |Y|) and B (|Y| x |Z|) embed into the group algebra as
    A_bar = sum A[x,y] (x y^-1),   B_bar = sum B[y,z] (y z^-1),
whose product decomposes as sum (AB)[x,z] (x z^-1) plus a residual supported
off X Z^-1.  Given representation matrices whose entries separate the
quotient set, every (AB)[x,z] is recovered exactly by a linear functional of
the per-representation products -- the verified-multiply path below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .matrices import Mat, solve_linear
from .scalars import CyclotomicField, GaussRational, is_zero_scalar
from .tpp import TppInstance, quotient_product_set


class EmbeddingError(ValueError):
    """The instance violated a precondition of the embedding pipeline."""


class SeparatingSolveError(ValueError):
    """The representative functions cannot separate the quotient set."""


class GroupAlgebraElement:
    """Finitely supported map from group element to coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for g, c in coeffs.items():
                if not is_zero_scalar(c):
                    self.coeffs[g] = c

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            s = out.get(g)
            s = c if s is None else s + c
            if is_zero_scalar(s):
                out.pop(g, None)
            else:
                out[g] = s
        return GroupAlgebraElement(out)

    def mul(self, other, group_mul):
        out = {}
        for g, a in self.coeffs.items():
            for h, b in other.coeffs.items():
                k = group_mul(g, h)
                p = a * b
                s = out.get(k)
                out[k] = p if s is None else s + p
        return GroupAlgebraElement(out)

    def coeff(self, g):
        return self.coeffs.get(g, 0)

    def support(self):
        return set(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.support() == other.support() and all(
            self.coeffs[g] == other.coeffs[g] for g in self.coeffs
        )

    def __repr__(self):
        return "GA(" + ", ".join(f"{g}:{c!r}" for g, c in sorted(self.coeffs.items())) + ")"


def _embed_bar(m: Mat, left, right, g) -> GroupAlgebraElement:
    """sum m[i, j] (left_i right_j^-1) in the group algebra."""
    coeffs = {}
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            key = g.mul(u, g.inv(v))
            s = coeffs.get(key)
            coeffs[key] = m[i, j] if s is None else s + m[i, j]
    return GroupAlgebraElement(coeffs)


@dataclass
class EmbedReport:
    matched: bool
    residual_support_size: int
    residual_ok: bool
    pairs_checked: int
    notes: list = field(default_factory=list)


def embed_group_algebra(a: Mat, b: Mat, inst: TppInstance):
    """Compute A_bar * B_bar and check its decomposition against A*B.

    Requires a table-mode instance whose TPP holds.  Raises EmbeddingError if
    two (x, z) pairs collide on the same x z^-1 (a TPP violation).
    """
    if inst.mode != "table":
        raise EmbeddingError("embedding demo runs on table-mode instances")
    nx, ny, nz = inst.sizes()
    if a.rows != nx or a.cols != ny or b.rows != ny or b.cols != nz:
        raise EmbeddingError("matrix shapes must be |X| x |Y| and |Y| x |Z|")
    g = inst.group
    a_bar = _embed_bar(a, inst.x, inst.y, g)
    b_bar = _embed_bar(b, inst.y, inst.z, g)
    prod = a_bar.mul(b_bar, g.mul)

    # x z^-1 must be collision-free across (x, z) pairs
    xz_keys = {}
    for i in range(nx):
        for k in range(nz):
            key = g.mul(inst.x[i], g.inv(inst.z[k]))
            if key in xz_keys:
                raise EmbeddingError(
                    f"TPP violation: pairs {xz_keys[key]} and {(i, k)} collide on x z^-1 = {key}"
                )
            xz_keys[key] = (i, k)

    ab = a.matmul(b)
    matched = True
    for key, (i, k) in xz_keys.items():
        if prod.coeff(key) != ab[i, k] and not (
            is_zero_scalar(ab[i, k]) and key not in prod.coeffs
        ):
            matched = False
            break

    # residual must be supported on the quotient set minus X Z^-1
    quotient_keys = {g_elt for g_elt, _ in quotient_product_set(inst)}
    residual_support = {
        key for key in prod.support() - set(xz_keys)
        if not is_zero_scalar(prod.coeff(key))
    }
    residual_ok = residual_support <= (quotient_keys - set(xz_keys))
    report = EmbedReport(
        matched=matched,
        residual_support_size=len(residual_support),
        residual_ok=residual_ok,
        pairs_checked=len(xz_keys),
    )
    return prod, report


# ---------------------------------------------------------------------------
# Representations and separating coefficients
# ---------------------------------------------------------------------------

@dataclass
class Representation:
    """An explicit matrix representation of a table group."""

    name: str
    dim: int
    matrices: list  # Mat per group element index

    def mat(self, g: int) -> Mat:
        return self.matrices[g]


def cyclic_characters(n: int, field_order: int | None = None):
    """All n one-dimensional characters of Z_n over Q(zeta_m), 4 | m option.

    field_order defaults to n (or lcm(n, 4) when Gaussian inputs must embed).
    """
    m = field_order or n
    if m % n != 0:
        raise ValueError("field order must be a multiple of n")
    f = CyclotomicField(m)
    reps = []
    step = m // n
    for k in range(n):
        mats = [Mat(1, 1, [f.zeta(step * k * g)]) for g in range(n)]
        reps.append(Representation(name=f"chi_{k}", dim=1, matrices=mats))
    return f, reps


def solve_sep_coefficients(reps, support, targets, field):
    """Exact coefficients expressing each target function over rep entries.

    reps: list of Representation; support: list of group elements;
    targets: dict key -> {group element -> value} (value coerced to field).
    Returns dict key -> list of Mat (one coefficient matrix per rep).
    Raises SeparatingSolveError when the linear system is infeasible.
    """
    support = list(support)
    cols = []            # (rep index, i, j)
    for r, rep in enumerate(reps):
        for i in range(rep.dim):
            for j in range(rep.dim):
                cols.append((r, i, j))
    a_rows = []
    for g in support:
        row = []
        for (r, i, j) in cols:
            row.append(field.coerce(reps[r].mat(g)[i, j]))
        a_rows.append(row)
    keys = list(targets)
    b_rows = []
    for g in support:
        b_rows.append([field.coerce(targets[key].get(g, 0)) for key in keys])
    sol, reason = solve_linear(a_rows, b_rows)
    if sol is None:
        raise SeparatingSolveError(f"representative functions do not separate: {reason}")
    out = {}
    for t, key in enumerate(keys):
        per_rep = []
        for r, rep in enumerate(reps):
            m = Mat.zeros(rep.dim, rep.dim, zero=field.zero)
            per_rep.append(m)
        for c, (r, i, j) in enumerate(cols):
            per_rep[r][i, j] = sol[c][t]
        out[key] = per_rep
    return out


def evaluate_rep_function(coeff_mats, reps, g, field):
    """f(g) = sum_rho <coeff(rho), rho(g)> with the plain bilinear pairing."""
    acc = field.zero
    for r, rep in enumerate(reps):
        m = rep.mat(g)
        cm = coeff_mats[r]
        for i in range(rep.dim):
            for j in range(rep.dim):
                c = cm[i, j]
                if not is_zero_scalar(c):
                    acc = acc + c * field.coerce(m[i, j])
    return acc


def _rho_bar(m: Mat, left, right, g, rep, field) -> Mat:
    """rho(sum m[i, j] (left_i right_j^-1)) = sum m[i, j] rho(left_i right_j^-1)."""
    out = Mat.zeros(rep.dim, rep.dim, zero=field.zero)
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            rm = rep.mat(g.mul(u, g.inv(v)))
            c = field.coerce(m[i, j])
            for p in range(rep.dim):
                for q in range(rep.dim):
                    out[p, q] = out[p, q] + c * field.coerce(rm[p, q])
    return out


@dataclass
class RealizeReport:
    verdict: str
    trials: int
    seed: int
    entries_checked: int
    separating_checked: bool
    notes: list = field(default_factory=list)


def realize_algorithm(inst: TppInstance, reps, field, sep_coeffs=None,
                      trials: int = 20, seed: int = 0, entry_range: int = 9):
    """Verified multiply: recover AB exactly through the representation route.

    For seeded random integer matrices A, B the pipeline computes
    rho_bar(A_bar) . rho_bar(B_bar) per representation and contracts with the
    separating coefficients; the result must equal AB entrywise, exactly.
    """
    if inst.mode != "table":
        raise EmbeddingError("realize_algorithm runs on table-mode instances")
    g = inst.group
    nx, ny, nz = inst.sizes()

    quotient = quotient_product_set(inst)
    support = [q for q, _ in quotient]

    if sep_coeffs is None:
        targets = {}
        for i in range(nx):
            for k in range(nz):
                key = g.mul(inst.x[i], g.inv(inst.z[k]))
                targets[(i, k)] = {key: 1}
        sep_coeffs = solve_sep_coefficients(reps, support, targets, field)

    # audit the separating property; name the offending quotient element
    for (i, k), mats in sep_coeffs.items():
        key = g.mul(inst.x[i], g.inv(inst.z[k]))
        for q in support:
            val = evaluate_rep_function(mats, reps, q, field)
            expect = field.one if q == key else field.zero
            if val != expect:
                raise SeparatingSolveError(
                    f"separating property violated at quotient element {q} "
                    f"for pair {(i, k)}: got {val!r}"
                )

    rng = random.Random(seed)
    entries = 0
    for _ in range(trials):
        a = Mat.from_rows([[GaussRational(rng.randint(-entry_range, entry_range))
                            for _ in range(ny)] for _ in range(nx)])
        b = Mat.from_rows([[GaussRational(rng.randint(-entry_range, entry_range))
                            for _ in range(nz)] for _ in range(ny)])
        ab = a.matmul(b)
        rho_a = [_rho_bar(a, inst.x, inst.y, g, rep, field) for rep in reps]
        rho_b = [_rho_bar(b, inst.y, inst.z, g, rep, field) for rep in reps]
        prods = [ra.matmul(rb) for ra, rb in zip(rho_a, rho_b)]
        for i in range(nx):
            for k in range(nz):
                mats = sep_coeffs[(i, k)]
                acc = field.zero
                for r, rep in enumerate(reps):
                    cm = mats[r]
                    pm = prods[r]
                    for p in range(rep.dim):
                        for q2 in range(rep.dim):
                            c = cm[p, q2]
                            if not is_zero_scalar(c):
                                acc = acc + c * pm[p, q2]
                entries += 1
                if acc != field.coerce(ab[i, k]):
                    return RealizeReport("fail", trials, seed, entries,
                                         separating_checked=True,
                                         notes=[f"mismatch at entry {(i, k)}"])
    return RealizeReport("pass", trials, seed, entries, separating_checked=True)
