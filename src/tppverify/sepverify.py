"""Verification of separating and border-separating function families.

The border verifier evaluates each member f_{x,z} at M = x' y^-1 y' z'^-1,
packed and reduced to lowest terms, and memoises M per index tuple and the
shared nodes' values per distinct M.  A tuple with y = y' is evaluated at
x' z'^-1, memoised by (x', z'), when every X', Y and Z' element is
I + eps A1 + O(eps^2) under one window edge h (tpp.unit_first_order_edge).
The gate makes this exact: y^-1 y is I on the window [0, h], every factor
and product of the chain has valuation >= 0 and the window edge h on every
entry, and a product's coefficients up to h depend only on its factors'
coefficients up to h; so the chain and x' z'^-1 agree entry for entry,
windows and effective valuations included, and reduce to the same lowest
terms.  Every gated element has a packed inverse, so the skipped y^-1 hides
no refusal.  Without the gate (a Y element known to a shorter window, a constant
term other than I) the chain can differ, and all four factors are kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .matrices import Mat, PackedSeriesMat, mat_exp_trunc, mat_inv_series
from .scalars import QQ, GaussRational, approx_eq
from .sepfun import EvalContext, PolyApply, Product, SepFunction
from .series import InsufficientOrderError
from .tpp import TppInstance, quotient_product_set, unit_first_order_edge


@dataclass
class SepReport:
    verdict: str                 # "pass" | "fail" | "inconclusive"
    checked: int = 0
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    order_used: int | None = None
    seed: int | None = None
    sampled: bool = False
    notes: list = field(default_factory=list)
    equal_pairs: int = 0
    unequal_pairs: int = 0

    MAX_RECORDED = 10

    def to_json(self):
        out = {"verdict": self.verdict, "checked": self.checked, "sampled": self.sampled}
        if self.failures:
            out["failures"] = self.failures[: self.MAX_RECORDED]
        if self.inconclusive:
            out["inconclusive"] = self.inconclusive[: self.MAX_RECORDED]
        if self.order_used is not None:
            out["order_used"] = self.order_used
        if self.seed is not None:
            out["seed"] = self.seed
        if self.notes:
            out["notes"] = self.notes
        return out

    def record(self, status: str, entry: dict):
        """File a 'fail' or 'inconclusive' outcome and update the verdict.

        A failure outranks an inconclusive outcome, which outranks a pass;
        an 'ok' outcome changes nothing.
        """
        if status == "fail":
            self.failures.append(entry)
            self.verdict = "fail"
        elif status == "inconclusive":
            self.inconclusive.append(entry)
            if self.verdict == "pass":
                self.verdict = "inconclusive"


def _eval_family_fn(fn, g, ctx=None):
    """A SepFunction reads a packed g as it is; a callable gets it boxed."""
    if isinstance(fn, SepFunction):
        return fn.eval(g, ctx or EvalContext())
    return fn(g.unpack() if isinstance(g, PackedSeriesMat) else g)


# Entries of the per-call memo of verify_separating_border (node values and
# interned arguments each); past it, values are computed and not kept.
MEMO_CAP = 1 << 14


def _shared_nodes(family) -> set:
    """ids of the nodes that more than one distinct parent reads.

    A member is walked through its Product nodes and its PolyApply nodes, the
    only nodes whose children all see the member's own argument and context.
    A member's root counts its family key as a parent.  A child read by one
    parent alone is evaluated once per value of that parent anyway, so only
    nodes with two or more parents (p0 and the coordinate indicators across
    members; a coordinate's form argument across the indicator values) are
    worth a memo entry.
    """
    parents = {}
    for key, fn in family.items():
        parents.setdefault(id(fn), set()).add(("member", key))
        seen = set()
        stack = [fn]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if type(node) is Product:
                children = node.children
            elif type(node) is PolyApply:
                children = [node.child]
            else:
                continue
            for child in children:
                parents.setdefault(id(child), set()).add(id(node))
                stack.append(child)
    return {node for node, ps in parents.items() if len(ps) > 1}


class _NodeMemo:
    """Values of shared nodes per (node, argument), for one verifier call.

    Arguments are interned by their exact key (PackedSeriesMat.key for the
    packed products): equal keys are equal entries, windows included, so a
    node's value at one is its value at the other.
    Values are handed out as they are and never mutated.
    """

    def __init__(self, shared, ctx):
        self.shared = shared
        self.ctx = ctx
        self.cap = MEMO_CAP
        self.mids = {}
        self.values = {}

    def intern(self, key):
        """A small int naming the argument with this key, or None once full."""
        mid = self.mids.get(key)
        if mid is None and len(self.mids) < self.cap:
            mid = self.mids[key] = len(self.mids)
        return mid

    def eval(self, node, m, mid):
        """node.eval(m, ctx), with shared nodes taken from the memo."""
        if id(node) in self.shared and mid is not None:
            key = (id(node), mid)
            v = self.values.get(key)
            if v is None:
                v = self._compute(node, m, mid)
                if len(self.values) < self.cap:
                    self.values[key] = v
            return v
        return self._compute(node, m, mid)

    def _compute(self, node, m, mid):
        """One node's value, its shared descendants taken from the memo.

        A Product folds its children's values; a PolyApply with a shared
        argument applies its polynomial to the argument's value.  These are
        the nodes' own evaluation rules.  Every other node evaluates itself.
        """
        if type(node) is Product:
            return Product.combine(self.eval(c, m, mid) for c in node.children)
        if type(node) is PolyApply and id(node.child) in self.shared:
            return node.poly(self.eval(node.child, m, mid))
        return node.eval(m, self.ctx)


def _require_family(family):
    """An empty family checks nothing, and would pass vacuously."""
    if not family:
        raise ValueError("the separating family is empty: nothing to verify")


def verify_separating(family, inst: TppInstance, tol: float | None = None) -> SepReport:
    """Exact-mode check: f_{x,z} is 1 at x z^-1 and 0 on the rest of the quotient.

    family maps (ix, iz) index pairs to SepFunctions or callables.  With tol
    set, values are compared numerically (for float-valued constructions);
    otherwise comparison is exact.
    """
    _require_family(family)
    quotient = quotient_product_set(inst)
    g = inst.group
    report = SepReport("pass")
    for (ix, iz), fn in family.items():
        if inst.mode == "table":
            key = g.mul(inst.x[ix], g.inv(inst.z[iz]))
        else:
            key = inst.element("x", ix).matmul(inst.inv_element("z", iz))
        for q_elt, provenance in quotient:
            expected = 1 if q_elt == key else 0
            val = _eval_family_fn(fn, q_elt)
            report.checked += 1
            if tol is None:
                ok = val == expected or val == GaussRational(expected)
            else:
                ok = approx_eq(val, expected, tol)
            if not ok:
                report.record("fail", {
                    "xz": (ix, iz),
                    "quotient_provenance": provenance[0],
                    "expected": expected,
                    "got": repr(val),
                })
    return report


def check_border_value(val, expected: int):
    """Classify one border evaluation: 'ok' | 'fail' | 'inconclusive'.

    The value must have no nonzero coefficient at negative exponents within
    its window (the lowest one is named) and constant term exactly
    `expected`.  A packed value is read by its numerators and unpacked only
    for the detail of a failing constant term; a boxed or exact value is
    packed first.
    """
    if not isinstance(val, PackedSeriesMat):
        val = PackedSeriesMat.scalar(val)
    _, hi, _, terms = val.entries[0]
    if terms and terms[0][0] < 0:
        return "fail", f"surviving negative power eps^{terms[0][0]}"
    if hi < 0:
        return "inconclusive", "constant term beyond valid window"
    den = val.den
    c0 = next(((re, im) for e, re, im in terms if e == 0), (0, 0))
    if c0 != (expected * den, 0):
        c = GaussRational.from_qq(QQ(c0[0], den), QQ(c0[1], den))
        return "fail", f"constant term {c!r} != {expected}"
    return "ok", None


def verify_separating_border(family, inst: TppInstance, order: int,
                             sample_budget: int = 10 ** 4, seed: int = 0,
                             ctx: EvalContext | None = None) -> SepReport:
    """Border-mode check over quotient tuples of a family instance.

    Tuples are (ix, iz, ix', iy, iy', iz'): f_{x,z} evaluated at
    x' y^-1 y' z'^-1 must be 1 + O(eps) exactly when (x', z') = (x, z) and
    y = y', and 0 + O(eps) otherwise.  When the full grid exceeds the budget
    a seeded sample is drawn, stratified so that expected-1 tuples (which
    form a vanishing fraction of the grid) are exercised too.
    """
    _require_family(family)
    if sample_budget < 1:
        raise ValueError(f"a sampled run needs a budget of at least 1 (got {sample_budget})")
    nx, ny, nz = inst.sizes()
    total = nx * nz * nx * ny * ny * nz
    report = SepReport("pass", order_used=order)
    pair_keys = sorted(family.keys())

    def tuples():
        if total <= sample_budget:
            for ix, iz in pair_keys:
                for ix2 in range(nx):
                    for iy in range(ny):
                        for iy2 in range(ny):
                            for iz2 in range(nz):
                                yield ix, iz, ix2, iy, iy2, iz2
            return
        rng = random.Random(seed)
        report.sampled = True
        report.seed = seed
        half = sample_budget // 2
        for i in range(sample_budget):
            ix, iz = pair_keys[rng.randrange(len(pair_keys))]
            if i < half:
                # positive stratum: the expected-1 diagonal
                iy = rng.randrange(ny)
                yield ix, iz, ix, iy, iy, iz
            else:
                yield (ix, iz, rng.randrange(nx), rng.randrange(ny),
                       rng.randrange(ny), rng.randrange(nz))

    # Members that share node objects (p0 and the coordinate indicators of an
    # assembled split family) evaluate each shared node once per distinct M.
    memo = _NodeMemo(_shared_nodes(family), ctx or EvalContext())
    # y^-1 y is I on the one window edge of unit-constant elements, so M for
    # y = y' is x' z'^-1 bit for bit once reduced (see the module docstring)
    y_cancels = unit_first_order_edge(inst, "xyz") is not None
    prod_cache = {}
    for ix, iz, ix2, iy, iy2, iz2 in tuples():
        if y_cancels and iy == iy2:
            key = (ix2, iz2)
            factors = (("x", ix2, False), ("z", iz2, True))
        else:
            key = (ix2, iy, iy2, iz2)
            factors = (("x", ix2, False), ("y", iy, True), ("y", iy2, False), ("z", iz2, True))
        cached = prod_cache.get(key)
        if cached is None:
            # M stays packed, in lowest terms: the tree reads its entries, and
            # the memo its key
            m = inst.product(factors).reduced()
            cached = m, memo.intern(m.lowest_terms_key())
            if len(prod_cache) < 4096:
                prod_cache[key] = cached
        m, mid = cached
        expected = 1 if (ix2 == ix and iz2 == iz and iy == iy2) else 0
        fn = family[(ix, iz)]
        try:
            val = (memo.eval(fn, m, mid) if isinstance(fn, SepFunction)
                   else _eval_family_fn(fn, m))
            status, detail = check_border_value(val, expected)
        except InsufficientOrderError as exc:
            status, detail = "inconclusive", str(exc)
        report.checked += 1
        report.record(status, {"tuple": (ix, iz, ix2, iy, iy2, iz2), "expected": expected,
                               "detail": detail})
    return report


def verify_indicator_border(fn, yfams, pairs=None, sample_budget: int = 2000,
                            seed: int = 0, ctx: EvalContext | None = None) -> SepReport:
    """Check fn = 1 + O(eps) at I and 0 + O(eps) on y^-1 y' for y != y'.

    Each y is packed once per call, and each inverse computed once on the
    packed kernel; each argument y^-1 y' is a packed product that is never
    unpacked.
    """
    n = len(yfams)
    report = SepReport("pass")
    if pairs is None:
        all_pairs = n * n
        if all_pairs <= sample_budget:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        else:
            # with no sampled pairs only the equal pairs below would be
            # checked, and a constant 1 would pass
            if sample_budget < 1:
                raise ValueError(
                    f"a sampled run needs a budget of at least 1 (got {sample_budget})")
            rng = random.Random(seed)
            report.sampled = True
            report.seed = seed
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample_budget)]
            pairs += [(i, i) for i in {rng.randrange(n) for _ in range(8)}]
    if not pairs:
        raise ValueError("no pair to check: the Y family list or the pair list is empty")
    invs = {}
    packed_ys = {}
    equal_pairs = 0
    unequal_pairs = 0
    for i, j in pairs:
        if i not in invs:
            invs[i] = PackedSeriesMat.pack(yfams[i]).inverse()
        if j not in packed_ys:
            packed_ys[j] = PackedSeriesMat.pack(yfams[j])
        m = invs[i].matmul(packed_ys[j])
        expected = 1 if i == j else 0
        if expected:
            equal_pairs += 1
        else:
            unequal_pairs += 1
        try:
            val = _eval_family_fn(fn, m, ctx)
            status, detail = check_border_value(val, expected)
        except InsufficientOrderError as exc:
            status, detail = "inconclusive", str(exc)
        report.checked += 1
        entry = {"pair": (i, j), "detail": detail}
        if status == "fail":
            entry["expected"] = expected
        report.record(status, entry)
    report.notes.append(f"pairs: {equal_pairs} equal, {unequal_pairs} unequal")
    report.equal_pairs = equal_pairs
    report.unequal_pairs = unequal_pairs
    return report


@dataclass
class Eps2Report:
    ok: bool
    coeff0_ok: bool
    coeff1_ok: bool
    coeff2_ok: bool
    expected_coeff2: object
    got_coeff2: object


def eps2_expansion_check(value_of, a: Mat, b: Mat, coeff0, expected2) -> Eps2Report:
    """Exact check of an invariant's expansion on M = exp(eps a) exp(eps b)^-1.

    value_of(M), with M known to eps^3, must be coeff0 + 0 eps +
    expected2 eps^2 + O(eps^3).
    """
    m = mat_exp_trunc(a, 3).matmul(mat_inv_series(mat_exp_trunc(b, 3)))
    val = value_of(m)
    c0_ok = val.coeff(0) == GaussRational(coeff0)
    c1_ok = val.coeff(1).is_zero()
    got2 = val.coeff(2)
    c2_ok = got2 == GaussRational(expected2)
    return Eps2Report(ok=c0_ok and c1_ok and c2_ok, coeff0_ok=c0_ok,
                      coeff1_ok=c1_ok, coeff2_ok=c2_ok,
                      expected_coeff2=expected2, got_coeff2=got2)
