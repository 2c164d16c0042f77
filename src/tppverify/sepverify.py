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

Demand.  A verdict reads a value only up to eps^0: no negative power, and
a constant term of exactly 1 or 0.  The rules in the sepfun docstring
(Demand) carry that order down the tree: DivEps(k) adds k times the eps
scale, Reparam(t) multiplies the scale by t, a PolyApply reads its child
through max(order, 0) (sepfun.poly_child_order), and every other node
passes its order on to its children.  sepfun.demand gives, by the same
rules, the highest eps exponent D of the argument that eps^0 reads when no
value has a negative power, a node taking the maximum over its children.  p0
demands 2 (su and GL), each su coordinate indicator 1, so p_xz = p0 r_ab
demands 2.  Both border verifiers first evaluate every tuple at an
argument built from truncated factors, read through eps^0: each element
truncated at eps^D, and the Neumann inverse of that truncation, which ends
at eps^D too.  Read through eps^0, a coordinate indicator takes its Taylor
term t_0 alone, and a member's product p0 r_ab is the product of its
factors' constant terms.  They do so when every element stores no negative
power, has every window edge >= 0 and has a finite window on some entry or
only eps^0 terms (so the full inverse is never refused where the truncated
one is formed), and D (at least 0) is below some element's window edge.
Both take SepFunction members only, whose demand and degree the tree
states, and refuse any other member (SepFunctionError) before checking.

Lemma.  A truncated 'ok' is the outcome on the full windows.  The kernel's
stored coefficients are exact on their windows, every window rule is
monotone in its inputs' edges and effective valuations, and a value read
through an order has the full value's coefficients on its own window
(sepfun, Demand); so each value computed from truncated factors and read
through its node's order agrees with the full-window value on its own
window, which is no larger.  'ok' says that window reaches eps^0 with no
stored negative power and the exact constant term expected; the full
value then has the same coefficients up to eps^0, hi >= 0, and no
negative power either (one would lie in the truncated window).

Fallback.  Any other outcome ('fail', 'inconclusive', or an
InsufficientOrderError) re-evaluates that tuple on the full-window
argument at every order, and that outcome is recorded; SepReport.fallbacks
counts them.  So correctness never depends on D, which only sets the
speed, and reports are those of full-window evaluation (order_used stays
the requested order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .matrices import Mat, PackedSeriesMat, mat_exp_trunc, mat_inv_series
from .scalars import QQ, GaussRational
from .sepfun import (EvalContext, PolyApply, Product, SepFunction, SepFunctionError, demand,
                     poly_child_order)
from .series import INF_ORDER, InsufficientOrderError
from .tpp import TppInstance, _element_facts, quotient_product_set, unit_first_order_edge


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
    fallbacks: int = 0           # tuples re-evaluated on the full windows

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


# the contexts a border verifier reads a member through: eps^0 on the
# truncated windows, every order on the full ones
_READ = {0: EvalContext(order=0), None: EvalContext()}


def _require_sep_functions(fns):
    """Refuse a border member that is not a SepFunction tree."""
    for fn in fns:
        if not isinstance(fn, SepFunction):
            raise SepFunctionError("a border verifier takes SepFunction members, "
                                   f"not {type(fn).__name__}")


def _truncation(fns, facts):
    """The demand D at which to truncate every factor, or None for the full
    windows only (the gate is in the module docstring)."""
    if not all(not f.negative and f.low >= 0 and (f.low < INF_ORDER or f.constant)
               for f in facts):
        return None
    upto = max(0, demand(list(fns)))
    return upto if upto < max(f.high for f in facts) else None


def _first_ok(report, windows, argument, evaluate, expected: int):
    """The outcome of evaluate(argument(d), order) for each window d in turn,
    the truncated one first and read through eps^0, the full one at every
    order, until one is 'ok' (module docstring, Fallback).

    Only evaluation is caught: an unknown coefficient there is
    inconclusive.  Errors in forming an argument propagate, as they did
    before any truncation.
    """
    for n, d in enumerate(windows):
        if n:
            report.fallbacks += 1
        m = argument(d)
        try:
            status, detail = check_border_value(evaluate(m, None if d is None else 0),
                                                expected)
        except InsufficientOrderError as exc:
            status, detail = "inconclusive", str(exc)
        if status == "ok":
            break
    return status, detail


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
    worth a memo entry.  A node's children are the same for every member
    that reaches it, so each node is walked once per call.
    """
    parents = {}
    seen = set()
    for key, fn in family.items():
        parents.setdefault(id(fn), set()).add(("member", key))
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
    node's value at one is its value at the other.  Each value is kept with
    the order it was read through: it serves that order and every lower
    one, and a full-window value (order None) serves every order.
    Values are handed out as they are and never mutated.
    """

    def __init__(self, shared):
        self.shared = shared
        self.cap = MEMO_CAP
        self.mids = {}
        self.values = {}

    def intern(self, key):
        """A small int naming the argument with this key, or None once full."""
        mid = self.mids.get(key)
        if mid is None and len(self.mids) < self.cap:
            mid = self.mids[key] = len(self.mids)
        return mid

    def eval(self, node, m, mid, ctx):
        """node.eval(m, ctx), with shared nodes taken from the memo.

        A Product folds its children's values, and a PolyApply with a shared
        argument applies its polynomial to the argument's value, each read
        through ctx.order (the argument through poly_child_order): these are
        the nodes' own evaluation rules.  Every other node evaluates itself,
        a shared one at every order: whether a value read through an order
        lost a coefficient shows only inside its rules, so the full-window
        value is kept, and it serves the truncated windows and a fallback at
        the same argument alike.
        """
        if id(node) not in self.shared or mid is None:
            return self._compute(node, m, mid, ctx)
        order = ctx.order if self._applies_rule(node) else None
        key = (id(node), mid)
        kept = self.values.get(key)
        if kept is not None and (kept[0] is None or order is not None and kept[0] >= order):
            return kept[1]
        v = self._compute(node, m, mid, ctx if order == ctx.order else ctx.at(order))
        if kept is not None or len(self.values) < self.cap:
            self.values[key] = order, v
        return v

    def _applies_rule(self, node) -> bool:
        return type(node) is Product or type(node) is PolyApply and id(node.child) in self.shared

    def _compute(self, node, m, mid, ctx):
        """One node's value, its shared descendants taken from the memo."""
        if type(node) is Product:
            return Product.combine([self.eval(c, m, mid, ctx) for c in node.children],
                                   ctx.order)
        if type(node) is PolyApply and id(node.child) in self.shared:
            child = self.eval(node.child, m, mid, ctx.at(poly_child_order(ctx.order)))
            return node.poly.eval_series(child, ctx.order)
        return node.eval(m, ctx)


def _require_family(family):
    """An empty family checks nothing, and would pass vacuously."""
    if not family:
        raise ValueError("the separating family is empty: nothing to verify")


def verify_separating(family, inst: TppInstance) -> SepReport:
    """Exact-mode check: f_{x,z} is 1 at x z^-1 and 0 on the rest of the quotient.

    family maps (ix, iz) index pairs to SepFunctions or callables (this
    exact mode only: the border verifiers take SepFunctions); exact and
    table instances hold exact values, so every value is compared exactly.
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
            val = fn.eval(q_elt) if isinstance(fn, SepFunction) else fn(q_elt)
            report.checked += 1
            if not (val == expected or val == GaussRational(expected)):
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
                             sample_budget: int = 10 ** 4, seed: int = 0) -> SepReport:
    """Border-mode check over quotient tuples of a family instance.

    Tuples are (ix, iz, ix', iy, iy', iz'): f_{x,z} evaluated at
    x' y^-1 y' z'^-1 must be 1 + O(eps) exactly when (x', z') = (x, z) and
    y = y', and 0 + O(eps) otherwise.  When the full grid exceeds the budget
    a seeded sample is drawn, stratified so that expected-1 tuples (which
    form a vanishing fraction of the grid) are exercised too.
    """
    _require_family(family)
    _require_sep_functions(family.values())
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
    memo = _NodeMemo(_shared_nodes(family))
    # y^-1 y is I on the one window edge of unit-constant elements, so M for
    # y = y' is x' z'^-1 bit for bit once reduced (see the module docstring)
    y_cancels = unit_first_order_edge(inst, "xyz") is not None
    upto = None
    if inst.mode == "family":
        upto = _truncation(family.values(), [f for w in "xyz" for f in inst.element_facts(w)])
    windows = (None,) if upto is None else (upto, None)
    prod_cache = {}

    def argument(key, factors, d):
        """M and its memo id, from factors truncated at eps^d (None: full)."""
        cached = prod_cache.get((key, d))
        if cached is None:
            # M stays packed, in lowest terms: the tree reads its entries, and
            # the memo its key
            m = inst.product(factors, upto=d).reduced()
            cached = m, memo.intern(m.lowest_terms_key())
            if len(prod_cache) < 4096:
                prod_cache[key, d] = cached
        return cached

    for ix, iz, ix2, iy, iy2, iz2 in tuples():
        if y_cancels and iy == iy2:
            key = (ix2, iz2)
            factors = (("x", ix2, False), ("z", iz2, True))
        else:
            key = (ix2, iy, iy2, iz2)
            factors = (("x", ix2, False), ("y", iy, True), ("y", iy2, False), ("z", iz2, True))
        expected = 1 if (ix2 == ix and iz2 == iz and iy == iy2) else 0
        fn = family[(ix, iz)]
        status, detail = _first_ok(
            report, windows, lambda d: argument(key, factors, d),
            lambda m_mid, order: memo.eval(fn, *m_mid, _READ[order]), expected)
        report.checked += 1
        report.record(status, {"tuple": (ix, iz, ix2, iy, iy2, iz2), "expected": expected,
                               "detail": detail})
    return report


def verify_indicator_border(fn, yfams, pairs=None, sample_budget: int = 2000,
                            seed: int = 0) -> SepReport:
    """Check fn = 1 + O(eps) at I and 0 + O(eps) on y^-1 y' for y != y'.

    Each y is packed once per call, and each inverse computed once on the
    packed kernel, for y truncated at fn's demand and, on a fallback, for y
    itself (module docstring); each argument y^-1 y' is a packed product
    that is never unpacked.
    """
    _require_sep_functions([fn])
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
    packed = {k: PackedSeriesMat.pack(yfams[k]) for k in sorted({k for p in pairs for k in p})}
    upto = _truncation([fn], [_element_facts(p) for p in packed.values()])
    windows = (None,) if upto is None else (upto, None)
    factors = {}

    def factor(k, inverse, d):
        """y_k or its inverse, truncated at eps^d (None: full), memoised."""
        key = (k, inverse, d)
        p = factors.get(key)
        if p is None:
            if inverse:
                p = factor(k, False, d).inverse()
            else:
                p = packed[k] if d is None else packed[k].truncate(d)
            factors[key] = p
        return p

    equal_pairs = 0
    unequal_pairs = 0
    for i, j in pairs:
        expected = 1 if i == j else 0
        if expected:
            equal_pairs += 1
        else:
            unequal_pairs += 1
        status, detail = _first_ok(
            report, windows, lambda d: factor(i, True, d).matmul(factor(j, False, d)),
            lambda m, order: fn.eval(m, _READ[order]), expected)
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
    expected_coeff2: object


def eps2_expansion_check(value_of, a: Mat, b: Mat, coeff0, expected2) -> Eps2Report:
    """Exact check of an invariant's expansion on M = exp(eps a) exp(eps b)^-1.

    value_of(M), with M known to eps^3, must be coeff0 + 0 eps +
    expected2 eps^2 + O(eps^3).
    """
    m = mat_exp_trunc(a, 3).matmul(mat_inv_series(mat_exp_trunc(b, 3)))
    val = value_of(m)
    ok = (val.coeff(0) == GaussRational(coeff0) and val.coeff(1).is_zero()
          and val.coeff(2) == GaussRational(expected2))
    return Eps2Report(ok=ok, expected_coeff2=expected2)
