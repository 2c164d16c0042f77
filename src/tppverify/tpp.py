"""Triple/double product property verification over tables, matrices, families.

Verification is brute force by design: every claim a report makes is backed
by an enumerated (or seeded-sampled) set of tuples, and any failure carries a
witness that can be re-evaluated standalone.

Every TPP and DPP check runs through one tuple engine (_verify) with three
inputs: a tuple source (exhaustive in lexicographic order, or seeded
samples), a factor list per tuple (TppInstance.product), and a three-way
classifier of the product (proved identity, proved non-identity, unknown).

For 1-parameter families the product of a non-all-equal tuple is certified
distinct from the identity by exhibiting a nonzero series coefficient within
the valid window (an analytic function with a nonzero truncated coefficient
is nonzero on a punctured neighborhood of 0).  If every known coefficient
vanishes the tuple is reported inconclusive, never silently passed.  Family
products are chains of packed series matrices (PackedSeriesMat): every
element is packed and every inverse computed on the packed kernel once per
instance, and the product is classified without unpacking it.

First order.  When every element of the sets a check reads is
I + eps A1 + O(eps^2) -- constant term exactly I, no stored negative power,
and every entry's window ending at one edge h with 1 <= h < INF_ORDER
(unit_first_order_edge, read from the element facts) -- a tuple is first
tried without its product.  Every such element has a packed inverse
I - eps A1 + O(eps^2), so the eps^1 coefficient of x x'^-1 y y'^-1 z z'^-1
is (X1 - X1') + (Y1 - Y1') + (Z1 - Z1'), read from exact tables (for the DPP,
-X1 + X1' - Z1 + Z1').  A nonzero sum is the e = 1 deviation that
_series_deviation finds on the chain, at the window edge min(order, h): a
product of unit-constant factors keeps constant term I and valuation >= 0,
and each of its entries ends at its factors' smallest edge, since the term
with the diagonal entry 1 reaches exactly that edge and every other term
reaches at least as far.  A zero sum (every all-equal tuple, and collisions
such as Z' = X') falls back to the packed chain.

Zeroth order.  When some element a check reads has a constant term other
than I, and every element it reads stores no negative power, has every
entry edge >= max(order, 0), has a finite window on some entry or only eps^0
terms (so the chain cannot refuse its inverse) and has an invertible
constant term (its packed inverse, which the chain reuses, is formed first),
a tuple is first tried on the exact product of its factors' constant terms.
Lemma: with every valuation >= 0 and every edge >= order, that product is
the chain's eps^0 coefficient, and every chain entry's edge is at least the
smallest element edge (a product term's edge is at least its factors'
smaller one; an inverse is truncated to its element's smallest edge).  So a
product other than I is the deviation that _series_deviation flags with
used = order: the tuple is settled as (False, order) with no series product
or inverse, and reports are unchanged.  A product of I (every all-equal
tuple, and collisions) runs the packed chain.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass

from .matrices import Mat, PackedSeriesMat, mat_inv_exact
from .scalars import ExactArithmeticError
from .series import INF_ORDER, EpsLaurent, InsufficientOrderError

DEFAULT_EXHAUSTIVE_CAP = 10 ** 7


class InstanceError(ValueError):
    """A TPP instance violated a load-time contract."""


@dataclass
class TppWitness:
    kind: str                 # "tpp" or "dpp"
    indices: tuple            # (ix, ix2, iy, iy2, iz, iz2) or (ix, ix2, iz, iz2)
    detail: str = ""

    def to_json(self):
        return {"kind": self.kind, "indices": list(self.indices), "detail": self.detail}


@dataclass
class TppReport:
    verdict: str              # "pass" | "fail" | "inconclusive"
    witness: TppWitness | None = None
    order_used: int | None = None
    tuples_checked: int = 0
    seed: int | None = None
    sampled: bool = False
    inconclusive_count: int = 0

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "tuples_checked": self.tuples_checked,
            "sampled": self.sampled,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.order_used is not None:
            out["order_used"] = self.order_used
        if self.seed is not None:
            out["seed"] = self.seed
        if self.inconclusive_count:
            out["inconclusive_count"] = self.inconclusive_count
        return out


class TppInstance:
    """A group together with element lists X, Y, Z.

    mode is one of:
      - "table": group is a TableGroup, elements are indices
      - "exact": group is MatrixGroupOps, elements are exact matrices
      - "family": group is MatrixGroupOps, elements are matrices of series
    """

    def __init__(self, group, x, y, z, mode: str):
        if mode not in ("table", "exact", "family"):
            raise InstanceError(f"unknown mode {mode!r}")
        self.group = group
        self.x = list(x)
        self.y = list(y)
        self.z = list(z)
        self.mode = mode
        self._inv_cache = {}
        self._packed = {}
        self._facts = None
        self._check_elements()

    # -- load-time checks ---------------------------------------------------
    def _check_elements(self):
        for name, lst in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if self.mode == "table":
                order = self.group.order
                if any(type(g) is not int or not 0 <= g < order for g in lst):
                    raise InstanceError(
                        f"{name} holds an element that is not an index below the "
                        f"group order {order}")
                if len(set(lst)) != len(lst):
                    raise InstanceError(f"duplicate element in {name}")
                continue
            dim = self.group.dim
            for i, m in enumerate(lst):
                if (m.rows, m.cols) != (dim, dim):
                    raise InstanceError(f"{name.lower()}[{i}] is {m.rows}x{m.cols}, "
                                        f"but the group has dimension {dim}")
            if self.mode == "exact":
                keys = [m.key() for m in lst]
                if len(set(keys)) != len(keys):
                    raise InstanceError(f"duplicate element in {name}")
            else:
                packed = [self._packed_factor((name.lower(), i, False)) for i in range(len(lst))]
                for i in range(len(lst)):
                    for j in range(i + 1, len(lst)):
                        if packed[i].eq_on_window(packed[j]):
                            raise InstanceError(
                                f"duplicate family in {name}: indices {i} and {j} "
                                "agree on the entire valid window"
                            )

    # -- group operations ---------------------------------------------------
    def mul(self, a, b):
        if self.mode == "table":
            return self.group.mul(a, b)
        return a.matmul(b)

    def inv_element(self, which: str, idx: int):
        key = (which, idx)
        cached = self._inv_cache.get(key)
        if cached is not None:
            return cached
        elt = getattr(self, which)[idx]
        if self.mode == "table":
            out = self.group.inv(elt)
        elif self.mode == "exact":
            try:
                out = mat_inv_exact(elt)
            except ExactArithmeticError as exc:
                raise _no_inverse(which, idx, exc) from None
        else:
            out = self._packed_factor((which, idx, True)).unpack()
        self._inv_cache[key] = out
        return out

    def element(self, which: str, idx: int):
        """Element idx of X, Y or Z; which is "x", "y" or "z"."""
        return getattr(self, which)[idx]

    def product(self, factors, upto: int | None = None):
        """The product of (which, idx, inverse) factors, left to right.

        Family mode returns the packed chain: each element and inverse is
        packed once and memoized per instance, an inverse computed on the
        packed kernel and never unpacked.  With upto, each element is
        truncated at eps^upto and each inverse is the Neumann inverse of
        that truncation, which ends there too; both are memoized as well.
        Exact and table mode fold mul over element/inv_element.
        """
        out = None
        if self.mode != "family":
            for which, idx, inverse in factors:
                m = self.inv_element(which, idx) if inverse else self.element(which, idx)
                out = m if out is None else self.mul(out, m)
            return out
        for key in factors:
            p = self._packed_factor(key if upto is None else (*key, upto))
            out = p if out is None else out.matmul(p)
        return out

    def _packed_factor(self, key):
        """The packed element or inverse named by (which, idx, inverse), or by
        (which, idx, inverse, upto) for the element truncated at eps^upto and
        the inverse of that truncation; memoized."""
        p = self._packed.get(key)
        if p is None:
            which, idx, inverse, *upto = key
            if inverse:
                try:
                    p = self._packed_factor((which, idx, False, *upto)).inverse()
                except (ExactArithmeticError, InsufficientOrderError) as exc:
                    raise _no_inverse(which, idx, exc) from None
            elif upto:
                p = self._packed_factor((which, idx, False)).truncate(upto[0])
            else:
                p = PackedSeriesMat.pack(self.element(which, idx))
            self._packed[key] = p
        return p

    def element_facts(self, which: str) -> list:
        """ElementFacts of each family element of X, Y or Z, memoized."""
        if self._facts is None:
            self._facts = {w: [_element_facts(self._packed_factor((w, idx, False)))
                               for idx in range(len(getattr(self, w)))] for w in "xyz"}
        return self._facts[which]

    def is_identity(self, g) -> bool:
        if self.mode == "table":
            return g == self.group.identity
        n = g.rows
        ident = Mat.identity(n)
        if self.mode == "exact":
            return all(g[i, j] == ident[i, j] for i in range(n) for j in range(n))
        raise InstanceError("series identity test requires window-aware handling")

    def sizes(self):
        return len(self.x), len(self.y), len(self.z)


def _no_inverse(which, idx, exc) -> InstanceError:
    return InstanceError(f"{which}[{idx}] has no inverse: {exc}")


# Per family element, read in one scan (TppInstance.element_facts): constant
# term known and exactly I, a stored negative power, the smallest and largest
# entry window edge, and every stored term at eps^0.
ElementFacts = namedtuple("ElementFacts", "unit negative low high constant")


def _element_facts(p: PackedSeriesMat) -> ElementFacts:
    edges = [h for _, h, _, _ in p.entries]
    exponents = [e for _, _, _, t in p.entries for e, _, _ in t]
    return ElementFacts(p.has_unit_constant(), min(exponents, default=0) < 0,
                        min(edges), max(edges), not any(exponents))


# ---------------------------------------------------------------------------
# The tuple engine
# ---------------------------------------------------------------------------

# Factor templates (set, position in the index tuple, inverse).  A TPP tuple
# (ix, ix', iy, iy', iz, iz') multiplies x x'^-1 y y'^-1 z z'^-1; a DPP tuple
# (ix, ix', iz, iz') multiplies x^-1 x' z^-1 z'.
_FACTORS = {
    "tpp": (("x", 0, False), ("x", 1, True), ("y", 2, False), ("y", 3, True),
            ("z", 4, False), ("z", 5, True)),
    "dpp": (("x", 0, True), ("x", 1, False), ("z", 2, True), ("z", 3, False)),
}

# TPP witness details by (all_equal, family mode); DPP witnesses carry none.
_TPP_DETAIL = {
    (True, False): "all-equal tuple does not multiply to identity",
    (False, False): "product is identity",
    (True, True): "all-equal tuple deviates from identity",
    (False, True): "no certified nonzero coefficient in window",
}


def _factors(kind, tup):
    return [(which, tup[pos], inverse) for which, pos, inverse in _FACTORS[kind]]


def _tuple_space(sizes, exhaustive_cap, mode, sample_budget):
    total = math.prod(sizes)
    if total == 0:
        raise InstanceError("an empty element set leaves no tuple to verify")
    if mode == "exhaustive" or (mode != "sampled" and total <= exhaustive_cap):
        return "exhaustive", total
    if sample_budget < 1:
        raise ValueError(f"a sampled run needs a budget of at least 1 (got {sample_budget})")
    if mode == "sampled":
        return "sampled", min(sample_budget, total)
    return "sampled", sample_budget


def _iter_tuples(sizes, how, budget, seed):
    """Exhaustive runs go in lexicographic order, so witnesses are reproducible."""
    if how == "exhaustive":
        return itertools.product(*(range(s) for s in sizes))
    rng = random.Random(seed)
    return (tuple(rng.randrange(s) for s in sizes) for _ in range(budget))


def lattice_tuples(values, d: int, cap: int | None = None, seed: int = 0):
    """(tuples, sampled): every d-tuple over values when there are at most
    cap of them (or cap is None), else cap distinct seeded draws, sorted by
    their index tuples."""
    values = list(values)
    if cap is None or len(values) ** d <= cap:
        return list(itertools.product(values, repeat=d)), False
    rng = random.Random(seed)
    seen = set()
    while len(seen) < cap:
        seen.add(tuple(rng.randrange(len(values)) for _ in range(d)))
    return [tuple(values[i] for i in t) for t in sorted(seen)], True


def _classifier(inst: TppInstance, kind: str, order):
    """tup -> (is_identity, window edge), is_identity None when unknown.

    Exact and table products are decided by equality (_split_classifier).
    A family product is proved to differ from I by a nonzero coefficient in
    its window, and never proved equal to I: the coefficients beyond the
    window are unknown.  When every element the check reads is
    I + eps A1 + O(eps^2) under one window edge h, a nonzero first-order sum
    settles the tuple without its product, else a constant product other
    than I may; the rest run the packed chain.
    """
    if inst.mode != "family":
        return _split_classifier(inst, kind)

    def chain(tup):
        deviates, used = _series_deviation(inst.product(_factors(kind, tup)), order)
        return (False if deviates else None), used

    h = unit_first_order_edge(inst, {which for which, _, _ in _FACTORS[kind]})
    if h is None:
        return _constant_term_classifier(inst, kind, order, chain) or chain
    if order < 1:
        return chain
    edge = min(order, h)
    tables = _first_order_tables(inst, kind)

    def classify(tup):
        if sum(table[tup[pos]] for pos, table in tables):
            return False, edge
        return chain(tup)
    return classify


def unit_first_order_edge(inst: TppInstance, sets):
    """The one window edge h of the family elements of sets, or None.

    h is returned when every element of the named sets ("x", "y", "z") has
    constant term exactly I, stores no negative power, and has every entry's
    window end at the same h, with 1 <= h < INF_ORDER.  Such an element has
    a packed inverse, so a tuple settled without one hides no InstanceError.
    Read from the instance's element facts.
    """
    if inst.mode != "family":
        return None
    facts = [f for which in sets for f in inst.element_facts(which)]
    if not all(f.unit and not f.negative for f in facts):
        return None
    edges = {f.low for f in facts} | {f.high for f in facts}
    if len(edges) != 1:
        return None
    (h,) = edges
    return h if 1 <= h < INF_ORDER else None


# Bound on the products _split_classifier memoises per run
_SPLIT_MEMO = 1 << 14


def _split_classifier(inst: TppInstance, kind: str):
    """The exact and table classifier.  Factors f_1 ... f_k multiply to I
    exactly when the head f_1 ... f_(k-2) equals the inverse of the tail
    f_(k-1) f_k, which is f_k^-1 f_(k-1)^-1: the tail reversed, each inverse
    flag flipped.  Products are memoised, a product of more than two factors
    built from the product two factors shorter and the last pair's, so a
    tuple whose pairs were all seen costs at most one multiplication."""
    split = len(_FACTORS[kind]) - 2

    @functools.lru_cache(maxsize=_SPLIT_MEMO)
    def product(factors):
        if len(factors) > 1:
            cut = max(len(factors) - 2, 1)
            return inst.mul(product(factors[:cut]), product(factors[cut:]))
        which, idx, inverse = factors[0]
        return inst.inv_element(which, idx) if inverse else inst.element(which, idx)

    def classify(tup):
        factors = _factors(kind, tup)
        tail = tuple((which, idx, not inverse) for which, idx, inverse in reversed(factors[split:]))
        return product(tuple(factors[:split])) == product(tail), None
    return classify


def _constant_term_classifier(inst: TppInstance, kind: str, order, chain):
    """The zeroth-order classifier, or None when the gate fails.  A factor
    pair (a, a') is the block c0(a) c0(a')^-1 (c0(a)^-1 c0(a') for the DPP),
    built once per index pair, or I for equal indices or two unit constants.
    The head blocks' product is compared with the last block's inverse (its
    indices swapped) by the value of the eps^0 numerators."""
    sets = [which for which, _, _ in _FACTORS[kind][0::2]]
    facts = [f for which in sets for f in inst.element_facts(which)]
    if all(f.unit for f in facts) or not all(
            not f.negative and f.low >= max(order, 0) and (f.low < INF_ORDER or f.constant)
            for f in facts):
        return None
    try:
        # (c0, c0^-1) of each element, None for a constant term of exactly I:
        # the eps^0 terms of the packed element and of the chain's own inverse
        consts = {which: [None if f.unit else tuple(inst._packed_factor((which, i, inverse))
                                                    .truncate(0) for inverse in (False, True))
                          for i, f in enumerate(inst.element_facts(which))] for which in sets}
    except InstanceError:       # a singular constant term: the chain reports it
        return None
    first = int(_FACTORS[kind][0][2])     # 1: a pair's first element is inverted
    identity = (None, _product([PackedSeriesMat.identity(inst.group.dim)])[1])
    blocks = {}

    def block(which, i, j):
        if (which, i, j) not in blocks:
            ms = [] if i == j else [c[k] for c, k in ((consts[which][i], first),
                                                      (consts[which][j], 1 - first)) if c]
            blocks[which, i, j] = _product(ms) if ms else identity
        return blocks[which, i, j]

    def classify(tup):
        head = [block(which, tup[2 * p], tup[2 * p + 1]) for p, which in enumerate(sets[:-1])]
        head = [b for b in head if b[0] is not None] or [identity]
        lhs = head[0][1] if len(head) == 1 else _product([m for m, _ in head])[1]
        if lhs != block(sets[-1], tup[-1], tup[-2])[1]:
            return False, order
        return chain(tup)
    return classify


def _product(ms):
    """(product, value key) of packed matrices with eps^0 terms only; the key,
    the numerators in lowest terms, ignores how zero entries are stored."""
    out = ms[0]
    for m in ms[1:]:
        out = out.matmul(m)
    r = out.reduced()
    return out, (r.den, tuple(t for _, _, _, t in r.entries))


def _first_order_tables(inst: TppInstance, kind: str):
    """(position, table) per factor of kind: table[idx] encodes the eps^1
    coefficient of that element, negated for an inverse factor.

    An element I + eps A1 + O(eps^2) has inverse I - eps A1 + O(eps^2), so a
    tuple's first-order sum is the sum of its factors' table values.  The
    coefficients are numerators over one denominator D; the 2 n^2 real and
    imaginary numerators of a matrix are packed into one integer as digits
    in base 2^b, with 2^(b-1) above every |digit| a sum of len(factors)
    terms can reach.  Such a sum is zero exactly when every digit is zero,
    so it is zero exactly when the first-order sum is.
    """
    factors = _FACTORS[kind]
    elements = {which: [inst._packed_factor((which, idx, False))
                        for idx in range(len(getattr(inst, which)))]
                for which, _, _ in factors}
    den = math.lcm(*[p.den for ps in elements.values() for p in ps])

    def digits(p):
        scale, out = den // p.den, []
        for _, _, _, t in p.entries:
            re, im = next(((re, im) for e, re, im in t if e == 1), (0, 0))
            out += [int(re) * scale, int(im) * scale]
        return out

    rows = {which: [digits(p) for p in ps] for which, ps in elements.items()}
    top = max([abs(d) for rs in rows.values() for row in rs for d in row] + [1])
    b = (2 * len(factors) * top).bit_length()
    encoded = {which: [sum(d << (b * k) for k, d in enumerate(row)) for row in rs]
               for which, rs in rows.items()}
    return [(pos, [-v for v in encoded[which]] if inverse else encoded[which])
            for which, pos, inverse in factors]


def _verify(inst: TppInstance, kind: str, order, mode, sample_budget, seed,
            exhaustive_cap=DEFAULT_EXHAUSTIVE_CAP) -> TppReport:
    """The one tuple loop behind verify_tpp, verify_dpp and verify_tpp_series.

    A tuple fails when its product is proved to be I although some pair is
    unequal, or proved not to be I although every pair is equal.  An unequal
    tuple whose product is not proved to differ from I is inconclusive, never
    a pass; the first one is the witness.  In family mode order_used is the
    minimum of the requested order and every product's window edge.
    """
    if inst.mode == "exact" and any(
        isinstance(e, complex)
        or (isinstance(e, Mat) and any(isinstance(v, (float, complex)) for v in e.data))
        for lst in (inst.x, inst.y, inst.z) for e in lst
    ):
        raise InstanceError(f"float elements are refused by verify_{kind}: give "
                            "exact rationals (integers, 'p/q' strings or QQ)")
    sizes = tuple(len(getattr(inst, which)) for which, _, _ in _FACTORS[kind])
    how, budget = _tuple_space(sizes, exhaustive_cap, mode, sample_budget)
    sampled = how == "sampled"
    seed_used = seed if sampled else None
    family = inst.mode == "family"
    classify = _classifier(inst, kind, order)
    checked = inconclusive = 0
    first_inconclusive = None
    order_used = order
    for tup in _iter_tuples(sizes, how, budget, seed):
        checked += 1
        all_equal = tup[0::2] == tup[1::2]
        is_identity, used = classify(tup)
        if used is not None:
            order_used = min(order_used, used)
        if is_identity is None:
            if not all_equal:
                inconclusive += 1
                if first_inconclusive is None:
                    first_inconclusive = _witness(kind, tup, all_equal, family)
        elif is_identity != all_equal:
            return TppReport("fail", witness=_witness(kind, tup, all_equal, family),
                             order_used=used, tuples_checked=checked,
                             seed=seed_used, sampled=sampled)
    return TppReport("inconclusive" if inconclusive else "pass",
                     witness=first_inconclusive, order_used=order_used,
                     tuples_checked=checked, inconclusive_count=inconclusive,
                     seed=seed_used, sampled=sampled)


def _witness(kind, tup, all_equal, family):
    return TppWitness(kind, tup, _TPP_DETAIL[all_equal, family] if kind == "tpp" else "")


def _series_deviation(prod: PackedSeriesMat, order: int):
    """(certified_nonzero, usable_order) for prod - I on the valid window.

    A coefficient is compared in numerator form: the constant term of a
    diagonal entry is 1 exactly when its numerator is (den, 0).
    """
    cols = prod.cols
    min_hi = order
    deviates = False
    for idx, (_, hi, _, terms) in enumerate(prod.entries):
        if hi < min_hi:
            min_hi = hi
        if deviates:
            continue
        target = prod.den if idx // cols == idx % cols else 0
        c0 = (0, 0)
        for e, re, im in terms:
            if e == 0:
                c0 = (re, im)
            elif e <= order:
                deviates = True
        if hi >= 0 and c0 != (target, 0):
            deviates = True
    return deviates, min_hi


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def verify_tpp(inst: TppInstance, mode: str = "auto", sample_budget: int = 10 ** 5,
               seed: int = 0, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> TppReport:
    """Check x x'^-1 y y'^-1 z z'^-1 = 1 <=> x=x', y=y', z=z' over all tuples.

    Exact-element or table mode only; lexicographic iteration over the index
    tuple (ix, ix', iy, iy', iz, iz') makes failure witnesses reproducible.
    """
    if inst.mode == "family":
        raise InstanceError("use verify_tpp_series for family instances")
    return _verify(inst, "tpp", None, mode, sample_budget, seed, exhaustive_cap)


def verify_tpp_series(inst: TppInstance, order: int, mode: str = "auto",
                      sample_budget: int = 10 ** 4, seed: int = 0) -> TppReport:
    """TPP check for 1-parameter families, certified up to the given order."""
    if inst.mode != "family":
        raise InstanceError("verify_tpp_series requires a family instance")
    return _verify(inst, "tpp", order, mode, sample_budget, seed)


def verify_dpp(x, z, group, mode_kind: str, mode: str = "auto",
               sample_budget: int = 10 ** 5, seed: int = 0) -> TppReport:
    """Check x^-1 x' z^-1 z' = 1 <=> x=x' and z=z' (double product property).

    Families are certified up to the smallest window edge of their entries.
    """
    inst = TppInstance(group, x, [_identity_for(group, mode_kind, x)], z, mode_kind)
    order = None
    if mode_kind == "family":
        his = [s.hi for m in inst.x + inst.z for s in m.data if isinstance(s, EpsLaurent)]
        order = min(his) if his else 0
    return _verify(inst, "dpp", order, mode, sample_budget, seed)


def _identity_for(group, mode_kind, sample):
    if mode_kind == "table":
        return group.identity
    dim = sample[0].rows if sample else group.dim
    if mode_kind == "exact":
        return Mat.identity(dim)
    return Mat.identity(dim, one=EpsLaurent.const(1), zero=EpsLaurent.zero())


def recheck_tpp_witness(inst: TppInstance, witness: TppWitness) -> bool:
    """Standalone re-evaluation of a witness; True if it reproduces a violation."""
    tup = tuple(witness.indices)
    prod = inst.product(_factors(witness.kind, tup))
    return (tup[0::2] == tup[1::2]) != inst.is_identity(prod)


# ---------------------------------------------------------------------------
# Quotient sets
# ---------------------------------------------------------------------------

def quotient_product_set(inst: TppInstance):
    """Deduplicated {x y^-1 y' z^-1} with provenance lists of (ix, iy, iy', iz).

    Returns a list of (element, provenance) pairs in first-seen order.
    """
    if inst.mode == "family":
        raise InstanceError("quotient enumeration requires exact or table mode")
    seen = {}
    ordered = []
    nx, ny, nz = inst.sizes()
    for ix, iy, iy2, iz in itertools.product(range(nx), range(ny), range(ny), range(nz)):
        g = inst.product((("x", ix, False), ("y", iy, True), ("y", iy2, False), ("z", iz, True)))
        key = g if inst.mode == "table" else g.key()
        if key not in seen:
            seen[key] = (g, [])
            ordered.append(key)
        seen[key][1].append((ix, iy, iy2, iz))
    return [seen[k] for k in ordered]
