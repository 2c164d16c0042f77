"""Triple/double product property verification over tables, matrices, families.

Verification is brute force by design: every claim a report makes is backed
by an enumerated (or seeded-sampled) set of tuples, and any failure carries a
witness that can be re-evaluated standalone.

For 1-parameter families the product of a non-all-equal tuple is certified
distinct from the identity by exhibiting a nonzero series coefficient within
the valid window (an analytic function with a nonzero truncated coefficient
is nonzero on a punctured neighborhood of 0).  If every known coefficient
vanishes the tuple is reported inconclusive, never silently passed.  Family
products are chains of packed series matrices (PackedSeriesMat): every
element and inverse is packed once per instance, and the product is
classified without unpacking it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .matrices import Mat, PackedSeriesMat, mat_inv_exact, mat_inv_series, mat_to_series
from .series import EpsLaurent

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
    notes: list = field(default_factory=list)

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
        if self.notes:
            out["notes"] = self.notes
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
        self._check_distinct()

    # -- load-time checks ---------------------------------------------------
    def _check_distinct(self):
        for name, lst in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if self.mode == "table":
                if len(set(lst)) != len(lst):
                    raise InstanceError(f"duplicate element in {name}")
            elif self.mode == "exact":
                keys = [m.key() for m in lst]
                if len(set(keys)) != len(keys):
                    raise InstanceError(f"duplicate element in {name}")
            else:
                for i in range(len(lst)):
                    for j in range(i + 1, len(lst)):
                        if _families_equal(lst[i], lst[j]):
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
        elt = {"x": self.x, "y": self.y, "z": self.z}[which][idx]
        if self.mode == "table":
            out = self.group.inv(elt)
        elif self.mode == "exact":
            out = mat_inv_exact(elt)
        else:
            out = mat_inv_series(mat_to_series(elt))
        self._inv_cache[key] = out
        return out

    def element(self, which: str, idx: int):
        return {"x": self.x, "y": self.y, "z": self.z}[which][idx]

    def packed_product(self, factors) -> PackedSeriesMat:
        """Family mode: the packed product of (which, idx, inverse) factors.

        Each element and inverse is packed once and memoized per instance;
        an inverse computed here is not kept in boxed form as well.
        """
        if self.mode != "family":
            raise InstanceError("packed products need a family instance")
        out = None
        for key in factors:
            p = self._packed.get(key)
            if p is None:
                which, idx, inverse = key
                m = self.element(which, idx)
                if inverse:
                    m = self._inv_cache.get((which, idx)) or mat_inv_series(mat_to_series(m))
                p = self._packed[key] = PackedSeriesMat.pack(m)
            out = p if out is None else out.matmul(p)
        return out

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


def _families_equal(a: Mat, b: Mat) -> bool:
    if a.rows != b.rows or a.cols != b.cols:
        return False
    for p, q in zip(a.data, b.data):
        sp = p if isinstance(p, EpsLaurent) else EpsLaurent.const(p)
        sq = q if isinstance(q, EpsLaurent) else EpsLaurent.const(q)
        if not sp.eq_on_window(sq):
            return False
    return True


def _tuple_space(sizes, exhaustive_cap, mode, sample_budget):
    total = 1
    for s in sizes:
        total *= s
    if mode == "exhaustive":
        return "exhaustive", total
    if mode == "sampled":
        return "sampled", min(sample_budget or 0, total) or sample_budget
    # auto
    if total <= exhaustive_cap:
        return "exhaustive", total
    return "sampled", sample_budget


def _iter_tuples(sizes, how, budget, seed):
    if how == "exhaustive":
        def gen():
            idx = [0] * len(sizes)
            while True:
                yield tuple(idx)
                for pos in range(len(sizes) - 1, -1, -1):
                    idx[pos] += 1
                    if idx[pos] < sizes[pos]:
                        break
                    idx[pos] = 0
                else:
                    return
        return gen()
    rng = random.Random(seed)

    def gen_sampled():
        for _ in range(budget):
            yield tuple(rng.randrange(s) for s in sizes)
    return gen_sampled()


# ---------------------------------------------------------------------------
# Exact-mode verification
# ---------------------------------------------------------------------------

def verify_tpp(inst: TppInstance, mode: str = "auto", sample_budget: int = 10 ** 5,
               seed: int = 0, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> TppReport:
    """Check x x'^-1 y y'^-1 z z'^-1 = 1 <=> x=x', y=y', z=z' over all tuples.

    Exact-element or table mode only; lexicographic iteration over the index
    tuple (ix, ix', iy, iy', iz, iz') makes failure witnesses reproducible.
    """
    if inst.mode == "family":
        raise InstanceError("use verify_tpp_series for family instances")
    if inst.mode == "exact" and any(
        isinstance(e, complex) or (isinstance(e, Mat) and any(isinstance(v, (float, complex)) for v in e.data))
        for lst in (inst.x, inst.y, inst.z) for e in lst
    ):
        raise InstanceError("float elements are forbidden in verify_tpp; "
                            "use the tolerance-tagged numeric variant")
    nx, ny, nz = inst.sizes()
    sizes = (nx, nx, ny, ny, nz, nz)
    how, budget = _tuple_space(sizes, exhaustive_cap, mode, sample_budget)
    checked = 0
    for ix, ix2, iy, iy2, iz, iz2 in _iter_tuples(sizes, how, budget, seed):
        checked += 1
        prod = _tpp_product(inst, ix, ix2, iy, iy2, iz, iz2)
        all_equal = ix == ix2 and iy == iy2 and iz == iz2
        if all_equal != inst.is_identity(prod):
            witness = TppWitness("tpp", (ix, ix2, iy, iy2, iz, iz2),
                                 "product is identity" if not all_equal else
                                 "all-equal tuple does not multiply to identity")
            return TppReport("fail", witness=witness, tuples_checked=checked,
                             seed=seed if how == "sampled" else None,
                             sampled=how == "sampled")
    return TppReport("pass", tuples_checked=checked,
                     seed=seed if how == "sampled" else None, sampled=how == "sampled")


def _tpp_product(inst, ix, ix2, iy, iy2, iz, iz2):
    if inst.mode == "family":
        return inst.packed_product((("x", ix, False), ("x", ix2, True),
                                    ("y", iy, False), ("y", iy2, True),
                                    ("z", iz, False), ("z", iz2, True)))
    x = inst.element("x", ix)
    y = inst.element("y", iy)
    z = inst.element("z", iz)
    xi = inst.inv_element("x", ix2)
    yi = inst.inv_element("y", iy2)
    zi = inst.inv_element("z", iz2)
    p = inst.mul(x, xi)
    p = inst.mul(p, y)
    p = inst.mul(p, yi)
    p = inst.mul(p, z)
    return inst.mul(p, zi)


def recheck_tpp_witness(inst: TppInstance, witness: TppWitness) -> bool:
    """Standalone re-evaluation of a witness; True if it reproduces a violation."""
    if witness.kind == "tpp":
        ix, ix2, iy, iy2, iz, iz2 = witness.indices
        prod = _tpp_product(inst, ix, ix2, iy, iy2, iz, iz2)
        all_equal = ix == ix2 and iy == iy2 and iz == iz2
        return all_equal != inst.is_identity(prod)
    ix, ix2, iz, iz2 = witness.indices
    prod = _dpp_product(inst, ix, ix2, iz, iz2)
    all_equal = ix == ix2 and iz == iz2
    return all_equal != inst.is_identity(prod)


def verify_dpp(x, z, group, mode_kind: str, mode: str = "auto",
               sample_budget: int = 10 ** 5, seed: int = 0) -> TppReport:
    """Check x^-1 x' z^-1 z' = 1 <=> x=x' and z=z' (double product property)."""
    inst = TppInstance(group, x, [_identity_for(group, mode_kind, x)], z, mode_kind)
    if mode_kind == "family":
        return _verify_dpp_series(inst, mode=mode, sample_budget=sample_budget, seed=seed)
    nx, _, nz = inst.sizes()
    sizes = (nx, nx, nz, nz)
    how, budget = _tuple_space(sizes, DEFAULT_EXHAUSTIVE_CAP, mode, sample_budget)
    checked = 0
    for ix, ix2, iz, iz2 in _iter_tuples(sizes, how, budget, seed):
        checked += 1
        prod = _dpp_product(inst, ix, ix2, iz, iz2)
        all_equal = ix == ix2 and iz == iz2
        if all_equal != inst.is_identity(prod):
            return TppReport("fail", witness=TppWitness("dpp", (ix, ix2, iz, iz2)),
                             tuples_checked=checked, sampled=how == "sampled",
                             seed=seed if how == "sampled" else None)
    return TppReport("pass", tuples_checked=checked, sampled=how == "sampled",
                     seed=seed if how == "sampled" else None)


def _identity_for(group, mode_kind, sample):
    if mode_kind == "table":
        return group.identity
    dim = sample[0].rows if sample else group.dim
    if mode_kind == "exact":
        return Mat.identity(dim)
    return Mat.identity(dim, one=EpsLaurent.const(1), zero=EpsLaurent.zero())


def _dpp_product(inst, ix, ix2, iz, iz2):
    if inst.mode == "family":
        return inst.packed_product((("x", ix, True), ("x", ix2, False),
                                    ("z", iz, True), ("z", iz2, False)))
    xinv = inst.inv_element("x", ix)
    x2 = inst.element("x", ix2)
    zinv = inst.inv_element("z", iz)
    z2 = inst.element("z", iz2)
    p = inst.mul(xinv, x2)
    p = inst.mul(p, zinv)
    return inst.mul(p, z2)


# ---------------------------------------------------------------------------
# Series-mode verification
# ---------------------------------------------------------------------------

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


def verify_tpp_series(inst: TppInstance, order: int, mode: str = "auto",
                      sample_budget: int = 10 ** 4, seed: int = 0) -> TppReport:
    """TPP check for 1-parameter families, certified up to the given order."""
    if inst.mode != "family":
        raise InstanceError("verify_tpp_series requires a family instance")
    nx, ny, nz = inst.sizes()
    sizes = (nx, nx, ny, ny, nz, nz)
    how, budget = _tuple_space(sizes, DEFAULT_EXHAUSTIVE_CAP, mode, sample_budget)
    checked = 0
    inconclusive = 0
    first_inconclusive = None
    min_order = order
    for ix, ix2, iy, iy2, iz, iz2 in _iter_tuples(sizes, how, budget, seed):
        checked += 1
        all_equal = ix == ix2 and iy == iy2 and iz == iz2
        prod = _tpp_product(inst, ix, ix2, iy, iy2, iz, iz2)
        deviates, used = _series_deviation(prod, order)
        min_order = min(min_order, used)
        if all_equal:
            if deviates:
                return TppReport("fail",
                                 witness=TppWitness("tpp", (ix, ix2, iy, iy2, iz, iz2),
                                                    "all-equal tuple deviates from identity"),
                                 order_used=used, tuples_checked=checked,
                                 sampled=how == "sampled",
                                 seed=seed if how == "sampled" else None)
        elif not deviates:
            inconclusive += 1
            if first_inconclusive is None:
                first_inconclusive = TppWitness("tpp", (ix, ix2, iy, iy2, iz, iz2),
                                                "no certified nonzero coefficient in window")
    if inconclusive:
        return TppReport("inconclusive", witness=first_inconclusive,
                         order_used=min_order, tuples_checked=checked,
                         inconclusive_count=inconclusive,
                         sampled=how == "sampled", seed=seed if how == "sampled" else None)
    return TppReport("pass", order_used=min_order, tuples_checked=checked,
                     sampled=how == "sampled", seed=seed if how == "sampled" else None)


def _verify_dpp_series(inst: TppInstance, mode: str = "auto",
                       sample_budget: int = 10 ** 4, seed: int = 0,
                       order: int | None = None) -> TppReport:
    nx, _, nz = inst.sizes()
    sizes = (nx, nx, nz, nz)
    how, budget = _tuple_space(sizes, DEFAULT_EXHAUSTIVE_CAP, mode, sample_budget)
    if order is None:
        his = [x.hi for m in inst.x + inst.z for x in m.data if isinstance(x, EpsLaurent)]
        order = min(his) if his else 0
    checked = 0
    inconclusive = 0
    first_inconclusive = None
    for ix, ix2, iz, iz2 in _iter_tuples(sizes, how, budget, seed):
        checked += 1
        all_equal = ix == ix2 and iz == iz2
        prod = _dpp_product(inst, ix, ix2, iz, iz2)
        deviates, used = _series_deviation(prod, order)
        if all_equal:
            if deviates:
                return TppReport("fail", witness=TppWitness("dpp", (ix, ix2, iz, iz2)),
                                 order_used=used, tuples_checked=checked,
                                 sampled=how == "sampled",
                                 seed=seed if how == "sampled" else None)
        elif not deviates:
            inconclusive += 1
            if first_inconclusive is None:
                first_inconclusive = TppWitness("dpp", (ix, ix2, iz, iz2))
    if inconclusive:
        return TppReport("inconclusive", witness=first_inconclusive, order_used=order,
                         tuples_checked=checked, inconclusive_count=inconclusive,
                         sampled=how == "sampled", seed=seed if how == "sampled" else None)
    return TppReport("pass", order_used=order, tuples_checked=checked,
                     sampled=how == "sampled", seed=seed if how == "sampled" else None)


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
    for ix in range(len(inst.x)):
        for iy in range(len(inst.y)):
            for iy2 in range(len(inst.y)):
                for iz in range(len(inst.z)):
                    x = inst.element("x", ix)
                    yi = inst.inv_element("y", iy)
                    y2 = inst.element("y", iy2)
                    zi = inst.inv_element("z", iz)
                    g = inst.mul(inst.mul(inst.mul(x, yi), y2), zi)
                    key = g if inst.mode == "table" else g.key()
                    if key not in seen:
                        seen[key] = (g, [])
                        ordered.append(key)
                    seen[key][1].append((ix, iy, iy2, iz))
    return [seen[k] for k in ordered]
