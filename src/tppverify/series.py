"""Truncated Laurent series in a real parameter eps with exact coefficients.

An EpsLaurent tracks a validity window [lo, hi]: coefficients below lo are
known to be exactly zero, coefficients in [lo, hi] are stored exactly, and
coefficients above hi are *unknown* -- never assumed zero.  Every operation
narrows the window conservatively; asking for a coefficient beyond the window
raises InsufficientOrderError rather than fabricating a zero.

The parameter is treated as real, so conjugation acts coefficientwise.
"""

from __future__ import annotations

from .scalars import GaussRational, GR_ONE, GR_ZERO, as_qq

# Window bound used for exactly-known values (exact scalars lifted to series).
INF_ORDER = 10 ** 9


class InsufficientOrderError(ArithmeticError):
    """A computation needed a series coefficient beyond the valid window."""


def _sat_add(a: int, b: int) -> int:
    """Window-edge addition saturating at the unlimited-window sentinel."""
    if a >= INF_ORDER or b >= INF_ORDER:
        return INF_ORDER
    return a + b


def _coerce_coeff(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    return GaussRational(as_qq(x))


class EpsLaurent:
    """Truncated Laurent series sum_k c_k eps^k with GaussRational c_k."""

    __slots__ = ("coeffs", "lo", "hi")

    def __init__(self, coeffs=None, lo=0, hi=INF_ORDER):
        if lo > hi:
            raise InsufficientOrderError("insufficient truncation order: empty window")
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coerce_coeff(c)
                if not c.is_zero():
                    if e < lo or e > hi:
                        raise ValueError(f"coefficient at eps^{e} outside window [{lo},{hi}]")
                    cc[e] = c
        self.coeffs = cc
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, x) -> "EpsLaurent":
        """An exactly-known constant (window unlimited)."""
        c = _coerce_coeff(x)
        return cls({0: c} if not c.is_zero() else {}, lo=0, hi=INF_ORDER)

    @classmethod
    def eps(cls, power: int = 1) -> "EpsLaurent":
        return cls({power: GR_ONE}, lo=power, hi=INF_ORDER)

    @classmethod
    def zero(cls) -> "EpsLaurent":
        return cls({}, lo=0, hi=INF_ORDER)

    # -- queries -----------------------------------------------------------
    def coeff(self, k: int) -> GaussRational:
        """Coefficient at eps^k; raises if k is beyond the valid window."""
        if k > self.hi:
            raise InsufficientOrderError(
                f"coefficient at eps^{k} unknown (window [{self.lo},{self.hi}])"
            )
        return self.coeffs.get(k, GR_ZERO)

    def constant_term(self) -> GaussRational:
        return self.coeff(0)

    def known(self, k: int) -> bool:
        return k <= self.hi

    def valuation(self):
        """Smallest exponent with a nonzero stored coefficient, or None."""
        return min(self.coeffs) if self.coeffs else None

    def is_certified_nonzero(self) -> bool:
        return bool(self.coeffs)

    def is_zero_on_window(self) -> bool:
        return not self.coeffs

    def eq_on_window(self, other: "EpsLaurent") -> bool:
        """Exact equality of all coefficients on the intersected window."""
        other = _coerce_series(other)
        hi = min(self.hi, other.hi)
        for e in set(self.coeffs) | set(other.coeffs):
            if e > hi:
                continue
            if self.coeffs.get(e, GR_ZERO) != other.coeffs.get(e, GR_ZERO):
                return False
        return True

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        cc = {e: c for e, c in out.items() if e <= hi and not c.is_zero()}
        return EpsLaurent(cc, lo, hi)

    __radd__ = __add__

    def __neg__(self):
        r = EpsLaurent.zero()
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        r.lo, r.hi = self.lo, self.hi
        return r

    def __sub__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def _eff_lo(self) -> int:
        """Tightest sound lower window edge (true valuation when nonzero)."""
        return min(self.coeffs) if self.coeffs else self.hi

    def __mul__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        a1, a2 = self._eff_lo(), other._eff_lo()
        lo = _sat_add(a1, a2)
        hi = min(_sat_add(a1, other.hi), _sat_add(a2, self.hi))
        if lo > hi:
            raise InsufficientOrderError("insufficient truncation order: empty product window")
        out = {}
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e > hi:
                    continue
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        cc = {e: c for e, c in out.items() if not c.is_zero()}
        r = EpsLaurent.zero()
        r.coeffs, r.lo, r.hi = cc, lo, hi
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = EpsLaurent.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "EpsLaurent":
        """Multiplicative inverse; needs a nonzero lowest-order coefficient."""
        v = self.valuation()
        if v is None:
            raise InsufficientOrderError("cannot invert a series that is zero on its window")
        lead = self.coeffs[v]
        # self = lead * eps^v * (1 + u), with u of valuation >= 1 known on [1, hi - v]
        inv_lead = lead.inverse()
        u = {e - v: c * inv_lead for e, c in self.coeffs.items() if e != v}
        if u and self.hi >= INF_ORDER:
            raise InsufficientOrderError(
                "inverse of a non-monomial series with unlimited window is an "
                "infinite series; truncate() first"
            )
        width = min(self.hi, INF_ORDER) - v
        # geometric series sum (-u)^k, truncated at eps^width
        acc = {0: GR_ONE}
        term = {0: GR_ONE}
        for _ in range(width if u else 0):
            nxt = {}
            for e1, c1 in term.items():
                for e2, c2 in u.items():
                    e = e1 + e2
                    if e > width:
                        continue
                    p = c1 * c2
                    s = nxt.get(e)
                    nxt[e] = p if s is None else s + p
            term = {e: -c for e, c in nxt.items() if not c.is_zero()}
            if not term:
                break
            for e, c in term.items():
                s = acc.get(e)
                acc[e] = c if s is None else s + c
        out = {}
        for e, c in acc.items():
            c2 = c * inv_lead
            if not c2.is_zero():
                out[e - v] = c2
        r = EpsLaurent.zero()
        r.coeffs = out
        r.lo = -v
        r.hi = INF_ORDER if self.hi >= INF_ORDER else self.hi - 2 * v
        if r.lo > r.hi:
            raise InsufficientOrderError("insufficient truncation order for inverse")
        return r

    def shift(self, k: int) -> "EpsLaurent":
        """Multiply by eps^k (k may be negative: divide by eps^{-k})."""
        r = EpsLaurent.zero()
        r.coeffs = {e + k: c for e, c in self.coeffs.items()}
        r.lo, r.hi = self.lo + k, self.hi + k if self.hi < INF_ORDER else INF_ORDER
        return r

    def reparametrize(self, t: int) -> "EpsLaurent":
        """Substitute eps -> eps^t (t >= 1)."""
        if t == 1:
            return self
        if t < 1:
            raise ValueError("reparametrization exponent must be >= 1")
        r = EpsLaurent.zero()
        r.coeffs = {e * t: c for e, c in self.coeffs.items()}
        r.lo = self.lo * t
        r.hi = self.hi * t + (t - 1) if self.hi < INF_ORDER else INF_ORDER
        return r

    def truncate(self, hi: int) -> "EpsLaurent":
        """Restrict the guaranteed window to [lo, hi]."""
        hi = min(hi, self.hi)
        cc = {e: c for e, c in self.coeffs.items() if e <= hi}
        r = EpsLaurent.zero()
        r.coeffs, r.lo, r.hi = cc, min(self.lo, hi), hi
        return r

    def conjugate(self) -> "EpsLaurent":
        """Coefficientwise conjugation (eps is real)."""
        r = EpsLaurent.zero()
        r.coeffs = {e: c.conjugate() for e, c in self.coeffs.items()}
        r.lo, r.hi = self.lo, self.hi
        return r

    def is_zero(self) -> bool:
        # "zero" in the generic-scalar sense: zero on the whole known window
        return not self.coeffs

    def zero_like(self):
        return EpsLaurent.zero()

    def one_like(self):
        return EpsLaurent.const(1)

    def __eq__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.lo, self.hi))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(f"{c!r}")
                elif e == 1:
                    parts.append(f"{c!r}*eps")
                else:
                    parts.append(f"{c!r}*eps^{e}")
            body = " + ".join(parts)
        hi = "inf" if self.hi >= INF_ORDER else self.hi
        return f"<{body} | window [{self.lo},{hi}]>"

    def to_json(self):
        return {
            "coeffs": {str(e): c.to_json() for e, c in sorted(self.coeffs.items())},
            "lo": self.lo,
            "hi": None if self.hi >= INF_ORDER else self.hi,
        }

    @classmethod
    def from_json(cls, obj) -> "EpsLaurent":
        if isinstance(obj, dict) and "coeffs" in obj:
            hi = obj.get("hi")
            return cls(
                {int(e): GaussRational.from_json(c) for e, c in obj["coeffs"].items()},
                lo=obj.get("lo", 0),
                hi=INF_ORDER if hi is None else hi,
            )
        # shorthand: {exponent: coefficient} map
        coeffs = {int(e): GaussRational.from_json(c) for e, c in obj.items()}
        lo = min(list(coeffs) + [0])
        return cls(coeffs, lo=lo, hi=INF_ORDER)


def _coerce_series(x):
    if isinstance(x, EpsLaurent):
        return x
    if isinstance(x, (int, GaussRational)) or hasattr(x, "denominator"):
        return EpsLaurent.const(x)
    return NotImplemented


def series(pairs, lo=None, hi=INF_ORDER) -> EpsLaurent:
    """Convenience constructor from an {exponent: coefficient} mapping."""
    coeffs = {int(e): _coerce_coeff(c) for e, c in dict(pairs).items()}
    if lo is None:
        lo = min([e for e in coeffs] + [0])
    return EpsLaurent(coeffs, lo=lo, hi=hi)
