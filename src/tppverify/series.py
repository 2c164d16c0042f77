"""Truncated Laurent series in a real parameter eps with exact coefficients.

A series tracks a validity window [lo, hi]: coefficients below lo are known
to be exactly zero, coefficients in [lo, hi] are stored exactly, and
coefficients above hi are *unknown* -- never assumed zero.  Every operation
narrows the window conservatively; asking for a coefficient beyond the window
raises InsufficientOrderError rather than fabricating a zero.  The parameter
is treated as real, so conjugation acts coefficientwise.

All series arithmetic runs on one packed entry kernel, defined here.  An
entry is (lo, hi, val, terms) over a denominator that its owner keeps: the
window, the effective valuation val (the valuation, or hi for an entry that
is zero on its window) and the nonzero coefficients as (e, re_num, im_num)
integer triples sorted by exponent, the coefficient at eps^e being
(re_num + i im_num) / den (Python ints, or gmpy2 mpz under the mpq backend).
An exact scalar is a constant entry with the unlimited window hi = INF_ORDER.
The window rules, stated once:

- a sum of products (_dot): each term a * b has window
  [v1 + v2, min(v1 + hi_b, v2 + hi_a)], with v the effective valuations and
  every edge sum saturating at INF_ORDER; an empty term window raises
  InsufficientOrderError.  The sum's window takes the minimum lo and the
  minimum hi over its terms, and its denominator is the product of the
  operands' denominators;
- a sum (_add_entry): window [min lo, min hi], over a common denominator
  that the caller reaches by scaling each operand's numerators; equality on
  the window (_eq_entry) compares the coefficients up to min hi, so scaled;
- negate and conjugate flip the sign of the real or imaginary numerators and
  keep the window;
- shift by eps^k moves exponents and both edges by k; reparametrizing
  eps -> eps^t multiplies exponents and lo by t, and hi becomes t hi + t - 1,
  since the exponents in between are known zeros;
- truncate to h keeps the coefficients up to min(h, hi), which becomes the
  new hi, and lowers lo to it when lo was above;
- an unlimited hi stays unlimited; coefficients beyond a result's hi are
  dropped, never fabricated, and coefficients that cancel to zero are not
  stored.

EpsLaurent is the boxed view of one entry: its arithmetic packs the operands
over their common denominator, runs the kernel and unpacks the result.
PackedSeriesMat (matrices.py) maps the same kernel over a matrix's entries.
"""

from __future__ import annotations

import math

from .scalars import QQ, QQ_ZERO, GaussRational, GR_ONE, GR_ZERO, as_qq

# Window bound used for exactly-known values (exact scalars lifted to series).
INF_ORDER = 10 ** 9


class InsufficientOrderError(ArithmeticError):
    """A computation needed a series coefficient beyond the valid window."""


# ---------------------------------------------------------------------------
# The packed entry kernel (rules in the module docstring)
# ---------------------------------------------------------------------------

def _entry(lo, hi, terms):
    """An entry with its effective valuation."""
    return lo, hi, terms[0][0] if terms else hi, terms


def _const_entry(re, im):
    """The exact constant (re + i im)/den as a packed entry (unlimited window)."""
    return (0, INF_ORDER, 0, ((0, re, im),)) if re or im else (0, INF_ORDER, INF_ORDER, ())


def _add_entry(a, b, sa, sb):
    """a + b, the numerators of a scaled by sa and those of b by sb."""
    lo1, hi1, _, t1 = a
    lo2, hi2, _, t2 = b
    lo = lo1 if lo1 < lo2 else lo2
    hi = hi1 if hi1 < hi2 else hi2
    acc = {}
    for e, re, im in t1:
        if e <= hi:
            acc[e] = (re * sa, im * sa)
    for e, re, im in t2:
        if e <= hi:
            s = acc.get(e)
            acc[e] = (re * sb, im * sb) if s is None else (s[0] + re * sb, s[1] + im * sb)
    terms = tuple([(e, re, im) for e, (re, im) in sorted(acc.items()) if re or im])
    return lo, hi, terms[0][0] if terms else hi, terms


def _dot(pairs):
    """The sum of a * b over (a, b) pairs of entries, on numerators only."""
    lo = hi = None
    nonzero = []
    for (_, h1, v1, t1), (_, h2, v2, t2) in pairs:
        # window edges saturate at INF_ORDER
        if v1 >= INF_ORDER or v2 >= INF_ORDER:
            plo = phi = INF_ORDER
        else:
            plo = v1 + v2
            phi = v1 + h2 if h2 < INF_ORDER else INF_ORDER
            phi2 = v2 + h1 if h1 < INF_ORDER else INF_ORDER
            if phi2 < phi:
                phi = phi2
            if plo > phi:
                raise InsufficientOrderError(
                    "insufficient truncation order: empty product window")
        if lo is None or plo < lo:
            lo = plo
        if hi is None or phi < hi:
            hi = phi
        if t1 and t2:
            nonzero.append((t1, t2))
    acc = {}
    for t1, t2 in nonzero:
        for e1, r1, i1 in t1:
            cap = hi - e1
            for e2, r2, i2 in t2:
                if e2 > cap:
                    break
                if i1 or i2:
                    re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                else:
                    re, im = r1 * r2, 0
                e = e1 + e2
                s = acc.get(e)
                acc[e] = (re, im) if s is None else (s[0] + re, s[1] + im)
    terms = tuple([(e, re, im) for e, (re, im) in sorted(acc.items()) if re or im])
    return lo, hi, terms[0][0] if terms else hi, terms


def _eq_entry(a, b, sa, sb) -> bool:
    """a and b agree on their common window, numerators scaled by sa and sb."""
    hi = min(a[1], b[1])
    return ([(e, re * sa, im * sa) for e, re, im in a[3] if e <= hi]
            == [(e, re * sb, im * sb) for e, re, im in b[3] if e <= hi])


def _neg_entry(x):
    lo, hi, v, t = x
    return lo, hi, v, tuple([(e, -re, -im) for e, re, im in t])


def _conj_entry(x):
    lo, hi, v, t = x
    return lo, hi, v, tuple([(e, re, -im) for e, re, im in t])


def _shift_entry(x, k):
    """x * eps^k (k may be negative)."""
    lo, hi, _, t = x
    return _entry(lo + k, hi + k if hi < INF_ORDER else INF_ORDER,
                  tuple([(e + k, re, im) for e, re, im in t]))


def _reparam_entry(x, t):
    """x with eps replaced by eps^t (t >= 1)."""
    lo, hi, _, terms = x
    return _entry(lo * t, hi * t + (t - 1) if hi < INF_ORDER else INF_ORDER,
                  tuple([(e * t, re, im) for e, re, im in terms]))


def _truncate_entry(x, h):
    """x known only up to eps^h."""
    lo, hi, _, t = x
    if h < hi:
        hi = h
        t = tuple([term for term in t if term[0] <= h])
    return _entry(lo if lo < hi else hi, hi, t)


def _pack_entry(s: "EpsLaurent", den: int):
    """s as an entry over den, a multiple of its coefficients' denominators."""
    terms = []
    for e, c in sorted(s.coeffs.items()):
        re, im = c.re, c.im
        terms.append((e, re.numerator * (den // re.denominator),
                      im.numerator * (den // im.denominator)))
    return _entry(s.lo, s.hi, tuple(terms))


def _unpack_entry(x, den: int, parts: dict | None = None) -> "EpsLaurent":
    """The entry x over den as an EpsLaurent; parts caches numerator -> QQ."""
    if parts is None:
        parts = {0: QQ_ZERO}
    lo, hi, _, terms = x
    cc = {}
    for e, re, im in terms:
        a = parts.get(re)
        if a is None:
            a = parts[re] = QQ(re, den)
        b = parts.get(im)
        if b is None:
            b = parts[im] = QQ(im, den)
        cc[e] = GaussRational.from_qq(a, b)
    s = object.__new__(EpsLaurent)
    s.coeffs, s.lo, s.hi = cc, lo, hi
    return s


def _packed(*series):
    """(den, entries): the series packed over the lcm of their denominators."""
    den = math.lcm(1, *{p.denominator for s in series for c in s.coeffs.values()
                        for p in (c.re, c.im)})
    return den, [_pack_entry(s, den) for s in series]


def _coerce_coeff(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    return GaussRational(as_qq(x))


# ---------------------------------------------------------------------------
# The boxed view
# ---------------------------------------------------------------------------

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

    def eq_on_window(self, other: "EpsLaurent") -> bool:
        """Exact equality of all coefficients on the intersected window."""
        _, (a, b) = _packed(self, _coerce_series(other))
        return _eq_entry(a, b, 1, 1)

    # -- arithmetic on the kernel ------------------------------------------
    def __add__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        den, (a, b) = _packed(self, other)
        return _unpack_entry(_add_entry(a, b, 1, 1), den)

    __radd__ = __add__

    def _apply(self, op, *args) -> "EpsLaurent":
        """op on this series' entry, unpacked over the same denominator."""
        den, (a,) = _packed(self)
        return _unpack_entry(op(a, *args), den)

    def __neg__(self):
        return self._apply(_neg_entry)

    def __sub__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        den, (a, b) = _packed(self, other)
        return _unpack_entry(_add_entry(a, _neg_entry(b), 1, 1), den)

    def __rsub__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        den, (a, b) = _packed(self, other)
        return _unpack_entry(_dot([(a, b)]), den * den)

    __rmul__ = __mul__

    def shift(self, k: int) -> "EpsLaurent":
        """Multiply by eps^k (k may be negative: divide by eps^{-k})."""
        return self._apply(_shift_entry, k)

    def reparametrize(self, t: int) -> "EpsLaurent":
        """Substitute eps -> eps^t (t >= 1)."""
        if t == 1:
            return self
        if t < 1:
            raise ValueError("reparametrization exponent must be >= 1")
        return self._apply(_reparam_entry, t)

    def truncate(self, hi: int) -> "EpsLaurent":
        """Restrict the guaranteed window to [lo, hi]."""
        return self._apply(_truncate_entry, hi)

    def conjugate(self) -> "EpsLaurent":
        """Coefficientwise conjugation (eps is real)."""
        return self._apply(_conj_entry)

    def is_zero(self) -> bool:
        # "zero" in the generic-scalar sense: zero on the whole known window
        return not self.coeffs

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
