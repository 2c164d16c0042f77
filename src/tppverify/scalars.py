"""Exact scalar arithmetic: rationals, Gaussian rationals, cyclotomic numbers.

All exact computation in this package runs on top of the rational backend
``QQ``: gmpy2.mpq when gmpy2 is installed (the optional ``fast`` extra),
fractions.Fraction otherwise.  Both keep values reduced to lowest terms with
a positive denominator.

Float-complex values are plain Python ``complex``.  No verdict reads one:
the verifiers and SepFunction.eval refuse float entries, and no path takes a
tolerance.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ
except ImportError:  # gmpy2 is optional: pip install tppverify[fast]
    from fractions import Fraction as QQ

QQ_ZERO = QQ(0)
QQ_ONE = QQ(1)


class ExactArithmeticError(ValueError):
    """A precondition of an exact operation was violated."""


def as_qq(x) -> "QQ":
    """Coerce x (int, QQ, Fraction, or a 'p/q' string) to QQ."""
    if isinstance(x, type(QQ_ZERO)):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return QQ(x)
    if isinstance(x, str):
        if "/" in x:
            num, den = x.split("/")
            return QQ(int(num), int(den))
        return QQ(int(x))
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return QQ(x.numerator, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def qq_str(x) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    x = as_qq(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussRational:
    """Gaussian rational a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_qq(re)
        self.im = as_qq(im)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_qq(cls, re, im) -> "GaussRational":
        """Trusted constructor for parts that are already QQ values."""
        g = object.__new__(cls)
        g.re = re
        g.im = im
        return g

    @classmethod
    def from_any(cls, x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, complex):
            raise TypeError("float complex cannot be coerced exactly")
        return cls(as_qq(x))

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if self.im == 0 and other.im == 0:
            return GaussRational(self.re * other.re)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "GaussRational":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRational(self.re / n, -self.im / n)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm2(self):
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / misc -------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        other = _coerce_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return qq_str(self.re)
        return f"({qq_str(self.re)}{'+' if self.im >= 0 else '-'}{qq_str(abs(self.im))}i)"

    def to_json(self):
        if self.im == 0:
            return qq_str(self.re)
        return {"re": qq_str(self.re), "im": qq_str(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussRational":
        if isinstance(obj, dict):
            return cls(as_qq(obj.get("re", 0)), as_qq(obj.get("im", 0)))
        return cls(as_qq(obj))


def _coerce_gauss(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, type(QQ_ZERO))):
        return GaussRational(x)
    return NotImplemented


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


# ---------------------------------------------------------------------------
# Generic scalar helpers (dispatch across the scalar kinds used in matrices)
# ---------------------------------------------------------------------------

def conj_scalar(x):
    """Complex conjugate; identity on exact reals and ints."""
    if isinstance(x, (int, type(QQ_ZERO))):
        return x
    return x.conjugate()


def is_zero_scalar(x) -> bool:
    if isinstance(x, (int, type(QQ_ZERO), complex)):
        return x == 0
    return x.is_zero()


# ---------------------------------------------------------------------------
# Cyclotomic numbers (needed for exact character arithmetic on Z_n)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Exact division of rational-coefficient polynomials (lists, low first)."""
    a = list(a)
    q = [QQ_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = QQ_ONE / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        q[k] = coef
        if coef != 0:
            for j, bj in enumerate(b):
                a[k + j] -= coef * bj
    return _poly_trim(q), _poly_trim(a)


def cyclotomic_polynomial(m: int):
    """Coefficients of the m-th cyclotomic polynomial (exact, low first)."""
    # x^m - 1 divided by the product of Phi_d over proper divisors d | m.
    num = [QQ(-1)] + [QQ_ZERO] * (m - 1) + [QQ_ONE]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            assert not rem
    return num


class CyclotomicField:
    """The field Q(zeta_m), elements in the power basis modulo Phi_m."""

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, m: int):
        if m in cls._cache:
            return cls._cache[m]
        self = super().__new__(cls)
        self.m = m
        self.phi = cyclotomic_polynomial(m)
        self.degree = len(self.phi) - 1
        # power_table[k] = coefficients of x^k reduced mod Phi_m, k = 0..2m
        table = [[QQ_ZERO] * self.degree for _ in range(2 * m + 1)]
        cur = [QQ_ONE]
        for k in range(2 * m + 1):
            table[k][: len(cur)] = cur
            cur = [QQ_ZERO] + cur
            if len(cur) > self.degree:
                lead = cur.pop()
                if lead != 0:
                    for j in range(self.degree):
                        cur[j] -= lead * self.phi[j]
        self.power_table = table
        cls._cache[m] = self
        return self

    def element(self, coeffs) -> "CycloNum":
        c = list(coeffs) + [QQ_ZERO] * (self.degree - len(coeffs))
        return CycloNum(self, tuple(as_qq(x) for x in c[: self.degree]))

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([QQ_ONE])

    def zeta(self, k: int = 1) -> "CycloNum":
        """zeta_m^k."""
        return CycloNum(self, tuple(self.power_table[k % self.m]))

    def from_rational(self, q) -> "CycloNum":
        return self.element([as_qq(q)])

    def coerce(self, x) -> "CycloNum":
        if isinstance(x, CycloNum):
            if x.field is not self:
                raise TypeError("cyclotomic order mismatch")
            return x
        if isinstance(x, GaussRational):
            if x.im == 0:
                return self.from_rational(x.re)
            if self.m % 4 != 0:
                raise TypeError("need 4 | m to embed Gaussian rationals")
            return self.from_rational(x.re) + self.zeta(self.m // 4) * self.from_rational(x.im)
        return self.from_rational(as_qq(x))

    def __repr__(self):
        return f"CyclotomicField({self.m})"


class CycloNum:
    """An element of Q(zeta_m)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _bin(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise TypeError("cyclotomic order mismatch")
            return other
        try:
            return self.field.coerce(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        acc = [QQ_ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    acc[i + j] += a * b
        out = [QQ_ZERO] * d
        table = self.field.power_table
        for k, c in enumerate(acc):
            if c != 0:
                row = table[k]
                for j in range(d):
                    if row[j] != 0:
                        out[j] += c * row[j]
        return CycloNum(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "CycloNum":
        # extended Euclid for self (as polynomial) and Phi_m over Q[x]
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        r0, r1 = list(self.field.phi), _poly_trim(list(self.coeffs))
        s0, s1 = [], [QQ_ONE]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            # s = s0 - q*s1
            s = list(s0) + [QQ_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi != 0:
                    for j, sj in enumerate(s1):
                        s[i + j] -= qi * sj
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        # r1 is the gcd, a nonzero constant since Phi_m is irreducible
        c = r1[0]
        inv = [x / c for x in s1]
        return self.field.element(inv)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation: zeta -> zeta^{-1}."""
        f = self.field
        out = [QQ_ZERO] * f.degree
        for j, c in enumerate(self.coeffs):
            if c != 0:
                row = f.power_table[(f.m - j) % f.m]
                for k in range(f.degree):
                    if row[k] != 0:
                        out[k] += c * row[k]
        return CycloNum(f, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        o = self._bin(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.m, self.coeffs))

    def __complex__(self):
        import cmath

        z = cmath.exp(2j * cmath.pi / self.field.m)
        return sum(complex(float(c.numerator), 0) / float(c.denominator) * z ** k
                   for k, c in enumerate(self.coeffs))

    def __repr__(self):
        terms = [f"{qq_str(c)}*z^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"
