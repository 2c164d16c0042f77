"""Dense matrices generic over the package's scalar kinds.

Entries may be ints, rationals, GaussRational, EpsLaurent, CycloNum, or
float complex.  Determinants use fraction-free (Bareiss) elimination for
exact division-friendly scalars, and otherwise a cofactor expansion by DP
over column subsets (n <= 10): packed for series matrices, boxed for float
and complex ones.

Series products run on a packed kernel (PackedSeriesMat).  Mat.matmul uses it
whenever one operand is all EpsLaurent and the other holds only EpsLaurent or
exact rational/Gaussian entries; exact entries are lifted to constant series
with an unlimited window, as EpsLaurent arithmetic lifts them.  A packed
matrix stores one common denominator and, per entry, its window (lo, hi), its
effective valuation (the valuation, or hi for an entry that is zero on its
window) and its nonzero coefficients as (exponent, re_num, im_num) integer
triples (Python ints, or gmpy2 mpz under the mpq backend).  Each product
entry is one sum of products (_dot): an integer convolution that applies the
window rules of EpsLaurent.__mul__ and __add__ term by term, so its entries
are bit-identical, windows included, to the boxed sum of series products:

- each term a_it * b_tj has window [v1 + v2, min(v1 + hi_b, v2 + hi_a)],
  with v the effective valuations and every edge sum saturating at
  INF_ORDER; an empty term window raises InsufficientOrderError;
- the entry's window takes the minimum lo and the minimum hi over its terms;
- coefficients beyond the entry's hi are dropped, never fabricated, and
  coefficients that cancel to zero are not stored.

Entrywise operations follow the other EpsLaurent rules on numerators:

- add brings both operands over the lcm of their denominators; an entry's
  window is [min lo, min hi], coefficients beyond that hi are dropped and
  sums that cancel to zero are not stored (EpsLaurent.__add__);
- negate flips the sign of every numerator and keeps the window;
- shift by eps^k moves exponents and both edges by k, an unlimited hi
  staying unlimited (EpsLaurent.shift);
- truncate to h keeps the coefficients up to min(h, hi), which becomes the
  new hi, and lowers lo to it when lo was above (EpsLaurent.truncate);
- reduced divides the denominator and every numerator by their common gcd,
  which gives the lcm of the reduced coefficient denominators, as pack does;
  key() is that reduced form, so equal matrices, windows included, share one
  key whatever denominator they were computed over.

The determinant of a series matrix whose other entries are exact runs the
same DP on the packed kernel.  The matrix is packed once, exact entries
lifted as above; each new DP state is one _dot over a row, the signed sum of
state * entry terms (a sign is a negated entry), so the window rules are
those of a matmul entry.  Every state of row i is over den^(i+1), so the
determinant is a 1x1 packed matrix over den^n.  Its entries are
bit-identical, windows included, to the DP run on boxed series.  A 1x1
matrix returns its entry object unchanged.

The inverse of a series matrix is the Neumann series run on the packed
kernel: with C the exact inverse of the constant term and N = C M - I,
M^-1 = (sum_k (-N)^k) C, summed until a term is zero on its window or for
hi terms, and truncated to the smallest hi of M; the result is reduced.

Chains of products (the TPP/DPP products, the Y inverses and the separation
arguments) stay packed from factor to verdict; mat_det, lpm and
mat_inv_series take and return boxed matrices, packing and unpacking once.
"""

from __future__ import annotations

import math

from .scalars import (
    ExactArithmeticError,
    GaussRational,
    QQ,
    QQ_ZERO,
    conj_scalar,
    is_zero_scalar,
    one_like,
    zero_like,
)
from .series import EpsLaurent, INF_ORDER, InsufficientOrderError


class Mat:
    """Row-major dense matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise ValueError("data length does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int, one=1, zero=0) -> "Mat":
        data = [zero] * (n * n)
        for i in range(n):
            data[i * n + i] = one
        return cls(n, n, data)

    @classmethod
    def zeros(cls, rows: int, cols: int, zero=0) -> "Mat":
        return cls(rows, cols, [zero] * (rows * cols))

    @classmethod
    def diag(cls, entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        m = cls.zeros(n, n)
        for i, x in enumerate(entries):
            m.data[i * n + i] = x
        return m

    # -- access ------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def __setitem__(self, ij, val):
        i, j = ij
        self.data[i * self.cols + j] = val

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def copy(self) -> "Mat":
        return Mat(self.rows, self.cols, list(self.data))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.data])

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Mat):
            return NotImplemented
        return self.scale(other)

    def scale(self, s) -> "Mat":
        return Mat(self.rows, self.cols, [s * a for a in self.data])

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ExactArithmeticError(
                f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        if _packable(self, other):
            return PackedSeriesMat.pack(self).matmul(PackedSeriesMat.pack(other)).unpack()
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = arow[0] * b[j]
                for t in range(1, k):
                    acc = acc + arow[t] * b[t * m + j]
                out.append(acc)
        return Mat(n, m, out)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def conj_transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            [conj_scalar(self.data[i * self.cols + j]) for j in range(self.cols) for i in range(self.rows)],
        )

    def conj(self) -> "Mat":
        return Mat(self.rows, self.cols, [conj_scalar(a) for a in self.data])

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(a == b for a, b in zip(self.data, other.data))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def key(self):
        """Hashable exact-identity key."""
        return (self.rows, self.cols, tuple(self.data))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat[{body}]"

    def _check_same_shape(self, other):
        if not isinstance(other, Mat) or self.rows != other.rows or self.cols != other.cols:
            raise ExactArithmeticError("matrix shape mismatch")

    def submatrix(self, keep_rows, keep_cols) -> "Mat":
        keep_rows = list(keep_rows)
        keep_cols = list(keep_cols)
        return Mat(
            len(keep_rows),
            len(keep_cols),
            [self.data[i * self.cols + j] for i in keep_rows for j in keep_cols],
        )

    def has_series_entries(self) -> bool:
        return any(isinstance(x, EpsLaurent) for x in self.data)

    def map(self, f) -> "Mat":
        return Mat(self.rows, self.cols, [f(x) for x in self.data])


# ---------------------------------------------------------------------------
# Packed series kernel
# ---------------------------------------------------------------------------

def _liftable(x) -> bool:
    """True for the entries EpsLaurent arithmetic lifts to constant series."""
    return isinstance(x, (EpsLaurent, int, GaussRational)) or hasattr(x, "denominator")


def _packable(a: Mat, b: Mat) -> bool:
    """One operand all series, the other series or exact: the packed kernel applies."""
    def all_series(m):
        return all(isinstance(x, EpsLaurent) for x in m.data)

    def all_liftable(m):
        return all(_liftable(x) for x in m.data)

    sa, sb = all_series(a), all_series(b)
    return (sa and (sb or all_liftable(b))) or (sb and all_liftable(a))


class PackedSeriesMat:
    """A series matrix over one common denominator (see the module docstring).

    entries[i * cols + j] is (lo, hi, val, terms): the window, the effective
    valuation, and the nonzero coefficients as (e, re_num, im_num) triples
    sorted by exponent; the coefficient at eps^e is (re_num + i im_num) / den.
    """

    __slots__ = ("rows", "cols", "den", "entries")

    def __init__(self, rows: int, cols: int, den: int, entries: list):
        self.rows = rows
        self.cols = cols
        self.den = den
        self.entries = entries

    @classmethod
    def scalar(cls, x) -> "PackedSeriesMat":
        """A series or exact scalar as a 1x1 packed matrix."""
        return cls.pack(Mat(1, 1, [x]))

    @classmethod
    def identity(cls, n: int) -> "PackedSeriesMat":
        return cls(n, n, 1, [_ONE_ENTRY if i == j else _ZERO_ENTRY
                             for i in range(n) for j in range(n)])

    @classmethod
    def pack(cls, m: Mat) -> "PackedSeriesMat":
        """Pack series entries; exact entries become constant series."""
        lifted = [x if isinstance(x, EpsLaurent) else EpsLaurent.const(x) for x in m.data]
        dens = {1}
        for s in lifted:
            for c in s.coeffs.values():
                dens.add(c.re.denominator)
                dens.add(c.im.denominator)
        den = math.lcm(*dens)
        scale = {d: den // d for d in dens}
        entries = []
        for s in lifted:
            cs = s.coeffs
            terms = []
            for e in sorted(cs):
                re, im = cs[e].re, cs[e].im
                terms.append((e, re.numerator * scale[re.denominator],
                              im.numerator * scale[im.denominator]))
            entries.append((s.lo, s.hi, terms[0][0] if terms else s.hi, tuple(terms)))
        return cls(m.rows, m.cols, den, entries)

    def unpack(self) -> Mat:
        den = self.den
        parts = {0: QQ_ZERO}         # numerator -> QQ, shared across entries
        data = []
        for lo, hi, _, terms in self.entries:
            cc = {}
            for e, re, im in terms:
                a = parts.get(re)
                if a is None:
                    a = parts[re] = QQ(re, den)
                b = parts.get(im)
                if b is None:
                    b = parts[im] = QQ(im, den)
                cc[e] = GaussRational.from_qq(a, b)
            s = EpsLaurent.zero()
            s.coeffs, s.lo, s.hi = cc, lo, hi
            data.append(s)
        return Mat(self.rows, self.cols, data)

    def matmul(self, other: "PackedSeriesMat") -> "PackedSeriesMat":
        """Truncated product over the product of the two denominators."""
        if self.cols != other.rows:
            raise ExactArithmeticError(
                f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a = self.entries
        cols = [other.entries[j::m] for j in range(m)]
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for col in cols:
                out.append(_dot(zip(arow, col)))
        return PackedSeriesMat(n, m, self.den * other.den, out)

    # -- entrywise operations (rules in the module docstring) -----------------
    def add(self, other: "PackedSeriesMat") -> "PackedSeriesMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactArithmeticError("matrix shape mismatch")
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        sa, sb = den // da, den // db
        return PackedSeriesMat(self.rows, self.cols, den,
                               [_add_entry(a, b, sa, sb)
                                for a, b in zip(self.entries, other.entries)])

    def neg(self) -> "PackedSeriesMat":
        return PackedSeriesMat(self.rows, self.cols, self.den,
                               [(lo, hi, v, tuple([(e, -re, -im) for e, re, im in t]))
                                for lo, hi, v, t in self.entries])

    def shift(self, k: int) -> "PackedSeriesMat":
        """Multiply by eps^k (k may be negative)."""
        out = []
        for lo, hi, _, t in self.entries:
            hi = hi + k if hi < INF_ORDER else INF_ORDER
            t = tuple([(e + k, re, im) for e, re, im in t])
            out.append((lo + k, hi, t[0][0] if t else hi, t))
        return PackedSeriesMat(self.rows, self.cols, self.den, out)

    def truncate(self, h: int) -> "PackedSeriesMat":
        """Restrict every entry's window to hi <= h."""
        out = []
        for lo, hi, _, t in self.entries:
            if h < hi:
                hi = h
                t = tuple([x for x in t if x[0] <= h])
            out.append((lo if lo < hi else hi, hi, t[0][0] if t else hi, t))
        return PackedSeriesMat(self.rows, self.cols, self.den, out)

    def reduced(self) -> "PackedSeriesMat":
        """The same matrix over the smallest common denominator."""
        g = math.gcd(self.den, *[x for _, _, _, t in self.entries
                                 for _, re, im in t for x in (re, im)])
        if g == 1:
            return self
        return PackedSeriesMat(self.rows, self.cols, self.den // g,
                               [(lo, hi, v, tuple([(e, re // g, im // g) for e, re, im in t]))
                                for lo, hi, v, t in self.entries])

    def key(self):
        """Hashable exact-identity key: equal matrices share it."""
        return self.reduced().lowest_terms_key()

    def lowest_terms_key(self):
        """key() of a matrix already in lowest terms, without the gcd scan."""
        return (self.rows, self.cols, self.den, tuple(self.entries))

    # -- blocks, determinant, inverse -----------------------------------------
    def entry(self, i: int, j: int) -> "PackedSeriesMat":
        return PackedSeriesMat(1, 1, self.den, [self.entries[i * self.cols + j]])

    def submatrix(self, keep_rows, keep_cols) -> "PackedSeriesMat":
        keep_rows, keep_cols = list(keep_rows), list(keep_cols)
        cols, entries = self.cols, self.entries
        return PackedSeriesMat(len(keep_rows), len(keep_cols), self.den,
                               [entries[i * cols + j] for i in keep_rows for j in keep_cols])

    def det(self) -> "PackedSeriesMat":
        """Cofactor DP on the packed kernel: each state is one _dot over its row.

        Every state of row i has the denominator den^(i+1), so the
        determinant is a 1x1 matrix over den^n.  A 1x1 matrix is its own
        determinant.
        """
        n = self.rows
        if n != self.cols:
            raise ExactArithmeticError("determinant of non-square matrix")
        if n == 1:
            return self
        entries = self.entries
        negated = self.neg().entries

        def combine(terms):
            return _dot([(sub, negated[k] if negate else entries[k]) for sub, k, negate in terms])

        return PackedSeriesMat(1, 1, self.den ** n, [_cofactor_dp(n, entries, combine)])

    def inverse(self) -> "PackedSeriesMat":
        """Inverse of a matrix with invertible constant term (Neumann series)."""
        n = self.rows
        if n != self.cols:
            raise ExactArithmeticError("inverse of non-square matrix")
        if max(lo for lo, _, _, _ in self.entries) > 0:
            raise ExactArithmeticError("series matrix inverse needs valuation-0 entries")
        hi = min(h for _, h, _, _ in self.entries)
        c0 = []
        for lo, h, _, t in self.entries:
            if h < 0:
                raise InsufficientOrderError(
                    f"coefficient at eps^0 unknown (window [{lo},{h}])")
            re, im = next(((re, im) for e, re, im in t if e == 0), (0, 0))
            c0.append(GaussRational.from_qq(QQ(re, self.den), QQ(im, self.den)))
        c0_inv = PackedSeriesMat.pack(mat_inv_exact(Mat(n, n, c0)))
        ident = PackedSeriesMat.identity(n)
        nmat = c0_inv.matmul(self).add(ident.neg())  # valuation >= 1 on the window
        if hi >= INF_ORDER and any(t for _, _, _, t in nmat.entries):
            raise ExactArithmeticError("series matrix inverse needs a finite window")
        acc = term = ident
        for _ in range(hi):
            term = term.matmul(nmat).neg()
            if not any(t for _, _, _, t in term.entries):
                break
            acc = acc.add(term)
        # the Neumann bound guarantees validity to the window edge
        return acc.matmul(c0_inv).truncate(hi).reduced()

    def unpack_scalar(self):
        """The boxed entry of a 1x1 packed matrix."""
        return self.unpack().data[0]


def _const_entry(re, im):
    """The exact constant (re + i im)/den as a packed entry (unlimited window)."""
    return (0, INF_ORDER, 0, ((0, re, im),)) if re or im else (0, INF_ORDER, INF_ORDER, ())


_ONE_ENTRY = _const_entry(1, 0)
_ZERO_ENTRY = _const_entry(0, 0)


def _add_entry(a, b, sa, sb):
    """One entry of a + b, the numerators of a scaled by sa and those of b by sb."""
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
    """One packed entry: the sum of a * b over (a, b) pairs of packed entries.

    Numerators only: the result's denominator is the product of the
    operands' denominators, which the caller keeps.  The window rules are
    those of the module docstring.
    """
    lo = hi = None
    nonzero = []
    for (_, h1, v1, t1), (_, h2, v2, t2) in pairs:
        # _sat_add, inlined: window edges saturate at INF_ORDER
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


# ---------------------------------------------------------------------------
# Determinants, minors, leading principal minors
# ---------------------------------------------------------------------------

_COFACTOR_LIMIT = 10


def mat_det(m: Mat):
    """Exact determinant (Bareiss for exact scalars, cofactor DP otherwise).

    A 1x1 matrix returns its entry object unchanged.  Series matrices run
    the DP on the packed kernel (see the module docstring).
    """
    if not m.is_square:
        raise ExactArithmeticError("determinant of non-square matrix")
    if m.rows == 1:
        return m.data[0]
    series = m.has_series_entries()
    if series and all(_liftable(x) for x in m.data):
        return PackedSeriesMat.pack(m).det().unpack_scalar()
    if series or any(isinstance(x, complex) for x in m.data):
        return _det_expansion(m)
    return _det_bareiss(m)


def _det_bareiss(m: Mat):
    n = m.rows
    if n == 1:
        return m.data[0]
    a = [[x for x in m.row(i)] for i in range(n)]
    sign = 1
    prev = None
    for k in range(n - 1):
        if is_zero_scalar(a[k][k]):
            for r in range(k + 1, n):
                if not is_zero_scalar(a[r][k]):
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero_like(a[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else _exact_div(num, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ExactArithmeticError("non-exact integer division in Bareiss")
        return q
    return a / b


def _cofactor_dp(n: int, data: list, combine):
    """Determinant by DP over column subsets (works over any ring).

    A state maps a column mask to the determinant of the submatrix built
    from the first popcount(mask) rows and the columns in the mask.  Row 0's
    states are its entries; each later state is combine(terms), with terms
    the (state, entry index, negate) triples of one row in a fixed order.
    """
    if n > _COFACTOR_LIMIT:
        raise ExactArithmeticError(f"cofactor determinant limited to n <= {_COFACTOR_LIMIT}")
    states = {1 << j: data[j] for j in range(n)}
    for i in range(1, n):
        terms = {}
        for mask, sub in states.items():
            seen = 0  # used columns with index < j; cofactor sign is (-1)^(i+seen)
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    seen += 1
                    continue
                t = (sub, i * n + j, (i + seen) & 1)
                key = mask | bit
                if key in terms:
                    terms[key].append(t)
                else:
                    terms[key] = [t]
        states = {key: combine(ts) for key, ts in terms.items()}
    return states[(1 << n) - 1]


def _det_expansion(m: Mat):
    """Cofactor DP on boxed values: floats and complex numbers, and the
    reference that the packed series determinant is tested against."""
    data = m.data

    def combine(terms):
        acc = None
        for sub, k, negate in terms:
            term = sub * data[k]
            if negate:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return _cofactor_dp(m.rows, data, combine)


def mat_minor(m: Mat, keep_rows=None, keep_cols=None, drop_rows=None, drop_cols=None):
    """Determinant of the submatrix selected by kept or dropped index sets."""
    if keep_rows is None:
        drop = set(drop_rows or [])
        keep_rows = [i for i in range(m.rows) if i not in drop]
    if keep_cols is None:
        drop = set(drop_cols or [])
        keep_cols = [j for j in range(m.cols) if j not in drop]
    if len(keep_rows) != len(keep_cols):
        raise ExactArithmeticError("minor must be square")
    if not keep_rows:
        return 1
    return mat_det(m.submatrix(keep_rows, keep_cols))


def lpm(m, j: int):
    """j-th leading principal minor: det of the upper-left j x j block.

    A packed matrix gives the packed determinant of its block.
    """
    if j < 0 or j > min(m.rows, m.cols):
        raise ExactArithmeticError(f"lpm index {j} out of range")
    if j == 0:
        return 1
    block = m.submatrix(range(j), range(j))
    return block.det() if isinstance(block, PackedSeriesMat) else mat_det(block)


# ---------------------------------------------------------------------------
# Exact inverses and series machinery
# ---------------------------------------------------------------------------

def mat_inv_exact(m: Mat) -> "Mat":
    """Inverse of a matrix with exact field entries (Gauss-Jordan)."""
    if not m.is_square:
        raise ExactArithmeticError("inverse of non-square matrix")
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    one = one_like(m.data[0])
    zero = zero_like(m.data[0])
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not is_zero_scalar(a[r][col]):
                piv = r
                break
        if piv is None:
            raise ExactArithmeticError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r != col and not is_zero_scalar(a[r][col]):
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Mat.from_rows(inv)


def mat_to_series(m: Mat) -> "Mat":
    """Lift exact entries to constant series (no-op on series entries)."""
    def lift(x):
        if isinstance(x, EpsLaurent):
            return x
        return EpsLaurent.const(x)
    return m.map(lift)


def mat_exp_trunc(a: Mat, order: int) -> "Mat":
    """Truncated exponential sum_{k<=order} eps^k a^k / k!, window [0, order].

    The argument must be square with exact scalar entries.
    """
    if not a.is_square:
        raise ExactArithmeticError("exponential of non-square matrix")
    if order < 0:
        raise ExactArithmeticError("order must be >= 0")
    if a.has_series_entries():
        raise ExactArithmeticError("mat_exp_trunc expects exact (non-series) entries")
    n = a.rows
    coeff_mats = [Mat.identity(n, one=GaussRational(1), zero=GaussRational(0))]
    power = coeff_mats[0]
    fact = QQ(1)
    for k in range(1, order + 1):
        power = power.matmul(a)
        fact = fact * k
        coeff_mats.append(power.map(lambda x, f=fact: GaussRational.from_any(x) * GaussRational(1 / f)))
    out = Mat.zeros(n, n)
    for i in range(n):
        for j in range(n):
            coeffs = {}
            for k, cm in enumerate(coeff_mats):
                c = cm[i, j]
                if not c.is_zero():
                    coeffs[k] = c
            out[i, j] = EpsLaurent(coeffs, lo=0, hi=order)
    return out


def mat_inv_series(m: Mat) -> "Mat":
    """Inverse of a series matrix with invertible constant term (Neumann).

    Runs PackedSeriesMat.inverse on m packed once; exact entries are lifted.
    """
    return PackedSeriesMat.pack(m).inverse().unpack()


# ---------------------------------------------------------------------------
# Generic exact linear algebra over a field
# ---------------------------------------------------------------------------

def solve_linear(a_rows: list, b_rows: list):
    """Solve A x = b exactly over a field; A given as rows, b as row vectors.

    Returns (solution_rows, None) on success where the solution has one row
    per column of A, or (None, reason) if the system is infeasible.  Free
    variables are set to zero.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    nrhs = len(b_rows[0]) if b_rows else 0
    a = [list(r) for r in a_rows]
    b = [list(r) for r in b_rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if not is_zero_scalar(a[rr][c]):
                piv = rr
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        b[r], b[piv] = b[piv], b[r]
        d = a[r][c]
        a[r] = [x / d for x in a[r]]
        b[r] = [x / d for x in b[r]]
        for rr in range(nrows):
            if rr != r and not is_zero_scalar(a[rr][c]):
                f = a[rr][c]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
                b[rr] = [x - f * y for x, y in zip(b[rr], b[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # check consistency of zero rows
    for rr in range(r, nrows):
        if any(not is_zero_scalar(x) for x in b[rr]):
            return None, f"inconsistent system (row {rr})"
    zero = zero_like(a_rows[0][0])
    sol = [[zero] * nrhs for _ in range(ncols)]
    for k, c in enumerate(pivots):
        sol[c] = b[k]
    return sol, None


def mat_rank(a_rows: list) -> int:
    """Exact rank over a field."""
    nrows = len(a_rows)
    if nrows == 0:
        return 0
    ncols = len(a_rows[0])
    a = [list(r) for r in a_rows]
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if not is_zero_scalar(a[rr][c]):
                piv = rr
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        d = a[r][c]
        a[r] = [x / d for x in a[r]]
        for rr in range(nrows):
            if rr != r and not is_zero_scalar(a[rr][c]):
                f = a[rr][c]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        r += 1
        if r == nrows:
            break
    return r
