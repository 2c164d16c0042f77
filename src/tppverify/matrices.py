"""Dense matrices generic over the package's scalar kinds.

Entries may be ints, rationals, GaussRational, EpsLaurent or CycloNum.  A
float entry is carried, but every verifier refuses it.  Exact inverses,
solves, ranks and the determinant of a matrix without series entries all
run one boxed Gauss-Jordan row reduction over a field (row_reduce),
integers lifted to QQ first.  A series matrix's determinant is a cofactor
expansion by DP over column subsets (n <= 10) on the packed kernel.

A matrix with a series entry is multiplied, and its determinant taken, on
the packed kernel: PackedSeriesMat keeps one common denominator and maps the
entry kernel of series.py over its entries, exact entries lifted to constant
series with an unlimited window.  The window rules are stated once, in
series.py.  A product entry is one _dot over a row and a column; reduced
divides the denominator and every numerator by their common gcd, which
gives the lcm of the reduced coefficient denominators, as pack does, and
key() is that reduced form, so equal matrices, windows included, share one
key whatever denominator they were computed over.

The determinant of a series matrix runs the cofactor DP on the packed
kernel: each new DP state is one _dot over a row, the signed sum of
state * entry terms (a sign is a negated entry).  Every state of row i is
over den^(i+1), so the determinant is a 1x1 packed matrix over den^n.  A 1x1
matrix returns its entry object unchanged.  The same DP's state after row
j - 1 at the mask of the first j columns is the leading principal minor
lpm_j, so one DP per packed matrix gives every lpm_j, kept with the matrix.

The inverse of a series matrix is the Neumann series run on the packed
kernel: with C the exact inverse of the constant term and N = C M - I,
M^-1 = (sum_k (-N)^k) C, summed until a term is zero on its window or for
hi terms, and truncated to the smallest hi of M; the result is reduced.  The
bound needs N to have valuation >= 1 and hi to be finite: a matrix that
stores a negative power of eps, or whose window is unlimited, is refused
unless a power of N is exactly zero.  A constant term of exactly I (every
su and running-example Y family) skips C and its products.  An exact
constant (only eps^0 terms, every window unlimited, as the GL example's X_q
and Z_q) has N = 0, so its inverse is C^-1 itself, with no Neumann term.
C^-1 is taken from the eps^0 numerators on integers, by one fraction-free
(Bareiss) elimination whose every division is exact in Z[i], over |det|^2
reduced by one gcd, with no boxed round trip.

Chains of products (the TPP/DPP products, the Y inverses and the separation
arguments) stay packed from factor to verdict; mat_det, lpm, mat_exp_trunc
and mat_inv_series take and return boxed matrices, packing and unpacking once.
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
)
from .series import (
    INF_ORDER,
    EpsLaurent,
    InsufficientOrderError,
    _add_entry,
    _const_entry,
    _dot,
    _entry,
    _eq_entry,
    _neg_entry,
    _packed,
    _shift_entry,
    _truncate_entry,
    _unpack_entry,
)


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
        if self.has_series_entries() or other.has_series_entries():
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
# Packed series matrices
# ---------------------------------------------------------------------------

class PackedSeriesMat:
    """A series matrix over one common denominator: entries[i * cols + j] is
    the packed entry (lo, hi, val, terms) of series.py over den."""

    # _minors: leading_minors(), set on first use
    __slots__ = ("rows", "cols", "den", "entries", "_minors")

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
        return cls(n, n, 1, [_const_entry(int(i == j), 0) for i in range(n) for j in range(n)])

    @classmethod
    def pack(cls, m: Mat) -> "PackedSeriesMat":
        """Pack series entries; exact entries become constant series."""
        den, entries = _packed(*[x if isinstance(x, EpsLaurent) else EpsLaurent.const(x)
                                 for x in m.data])
        return cls(m.rows, m.cols, den, entries)

    def unpack(self) -> Mat:
        parts = {0: QQ_ZERO}         # numerator -> QQ, shared across entries
        return Mat(self.rows, self.cols,
                   [_unpack_entry(x, self.den, parts) for x in self.entries])

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

    # -- entrywise operations (rules in series.py) ----------------------------
    def add(self, other: "PackedSeriesMat") -> "PackedSeriesMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactArithmeticError("matrix shape mismatch")
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        sa, sb = den // da, den // db
        return PackedSeriesMat(self.rows, self.cols, den,
                               [_add_entry(a, b, sa, sb)
                                for a, b in zip(self.entries, other.entries)])

    def eq_on_window(self, other: "PackedSeriesMat") -> bool:
        """Every pair of entries agrees on its common window."""
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return all(_eq_entry(a, b, sa, sb) for a, b in zip(self.entries, other.entries))

    def neg(self) -> "PackedSeriesMat":
        return self._map(_neg_entry)

    def shift(self, k: int) -> "PackedSeriesMat":
        """Multiply by eps^k (k may be negative)."""
        return self._map(_shift_entry, k)

    def truncate(self, h: int) -> "PackedSeriesMat":
        """Restrict every entry's window to hi <= h."""
        return self._map(_truncate_entry, h)

    def _map(self, op, *args) -> "PackedSeriesMat":
        return PackedSeriesMat(self.rows, self.cols, self.den,
                               [op(x, *args) for x in self.entries])

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
        if self.rows != self.cols:
            raise ExactArithmeticError("determinant of non-square matrix")
        return self if self.rows == 1 else self.leading_minors()[-1]

    def leading_minors(self) -> list:
        """[lpm_1, ..., lpm_k] of the leading k x k block, k = min(rows, cols).

        One cofactor DP gives them all: its state after row j - 1 at the
        mask of the first j columns is lpm_j, over den^j.  The list is kept
        with the matrix, so every leading minor of one argument costs one DP.
        """
        minors = getattr(self, "_minors", None)
        if minors is None:
            k = min(self.rows, self.cols)
            entries = self.entries if k == self.cols else self.submatrix(range(k), range(k)).entries
            negated = {}            # entry index -> negated entry, made on first use

            def signed(idx):
                x = negated.get(idx)
                if x is None:
                    x = negated[idx] = _neg_entry(entries[idx])
                return x

            def combine(terms):
                return _dot([(sub, signed(idx) if negate else entries[idx])
                             for sub, idx, negate in terms])

            minors = self._minors = [
                PackedSeriesMat(1, 1, self.den ** (j + 1), [state])
                for j, state in enumerate(_leading_states(k, entries, combine))]
        return minors

    def has_unit_constant(self) -> bool:
        """The constant term is known and exactly I, read from the numerators."""
        den, cols = self.den, self.cols
        for idx, (_, h, _, t) in enumerate(self.entries):
            c0 = next(((re, im) for e, re, im in t if e == 0), (0, 0))
            if h < 0 or c0 != ((den, 0) if idx // cols == idx % cols else (0, 0)):
                return False
        return True

    def inverse(self) -> "PackedSeriesMat":
        """Inverse of a matrix with invertible constant term (Neumann series).

        C is the constant term; a window starting above eps^0 only says that
        its entry's eps^0 coefficient is zero.  With no stored negative power
        and a finite window, N = C M - I has valuation >= 1, so (-N)^k starts at eps^k and hi terms reach the
        window edge.  With a negative power or an unlimited window, the sum
        is sound only if a power of N is exactly zero (N nilpotent, so at
        most n terms); otherwise the inverse is refused.  A constant term of
        exactly I needs no C: N = M - I, and only the lo narrowing that the
        products by C = I would make is kept.  An exact constant has N = 0:
        its inverse is C^-1, zero entries as the product I C^-1 leaves them.
        """
        n = self.rows
        if n != self.cols:
            raise ExactArithmeticError("inverse of non-square matrix")
        hi = min(h for _, h, _, _ in self.entries)
        for lo, h, _, _ in self.entries:
            if h < 0:
                raise InsufficientOrderError(
                    f"coefficient at eps^0 unknown (window [{lo},{h}])")
        if hi >= INF_ORDER and not any(e for _, _, _, t in self.entries for e, _, _ in t):
            # an exact constant: the sum stops at its first term, so M^-1 is
            # C^-1 with the zero entries that product leaves, on [INF, INF]
            inv = self._constant_inverse()
            zero = (INF_ORDER, INF_ORDER, INF_ORDER, ())
            return PackedSeriesMat(n, n, inv.den, [x if x[3] else zero for x in inv.entries])
        ident = PackedSeriesMat.identity(n)
        if self.has_unit_constant():
            c0_inv = None
            nmat = self.add(ident.neg())
        else:
            c0_inv = self._constant_inverse()
            nmat = c0_inv.matmul(self).add(ident.neg())
        negative = any(t and t[0][0] < 0 for _, _, _, t in self.entries)
        must_vanish = negative or hi >= INF_ORDER
        acc, term = ident, nmat.neg()
        for k in range(n if must_vanish else hi):
            if k:
                term = term.matmul(nmat).neg()
            if not any(t for _, _, _, t in term.entries):
                break
            acc = acc.add(term)
        if must_vanish and any(t or h < INF_ORDER for _, h, _, t in term.entries):
            raise ExactArithmeticError(
                "series matrix inverse of negative powers needs a nilpotent C M - I"
                if negative else "series matrix inverse of an unlimited window needs "
                "a nilpotent C M - I")
        if c0_inv is None:
            acc = PackedSeriesMat(n, n, acc.den, [(v, h, v, t) for _, h, v, t in acc.entries])
        else:
            acc = acc.matmul(c0_inv)
        return acc.truncate(hi).reduced()

    def _constant_inverse(self) -> "PackedSeriesMat":
        """C^-1, C the eps^0 coefficients, in lowest terms: pack(C^-1).

        The numerators A = den C and I are reduced by _fraction_free as
        [A | I]; with p its last pivot (det A up to sign), row k becomes
        [p e_k | p A^-1], so C^-1 = den X conj(p) / |p|^2 for X the right
        block.  Dividing |p|^2 and those numerators by their gcd gives the
        lcm of the reduced coefficient denominators, as pack does.
        """
        n, den = self.rows, self.den
        c0 = [next(((re, im) for e, re, im in t if e == 0), (0, 0))
              for _, _, _, t in self.entries]
        re = [[a for a, _ in c0[i * n:(i + 1) * n]] + [int(i == j) for j in range(n)]
              for i in range(n)]
        im = ([[b for _, b in c0[i * n:(i + 1) * n]] + [0] * n for i in range(n)]
              if any(b for _, b in c0) else None)
        pivots, minors = _fraction_free(re, im, n)
        if len(pivots) < n:
            raise ExactArithmeticError("singular matrix")
        pr, pi = minors[-1]
        nums = []
        for k in range(n):
            for j in range(n, 2 * n):
                xr, xi = re[k][j], im[k][j] if im else 0
                nums.append((den * (xr * pr + xi * pi), den * (xi * pr - xr * pi)))
        norm = pr * pr + pi * pi
        g = math.gcd(norm, *[x for pair in nums for x in pair])
        # den an int whatever the numerators' type, as pack's is
        return PackedSeriesMat(n, n, int(norm // g), [_const_entry(a // g, b // g) for a, b in nums])

    def unpack_scalar(self):
        """The boxed entry of a 1x1 packed matrix."""
        return self.unpack().data[0]


# ---------------------------------------------------------------------------
# Determinants, minors, leading principal minors
# ---------------------------------------------------------------------------

_COFACTOR_LIMIT = 10


def mat_det(m: Mat):
    """Exact determinant: the cofactor DP on the packed kernel for series
    matrices (see the module docstring), the row reduction otherwise.

    A 1x1 matrix returns its entry object unchanged.
    """
    if not m.is_square:
        raise ExactArithmeticError("determinant of non-square matrix")
    if m.rows == 1:
        return m.data[0]
    if m.has_series_entries():
        return PackedSeriesMat.pack(m).det().unpack_scalar()
    rows, pivots, values, sign = row_reduce(m.to_rows(), m.cols)
    if len(pivots) < m.rows:
        return rows[0][0] * 0
    return sign * math.prod(values)


def _cofactor_dp(n: int, data: list, combine):
    """Determinant by DP over column subsets (works over any ring).

    A state maps a column mask to the determinant of the submatrix built
    from the first popcount(mask) rows and the columns in the mask.  Row 0's
    states are its entries; each later state is combine(terms), with terms
    the (state, entry index, negate) triples of one row in a fixed order.
    """
    return _leading_states(n, data, combine)[-1]


def _leading_states(n: int, data: list, combine) -> list:
    """The states of _cofactor_dp at the masks (1 << j) - 1, j = 1..n: the
    leading principal minors, lpm_j read after row j - 1."""
    if n > _COFACTOR_LIMIT:
        raise ExactArithmeticError(f"cofactor determinant limited to n <= {_COFACTOR_LIMIT}")
    states = {1 << j: data[j] for j in range(n)}
    leading = [data[0]]
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
        leading.append(states[(1 << (i + 1)) - 1])
    return leading


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

    A packed matrix gives the packed value from its one leading-minor DP
    (PackedSeriesMat.leading_minors), bit for bit the block's det().  Should
    that DP fail outside the block (an empty term window, or a matrix past
    the cofactor limit), the block's own DP decides, as it always did.
    """
    if j < 0 or j > min(m.rows, m.cols):
        raise ExactArithmeticError(f"lpm index {j} out of range")
    if j == 0:
        return 1
    if isinstance(m, PackedSeriesMat):
        try:
            return m.leading_minors()[j - 1]
        except (InsufficientOrderError, ExactArithmeticError):
            pass
    block = m.submatrix(range(j), range(j))
    return block.det() if isinstance(block, PackedSeriesMat) else mat_det(block)


# ---------------------------------------------------------------------------
# Series machinery
# ---------------------------------------------------------------------------

def mat_to_series(m: Mat) -> "Mat":
    """Lift exact entries to constant series (no-op on series entries)."""
    def lift(x):
        if isinstance(x, EpsLaurent):
            return x
        return EpsLaurent.const(x)
    return m.map(lift)


def mat_exp_trunc(a: Mat, order: int) -> "Mat":
    """Truncated exponential sum_{k<=order} eps^k a^k / k!, window [0, order].

    The argument must be square with exact scalar entries.  The powers a^k
    are packed products of the constant matrix (over den^k); term k is
    scaled by den^(order-k) order!/k! onto the one denominator
    den^order order!, and the result is unpacked once.
    """
    if not a.is_square:
        raise ExactArithmeticError("exponential of non-square matrix")
    if order < 0:
        raise ExactArithmeticError("order must be >= 0")
    if a.has_series_entries():
        raise ExactArithmeticError("mat_exp_trunc expects exact (non-series) entries")
    n = a.rows
    packed = PackedSeriesMat.pack(a)
    powers = [PackedSeriesMat.identity(n)]
    for _ in range(order):
        powers.append(powers[-1].matmul(packed))
    fact = math.factorial(order)
    scales = [packed.den ** (order - k) * (fact // math.factorial(k)) for k in range(order + 1)]
    entries = []
    for idx in range(n * n):
        # the constant entry of a^k holds one term, at eps^0
        terms = tuple([(k, re * f, im * f) for k, (p, f) in enumerate(zip(powers, scales))
                       for _, re, im in p.entries[idx][3]])
        entries.append(_entry(0, order, terms))
    return PackedSeriesMat(n, n, packed.den ** order * fact, entries).unpack()


def mat_inv_series(m: Mat) -> "Mat":
    """Inverse of a series matrix with invertible constant term (Neumann).

    Runs PackedSeriesMat.inverse on m packed once; exact entries are lifted.
    """
    return PackedSeriesMat.pack(m).inverse().unpack()


# ---------------------------------------------------------------------------
# Exact linear algebra over a field: one Gauss-Jordan row reduction
# ---------------------------------------------------------------------------

# int / int is a float and mpz / mpz an mpfr: integers are lifted to QQ
_INTEGERS = (int, type(QQ_ZERO.numerator))


def row_reduce(rows: list, width: int):
    """Gauss-Jordan reduction over a field, pivoting in the first width
    columns; the columns after them (right-hand sides) ride along.

    Integer entries are lifted to QQ first.  Returns (rows, pivots, values,
    sign): the reduced rows, the pivot columns, the pivot values divided out
    and the sign of the row swaps, so a square matrix of full rank has
    determinant sign * prod(values).
    """
    a = [[QQ(x) if isinstance(x, _INTEGERS) else x for x in row] for row in rows]
    pivots, values, sign = [], [], 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if not is_zero_scalar(a[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        d = a[r][c]
        a[r] = [x / d for x in a[r]]
        for i, row in enumerate(a):
            if i != r and not is_zero_scalar(row[c]):
                f = row[c]
                a[i] = [x - f * y for x, y in zip(row, a[r])]
        pivots.append(c)
        values.append(d)
    return a, pivots, values, sign


# The packed constant inverse runs on integers: fraction-free elimination of
# Gaussian-integer numerators, every division exact

def _exact_quotient(row: list, d) -> list:
    """Every entry of row divided by d, which must divide each one."""
    if any(x % d for x in row):
        raise ExactArithmeticError(f"fraction-free elimination: {d} does not divide a row")
    return [x // d for x in row]


def _fraction_free(re: list, im, width: int):
    """Fraction-free Gauss-Jordan over Z[i] (Bareiss, Math. Comp. 22, 1968).

    The rows are re + i im, lists of integers, reduced in place; im is None
    when every imaginary part is zero.  The pivot of column c is the first
    nonzero entry at or below the next pivot row, as in row_reduce.  With p
    the previous pivot (1 before the first), a pivot q in row r turns every
    other row x into (q x - x[c] row_r) / p.  By Sylvester's identity every
    entry is then a minor of the input, so each division is exact in Z[i];
    one that is not raises ExactArithmeticError.  When it ends, every pivot
    row holds the last pivot at its pivot column.

    Returns (pivots, minors): the pivot columns and the pivots as (re, im).
    """
    n = len(re)
    pivots, minors = [], []
    pr, pi = 1, 0
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, n) if re[i][c] or im and im[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            re[r], re[piv] = re[piv], re[r]
            if im:
                im[r], im[piv] = im[piv], im[r]
        qr, qi = re[r][c], im[r][c] if im else 0
        for i in range(n):
            fr, fi = re[i][c], im[i][c] if im else 0
            if i == r or not (fr or fi) and qr == pr and qi == pi:
                continue            # (q x - 0) / p with q = p leaves x
            if im is None:
                row = [qr * x - fr * y for x, y in zip(re[i], re[r])]
                re[i] = row if pr == 1 else _exact_quotient(row, pr)
                continue
            rows = list(zip(re[i], im[i], re[r], im[r]))
            tr = [qr * a - qi * b - fr * u + fi * v for a, b, u, v in rows]
            ti = [qr * b + qi * a - fr * v - fi * u for a, b, u, v in rows]
            if pi:                  # z / p = z conj(p) / |p|^2
                tr, ti = ([a * pr + b * pi for a, b in zip(tr, ti)],
                          [b * pr - a * pi for a, b in zip(tr, ti)])
            d = pr * pr + pi * pi if pi else pr
            if d != 1:
                tr, ti = _exact_quotient(tr, d), _exact_quotient(ti, d)
            re[i], im[i] = tr, ti
        pivots.append(c)
        minors.append((qr, qi))
        pr, pi = qr, qi
    return pivots, minors


def mat_inv_exact(m: Mat) -> "Mat":
    """Inverse of a matrix with exact field entries: [M | I] row reduced."""
    if not m.is_square:
        raise ExactArithmeticError("inverse of non-square matrix")
    if m.has_series_entries():
        raise ExactArithmeticError("mat_inv_exact expects exact entries (see mat_inv_series)")
    n = m.rows
    zero = m.data[0] * 0
    one = zero + 1
    rows, pivots, _, _ = row_reduce(
        [m.row(i) + [one if i == j else zero for j in range(n)] for i in range(n)], n)
    if len(pivots) < n:
        raise ExactArithmeticError("singular matrix")
    return Mat.from_rows([row[n:] for row in rows])


def solve_linear(a_rows: list, b_rows: list):
    """Solve A x = b exactly over a field; A given as rows, b as row vectors.

    Returns (solution_rows, None) on success where the solution has one row
    per column of A, or (None, reason) if the system is infeasible.  Free
    variables are set to zero.
    """
    ncols = len(a_rows[0])
    rows, pivots, _, _ = row_reduce([list(a) + list(b) for a, b in zip(a_rows, b_rows)],
                                    ncols)
    for r in range(len(pivots), len(rows)):
        if any(not is_zero_scalar(x) for x in rows[r][ncols:]):
            return None, f"inconsistent system (row {r})"
    zero = rows[0][0] * 0
    sol = [[zero] * (len(rows[0]) - ncols) for _ in range(ncols)]
    for row, c in zip(rows, pivots):
        sol[c] = row[ncols:]
    return sol, None


def mat_rank(a_rows: list) -> int:
    """Exact rank over a field."""
    if not a_rows:
        return 0
    return len(row_reduce(a_rows, len(a_rows[0]))[1])
