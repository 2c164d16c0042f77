"""Dict-loop series arithmetic: the test oracle for the packed entry kernel.

EpsLaurent's arithmetic runs on the packed kernel of tppverify.series, so an
oracle built from EpsLaurent operations would compare the kernel with
itself.  OracleSeries keeps the series arithmetic as loops over dicts of
GaussRational coefficients, written from the window rules in
tppverify.series' docstring and sharing no code with the kernel.  Exact
scalars (int, QQ, GaussRational) lift to constant series with an unlimited
window, as in EpsLaurent.

Results are compared with triple(x) = (coeffs, lo, hi), which works on
EpsLaurent and OracleSeries alike.
"""

from tppverify.matrices import Mat
from tppverify.scalars import GR_ZERO, GaussRational, as_qq
from tppverify.series import INF_ORDER, EpsLaurent, InsufficientOrderError


def _sat_add(a: int, b: int) -> int:
    """Window-edge addition saturating at the unlimited-window sentinel."""
    if a >= INF_ORDER or b >= INF_ORDER:
        return INF_ORDER
    return a + b


class OracleSeries:
    """A truncated Laurent series as a dict {exponent: GaussRational}."""

    __slots__ = ("coeffs", "lo", "hi")

    def __init__(self, coeffs, lo, hi):
        self.coeffs, self.lo, self.hi = coeffs, lo, hi

    @classmethod
    def of(cls, x) -> "OracleSeries":
        if isinstance(x, OracleSeries):
            return x
        if isinstance(x, EpsLaurent):
            return cls(dict(x.coeffs), x.lo, x.hi)
        c = x if isinstance(x, GaussRational) else GaussRational(as_qq(x))
        return cls({} if c.is_zero() else {0: c}, 0, INF_ORDER)

    # -- queries ------------------------------------------------------------
    def coeff(self, k: int) -> GaussRational:
        if k > self.hi:
            raise InsufficientOrderError(
                f"coefficient at eps^{k} unknown (window [{self.lo},{self.hi}])")
        return self.coeffs.get(k, GR_ZERO)

    def known(self, k: int) -> bool:
        return k <= self.hi

    def is_zero_on_window(self) -> bool:
        return not self.coeffs

    def eq_on_window(self, other) -> bool:
        other = OracleSeries.of(other)
        hi = min(self.hi, other.hi)
        for e in set(self.coeffs) | set(other.coeffs):
            if e <= hi and self.coeffs.get(e, GR_ZERO) != other.coeffs.get(e, GR_ZERO):
                return False
        return True

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = OracleSeries.of(other)
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return OracleSeries({e: c for e, c in out.items() if e <= hi and not c.is_zero()},
                            lo, hi)

    def __neg__(self):
        return OracleSeries({e: -c for e, c in self.coeffs.items()}, self.lo, self.hi)

    def __sub__(self, other):
        return self + (-OracleSeries.of(other))

    def _eff_lo(self) -> int:
        """Tightest sound lower window edge (true valuation when nonzero)."""
        return min(self.coeffs) if self.coeffs else self.hi

    def __mul__(self, other):
        other = OracleSeries.of(other)
        a1, a2 = self._eff_lo(), other._eff_lo()
        lo = _sat_add(a1, a2)
        hi = min(_sat_add(a1, other.hi), _sat_add(a2, self.hi))
        if lo > hi:
            raise InsufficientOrderError("insufficient truncation order: empty product window")
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= hi:
                    p = c1 * c2
                    s = out.get(e)
                    out[e] = p if s is None else s + p
        return OracleSeries({e: c for e, c in out.items() if not c.is_zero()}, lo, hi)

    __rmul__ = __mul__

    def shift(self, k: int) -> "OracleSeries":
        return OracleSeries({e + k: c for e, c in self.coeffs.items()}, self.lo + k,
                            self.hi + k if self.hi < INF_ORDER else INF_ORDER)

    def reparametrize(self, t: int) -> "OracleSeries":
        return OracleSeries({e * t: c for e, c in self.coeffs.items()}, self.lo * t,
                            self.hi * t + (t - 1) if self.hi < INF_ORDER else INF_ORDER)

    def truncate(self, hi: int) -> "OracleSeries":
        hi = min(hi, self.hi)
        return OracleSeries({e: c for e, c in self.coeffs.items() if e <= hi},
                            min(self.lo, hi), hi)

    def conjugate(self) -> "OracleSeries":
        return OracleSeries({e: c.conjugate() for e, c in self.coeffs.items()},
                            self.lo, self.hi)


def triple(x):
    """(coeffs, lo, hi) of an EpsLaurent or an OracleSeries."""
    return x.coeffs, x.lo, x.hi


def to_oracle(m: Mat) -> Mat:
    """m with every entry an OracleSeries (exact entries lifted)."""
    return m.map(OracleSeries.of)


def oracle_matmul(a: Mat, b: Mat) -> Mat:
    """The boxed sum of series products, on OracleSeries entries."""
    a, b = to_oracle(a), to_oracle(b)
    n, k, m = a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        arow = a.data[i * k : (i + 1) * k]
        for j in range(m):
            acc = arow[0] * b.data[j]
            for t in range(1, k):
                acc = acc + arow[t] * b.data[t * m + j]
            out.append(acc)
    return Mat(n, m, out)


def oracle_det(m: Mat):
    """Cofactor expansion along the first row, on the entries' own arithmetic."""
    if m.rows == 1:
        return m.data[0]
    acc = None
    for j in range(m.cols):
        term = m[0, j] * oracle_det(m.submatrix(range(1, m.rows),
                                                [c for c in range(m.cols) if c != j]))
        term = -term if j % 2 else term
        acc = term if acc is None else acc + term
    return acc


def oracle_cofactors(m: Mat) -> Mat:
    """The matrix of signed (n-1)-minors of m, on OracleSeries entries."""
    m = to_oracle(m)
    n = m.rows
    out = []
    for i in range(n):
        for j in range(n):
            minor = oracle_det(m.submatrix([r for r in range(n) if r != i],
                                           [c for c in range(n) if c != j]))
            out.append(-minor if (i + j) % 2 else minor)
    return Mat(n, n, out)


def oracle_pk(k: int, d: Mat, m: Mat, conj_m: Mat | None = None):
    """The boxed k-subset loop: sum over k-subsets S, T of
    det((D M D)_{S,T}) det((D-bar C D-bar)_{S,T}), with C = conj(M) unless
    conj_m is given (the cofactor route passes cof(Q M Q)).  On OracleSeries,
    so an exact argument gives a constant series."""
    from itertools import combinations

    m = to_oracle(m)
    dbar = d.conj()
    dmd = oracle_matmul(oracle_matmul(d, m), d)
    cbar = m.conj() if conj_m is None else to_oracle(conj_m)
    dcd = oracle_matmul(oracle_matmul(dbar, cbar), dbar)
    acc = None
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            term = oracle_det(dmd.submatrix(rows, cols)) * oracle_det(dcd.submatrix(rows, cols))
            acc = term if acc is None else acc + term
    return acc
