"""Evaluable polynomial expressions on matrices with tracked total degree.

A SepFunction is an expression tree over eleven node kinds: matrix entry
access, leading principal minors, the minor-based invariants p_k, the
sandwich L M R by constant matrices, real-linear coordinate forms,
univariate polynomial application, products, sums, scalar affine maps,
division by eps^k, and reparametrization eps -> eps^t.  _NODE_KINDS maps
each JSON "kind" to its class.

Each node has one evaluation rule, written in the ring operations of the
values it combines, so the same tree evaluates on exact rationals, Gaussian
rationals and truncated Laurent series.  Float complex arguments are
accepted where a node's rule needs no exact arithmetic (entries, sandwiches,
polynomials, products and sums).  Tracked degree is an upper bound on the
true total degree in the matrix entries (eps excluded), exact for products
and sums of the primitives used here.

Univariate polynomials are kept in product form scale * prod (x - root) and
applied to series via their exact Taylor expansion around the argument's
constant term, so an indicator polynomial with hundreds of roots costs only
a handful of series multiplications per evaluation (the Taylor coefficients
are cached per expansion point).
"""

from __future__ import annotations

import math

from .matrices import Mat, PackedSeriesMat, _dot, _liftable, lpm as mat_lpm, mat_det, mat_minor
from .scalars import GaussRational, QQ, as_qq, qq_str
from .series import INF_ORDER, EpsLaurent


class SepFunctionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Univariate polynomials in product form around exact roots
# ---------------------------------------------------------------------------

class UniPoly:
    """The univariate polynomial scale * prod (x - root_i)."""

    def __init__(self, roots, scale=1):
        self.roots = [GaussRational.from_any(r) for r in roots]
        self.scale = GaussRational.from_any(scale)
        self._taylor_cache: dict = {}

    @property
    def degree(self) -> int:
        return len(self.roots)

    # -- evaluation ---------------------------------------------------------
    def eval_exact(self, x):
        x = GaussRational.from_any(x)
        acc = self.scale
        for r in self.roots:
            acc = acc * (x - r)
        return acc

    def eval_float(self, x: complex) -> complex:
        acc = complex(self.scale)
        for r in self.roots:
            acc *= x - complex(r)
        return acc

    def taylor(self, c: GaussRational, order: int):
        """Exact Taylor coefficients of p(c + h) in h, up to h^order."""
        cached = self._taylor_cache.get(c)
        if cached is not None and len(cached) > order:
            return cached[: order + 1]
        order_full = min(order, self.degree)
        t = [GaussRational(1)] + [GaussRational(0)] * order_full
        deg_so_far = 0
        for r in self.roots:
            base = c - r
            deg_so_far = min(deg_so_far + 1, order_full)
            for k in range(deg_so_far, 0, -1):
                t[k] = t[k] * base + t[k - 1]
            t[0] = t[0] * base
        t = [self.scale * x for x in t]
        t = t + [GaussRational(0)] * (order + 1 - len(t))
        self._taylor_cache[c] = t
        return t[: order + 1]

    def eval_series(self, x: EpsLaurent) -> EpsLaurent:
        c = x.coeff(0)  # raises loudly if the constant term is unknown
        h = x - EpsLaurent.const(c)
        neg = any(e < 0 for e in h.coeffs)
        if neg:
            needed = self.degree
        else:
            needed = min(self.degree, max(x.hi, 0) if x.hi < 10 ** 8 else self.degree)
        t = self.taylor(c, needed)
        acc = EpsLaurent.const(t[0])
        if needed >= 1:
            hpow = h
            acc = acc + t[1] * hpow
            for i in range(2, needed + 1):
                hpow = hpow * h
                acc = acc + t[i] * hpow
        # a nonconstant polynomial of x is never known beyond x's own window
        if self.degree >= 1:
            acc = acc.truncate(min(acc.hi, x.hi))
        return acc

    def __call__(self, x):
        if isinstance(x, EpsLaurent):
            return self.eval_series(x)
        if isinstance(x, complex):
            return self.eval_float(x)
        return self.eval_exact(x)

    def to_json(self):
        return {"form": "roots",
                "roots": [r.to_json() for r in self.roots],
                "scale": self.scale.to_json()}

    @classmethod
    def from_json(cls, obj):
        if obj.get("form") != "roots":
            raise SepFunctionError(f"unknown polynomial form {obj.get('form')!r}")
        return cls([GaussRational.from_json(r) for r in obj["roots"]],
                   GaussRational.from_json(obj["scale"]))


def lagrange_indicator(point, points) -> UniPoly:
    """The unique degree-(len(points)-1) polynomial 1 at point, 0 elsewhere.

    points must be pairwise distinct and contain point.
    """
    point = GaussRational.from_any(point)
    pts = [GaussRational.from_any(p) for p in points]
    if len({(p.re, p.im) for p in pts}) != len(pts):
        raise SepFunctionError("interpolation points must be pairwise distinct")
    if all(p != point for p in pts):
        raise SepFunctionError("point must be among the interpolation points")
    roots = [p for p in pts if p != point]
    denom = GaussRational(1)
    for r in roots:
        denom = denom * (point - r)
    return UniPoly(roots=roots, scale=denom.inverse())


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------

class EvalContext:
    """Evaluation context: eps scaling (from reparametrization) and p_k mode."""

    __slots__ = ("eps_scale", "conj_mode")

    def __init__(self, eps_scale: int = 1, conj_mode: str = "direct"):
        self.eps_scale = eps_scale
        self.conj_mode = conj_mode

    def scaled(self, t: int) -> "EvalContext":
        return EvalContext(self.eps_scale * t, self.conj_mode)


class SepFunction:
    """Base class; subclasses implement eval(M, ctx) and degree."""

    kind = "abstract"

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def eval(self, m: Mat, ctx: EvalContext | None = None):
        raise NotImplementedError

    def __call__(self, m: Mat, ctx: EvalContext | None = None):
        return self.eval(m, ctx or EvalContext())

    def to_json(self):
        raise NotImplementedError

    @staticmethod
    def from_json(obj) -> "SepFunction":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        cls = _NODE_KINDS.get(kind)
        if cls is None:
            raise SepFunctionError(f"unknown node kind {kind!r}")
        try:
            return cls._from_json(obj)
        except KeyError as exc:
            raise SepFunctionError(f"{kind} node is missing key {exc.args[0]!r}") from None


class Entry(SepFunction):
    kind = "entry"

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j

    @property
    def degree(self):
        return 1

    def eval(self, m, ctx=None):
        return m[self.i, self.j]

    def to_json(self):
        return {"kind": self.kind, "i": self.i, "j": self.j}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["i"], obj["j"])


class LeadingMinor(SepFunction):
    kind = "lpm"

    def __init__(self, j: int):
        self.j = j

    @property
    def degree(self):
        return self.j

    def eval(self, m, ctx=None):
        return mat_lpm(m, self.j)

    def to_json(self):
        return {"kind": self.kind, "j": self.j}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["j"])


class MinorInvariant(SepFunction):
    """p_k(M) = sum over k-subsets S,T of |det((D M D)_{S,T})|^2.

    Entries of the conjugated factor come either from direct coefficientwise
    conjugation or from the determinant-minor route through Q (valid exactly
    on the group the invariant belongs to); "both" evaluates the two and
    raises on disagreement, flagging arguments outside the group.

    The direct route of p_1 on an exact or series argument is the Hermitian
    form sum_ij (DMD)_ij conj((DMD)_ij), run on the packed kernel: D is
    packed once, D M D is two packed products, the conjugate is the same
    entries with negated imaginary numerators, and the sum is one matmul
    entry (matrices._dot), unpacked once.  Its window rules are those of
    the boxed sum of 1x1-minor products, so the value is bit-identical to
    it; an exact argument gets the constant term.  k >= 2, float arguments
    and the minor route run the boxed loop over minors.
    """

    kind = "pk"

    def __init__(self, k: int, d_mat: Mat, q_mat: Mat | None = None):
        self.k = k
        self.d_mat = d_mat
        self.q_mat = q_mat
        self._d_conj = d_mat.conj()
        self._d_real = self._d_conj == d_mat
        packable = k == 1 and all(map(_liftable, d_mat.data))
        self._d_packed = PackedSeriesMat.pack(d_mat) if packable else None

    @property
    def degree(self):
        # each |det_k|^2 is degree k in the entries and k in their conjugates;
        # conjugates of group elements are degree-(n-1) minor polynomials
        n = self.d_mat.rows
        return self.k * n

    def _conj_matrix_minor(self, m: Mat) -> Mat:
        q = self.q_mat
        if q is None:
            raise SepFunctionError("minor-mode conjugation needs the form matrix Q")
        qmq = q.matmul(m).matmul(q)
        n = m.rows
        out = Mat.zeros(n, n)
        for i in range(n):
            for j in range(n):
                minor = mat_minor(qmq, drop_rows=[i], drop_cols=[j])
                out[i, j] = minor if (i + j) % 2 == 0 else -minor
        return out

    def _value(self, dmd: Mat, dmbard: Mat):
        from itertools import combinations

        n = dmd.rows
        acc = None
        for s_rows in combinations(range(n), self.k):
            for t_cols in combinations(range(n), self.k):
                det1 = mat_det(dmd.submatrix(s_rows, t_cols))
                det2 = mat_det(dmbard.submatrix(s_rows, t_cols))
                term = det1 * det2
                acc = term if acc is None else acc + term
        return acc

    def _p1_packed(self, m):
        """p_1 on the packed kernel (see the class docstring)."""
        dp = self._d_packed
        dmd = dp.matmul(PackedSeriesMat.pack(m)).matmul(dp)
        conj = [(lo, hi, v, tuple([(e, re, -im) for e, re, im in t]))
                for lo, hi, v, t in dmd.entries]
        val = PackedSeriesMat(1, 1, dmd.den ** 2, [_dot(zip(dmd.entries, conj))])
        val = val.unpack().data[0]
        return val if m.has_series_entries() else val.coeff(0)

    def eval(self, m, ctx=None):
        ctx = ctx or EvalContext()
        mode = ctx.conj_mode
        d = self.d_mat
        packed = self._d_packed is not None and all(map(_liftable, m.data))
        if mode in ("minor", "both") or not packed:
            dmd = _sandwich(d, m, d)
        if mode in ("direct", "both"):
            if packed:
                direct = self._p1_packed(m)
            else:
                if self._d_real:
                    dmbard = dmd.conj()  # real D: conj(D M D) = D conj(M) D
                else:
                    dmbard = _sandwich(self._d_conj, m.conj(), self._d_conj)
                direct = self._value(dmd, dmbard)
        if mode in ("minor", "both"):
            viaminor = self._value(dmd, _sandwich(d, self._conj_matrix_minor(m), d))
        if mode == "direct":
            return direct
        if mode == "minor":
            return viaminor
        same = (direct.eq_on_window(viaminor) if isinstance(direct, EpsLaurent)
                else direct == viaminor)
        if not same:
            raise SepFunctionError(
                "dual-path conjugation mismatch: argument is not in the group"
            )
        return direct

    def to_json(self):
        return {
            "kind": self.kind,
            "k": self.k,
            "d": _mat_json(self.d_mat),
            "q": _mat_json(self.q_mat) if self.q_mat is not None else None,
        }

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["k"], _mat_unjson(obj["d"]),
                   _mat_unjson(obj["q"]) if obj.get("q") else None)


def _sandwich(l_mat, m, r_mat):
    lm = _coerce_const_mat(l_mat, m)
    rm = _coerce_const_mat(r_mat, m)
    return lm.matmul(m).matmul(rm)


def _coerce_const_mat(c: Mat, like: Mat) -> Mat:
    """c with complex entries when like holds floats, else c itself."""
    if any(isinstance(x, (float, complex)) for x in like.data):
        return c.map(complex)
    return c


class Sandwich(SepFunction):
    """Evaluate the child at L @ M @ R for constant exact matrices L, R."""

    kind = "sandwich"

    def __init__(self, l_mat: Mat, r_mat: Mat, child: SepFunction):
        self.l_mat = l_mat
        self.r_mat = r_mat
        self.child = child

    @property
    def degree(self):
        return self.child.degree

    def eval(self, m, ctx=None):
        return self.child.eval(_sandwich(self.l_mat, m, self.r_mat), ctx)

    def to_json(self):
        return {"kind": self.kind, "l": _mat_json(self.l_mat),
                "r": _mat_json(self.r_mat), "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(_mat_unjson(obj["l"]), _mat_unjson(obj["r"]),
                   SepFunction.from_json(obj["child"]))


class LinearForm(SepFunction):
    """A real-linear scalar-valued form in the matrix entries.

    value(M) = sum_jk [ rr[j,k] Re M[j,k] + ri[j,k] Im M[j,k] ]
             + i * sum_jk [ ir[j,k] Re M[j,k] + ii[j,k] Im M[j,k] ]
    with exact rational coefficient matrices.  eps is real, so Re and Im act
    on series coefficientwise.  Evaluation always runs on the packed integer
    path (exact entries are lifted to constant series); an exact argument
    gets that path's constant term.
    """

    kind = "linear_form"

    def __init__(self, rr, ri, ir, ii):
        self.rr = rr
        self.ri = ri
        self.ir = ir
        self.ii = ii
        # the four coefficient matrices over one common denominator, kept per
        # entry with a nonzero coefficient as (index, rr, ri, ir, ii) numerators
        cells = [tuple(as_qq(c) for c in cell)
                 for cell in zip(rr.data, ri.data, ir.data, ii.data)]
        den = math.lcm(*(c.denominator for cell in cells for c in cell))
        self._den = den
        self._terms = tuple(
            (idx, *(c.numerator * (den // c.denominator) for c in cell))
            for idx, cell in enumerate(cells) if any(cell))

    @property
    def degree(self):
        return 1

    def eval(self, m, ctx=None):
        v = self._eval_packed(m)
        return v if m.has_series_entries() else v.coeff(0)

    def _eval_packed(self, m):
        """The boxed sum of coef_r * Re(x) + coef_i * Im(x), on integers.

        Each term's window is that of a product with an exact nonzero
        constant: it starts at the valuation of the part it scales (the
        entry's hi when that part is zero on the window) and ends at the
        entry's hi.  The sum takes the minimum of both edges over the terms
        with a nonzero coefficient, starting from the constant 0, and keeps no
        coefficient beyond its hi.
        """
        entries = PackedSeriesMat.pack(m)
        lo, hi = 0, INF_ORDER
        re_acc = {}
        im_acc = {}
        for idx, rr, ri, ir, ii in self._terms:
            _, ehi, _, terms = entries.entries[idx]
            if ehi < hi:
                hi = ehi
            for coef_re, coef_im, part in ((rr, ir, 1), (ri, ii, 2)):
                if not (coef_re or coef_im):
                    continue
                v = ehi
                for term in terms:
                    x = term[part]
                    if x:
                        e = term[0]
                        if e < v:
                            v = e
                        re_acc[e] = re_acc.get(e, 0) + coef_re * x
                        im_acc[e] = im_acc.get(e, 0) + coef_im * x
                if v < lo:
                    lo = v
        den = self._den * entries.den
        cc = {}
        for e in sorted(re_acc):
            re, im = re_acc[e], im_acc[e]
            if e <= hi and (re or im):
                cc[e] = GaussRational.from_qq(QQ(re, den), QQ(im, den))
        out = EpsLaurent.zero()
        out.coeffs, out.lo, out.hi = cc, lo, hi
        return out

    def to_json(self):
        def ser(mat):
            return [[qq_str(x) for x in mat.row(i)] for i in range(mat.rows)]
        return {"kind": self.kind, "rr": ser(self.rr), "ri": ser(self.ri),
                "ir": ser(self.ir), "ii": ser(self.ii)}

    @classmethod
    def _from_json(cls, obj):
        def de(rows):
            return Mat.from_rows([[as_qq(x) for x in r] for r in rows])
        return cls(de(obj["rr"]), de(obj["ri"]), de(obj["ir"]), de(obj["ii"]))


class PolyApply(SepFunction):
    kind = "poly"

    def __init__(self, poly: UniPoly, child: SepFunction):
        self.poly = poly
        self.child = child

    @property
    def degree(self):
        return self.poly.degree * self.child.degree

    def eval(self, m, ctx=None):
        return self.poly(self.child.eval(m, ctx))

    def to_json(self):
        return {"kind": self.kind, "poly": self.poly.to_json(), "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(UniPoly.from_json(obj["poly"]), SepFunction.from_json(obj["child"]))


class Product(SepFunction):
    kind = "product"

    def __init__(self, children):
        self.children = list(children)

    @property
    def degree(self):
        return sum(c.degree for c in self.children)

    @staticmethod
    def combine(values):
        """The left-to-right product of values, and 1 when there are none."""
        acc = None
        for v in values:
            acc = v if acc is None else acc * v
        return acc if acc is not None else GaussRational(1)

    def eval(self, m, ctx=None):
        return self.combine(c.eval(m, ctx) for c in self.children)

    def to_json(self):
        return {"kind": self.kind, "children": [c.to_json() for c in self.children]}

    @classmethod
    def _from_json(cls, obj):
        return cls([SepFunction.from_json(c) for c in obj["children"]])


class SumNode(SepFunction):
    kind = "sum"

    def __init__(self, children):
        self.children = list(children)

    @property
    def degree(self):
        return max((c.degree for c in self.children), default=0)

    def eval(self, m, ctx=None):
        acc = None
        for c in self.children:
            v = c.eval(m, ctx)
            acc = v if acc is None else acc + v
        return acc if acc is not None else GaussRational(0)

    def to_json(self):
        return {"kind": self.kind, "children": [c.to_json() for c in self.children]}

    @classmethod
    def _from_json(cls, obj):
        return cls([SepFunction.from_json(c) for c in obj["children"]])


class Affine(SepFunction):
    """a * child + b (exact scalar shift/scale)."""

    kind = "affine"

    def __init__(self, a, b, child: SepFunction):
        self.a = GaussRational.from_any(a)
        self.b = GaussRational.from_any(b)
        self.child = child

    @property
    def degree(self):
        return self.child.degree

    def eval(self, m, ctx=None):
        v = self.child.eval(m, ctx)
        # a series product, even by 1, narrows lo to the valuation; a = 1
        # keeps the child's window as it is
        return (v if self.a == 1 else self.a * v) + self.b

    def to_json(self):
        return {"kind": self.kind, "a": self.a.to_json(), "b": self.b.to_json(),
                "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(GaussRational.from_json(obj["a"]), GaussRational.from_json(obj["b"]),
                   SepFunction.from_json(obj["child"]))


class DivEps(SepFunction):
    """Divide the (series) child value by eps^k; scales under reparametrization."""

    kind = "div_eps"

    def __init__(self, k: int, child: SepFunction):
        self.k = k
        self.child = child

    @property
    def degree(self):
        return self.child.degree

    def eval(self, m, ctx=None):
        ctx = ctx or EvalContext()
        v = self.child.eval(m, ctx)
        if not isinstance(v, EpsLaurent):
            raise SepFunctionError("division by eps needs a series argument")
        return v.shift(-self.k * ctx.eps_scale)

    def to_json(self):
        return {"kind": self.kind, "k": self.k, "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["k"], SepFunction.from_json(obj["child"]))


class Reparam(SepFunction):
    """Evaluate the child with its own eps replaced by eps^t.

    The matrix argument is expected to be supplied already in the new
    parameter; this node only rescales the expression's internal eps usage
    (its divisions by eps).
    """

    kind = "reparam"

    def __init__(self, t: int, child: SepFunction):
        if t < 1:
            raise SepFunctionError("reparametrization exponent must be >= 1")
        self.t = t
        self.child = child

    @property
    def degree(self):
        return self.child.degree

    def eval(self, m, ctx=None):
        ctx = ctx or EvalContext()
        return self.child.eval(m, ctx.scaled(self.t))

    def to_json(self):
        return {"kind": self.kind, "t": self.t, "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["t"], SepFunction.from_json(obj["child"]))


def _mat_json(m: Mat):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[GaussRational.from_any(x).to_json() for x in m.row(i)]
                    for i in range(m.rows)],
    }


def _mat_unjson(obj) -> Mat:
    return Mat.from_rows([[GaussRational.from_json(x) for x in row]
                          for row in obj["entries"]])


_NODE_KINDS = {
    cls.kind: cls
    for cls in (Entry, LeadingMinor, MinorInvariant, Sandwich, LinearForm,
                PolyApply, Product, SumNode, Affine, DivEps, Reparam)
}
