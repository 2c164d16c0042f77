"""Evaluable polynomial expressions on matrices with tracked total degree.

A SepFunction is an expression tree over eleven node kinds: matrix entry
access, leading principal minors, the invariant p_1 (the Hermitian form of
D M D), the sandwich L M R by constant matrices, real-linear coordinate
forms, univariate polynomial application, products, sums, scalar affine
maps, division by eps^k, and reparametrization eps -> eps^t.  _NODE_KINDS maps
each JSON "kind" to its class.

Values inside the tree are of one kind, PackedSeriesMat: each node's
_eval takes the packed argument and returns a packed 1x1 value, and each
node has one rule, written in the packed kernel's ring operations (matmul,
add, shift).  Tracked degree is an upper bound on the true total degree in
the matrix entries (eps excluded), exact for products and sums of the
primitives used here.

SepFunction.eval is the one place where other kinds are converted:
  - a PackedSeriesMat is evaluated as it is, and the value stays packed;
  - a Mat is packed once, its exact entries lifted to constant series with
    an unlimited window.  For a Mat with series entries the value is
    unpacked once, an EpsLaurent.  For an exact Mat the value is its exact
    constant term, a GaussRational; a value whose window starts below eps^0
    is refused, since only division by eps puts it there;
  - a Mat with a float or complex entry is refused; no path of the package
    makes one.  Any other argument, such as a table group element, is
    refused.

Univariate polynomials are kept in product form scale * prod (x - root) and
applied to series via their exact Taylor expansion around the argument's
constant term c, so an indicator polynomial with hundreds of roots costs only
a handful of series multiplications per evaluation.  The Taylor coefficients
are computed on Gaussian integers over one denominator: with c and the roots
over L = lcm(den c, den roots), each factor c + h - r_i is (B_i + L h)/L for
a Gaussian integer B_i, and the recurrence P_k <- P_k B_i + P_(k-1) builds
the coefficients P_k of prod (B_i + u), so the h^k coefficient is
scale * P_k * L^k / L^deg.  They are cached per expansion point.  The value
alone (order 0) at a root is 0 with no expansion: a set of the roots in
lowest terms, built once per polynomial on first use, finds it.
"""

from __future__ import annotations

import math

# mat_det stays bound here: perfbench's tracer counts determinants through it
from .matrices import Mat, PackedSeriesMat, lpm as mat_lpm, mat_det  # noqa: F401
from .scalars import GaussRational, as_qq, qq_str
from .series import (
    INF_ORDER,
    InsufficientOrderError,
    _conj_entry,
    _const_entry,
    _dot,
    _entry,
)


class SepFunctionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Univariate polynomials in product form around exact roots
# ---------------------------------------------------------------------------

def _over_common_den(values):
    """(numerator pairs, den): Gaussian rationals over their lcm denominator."""
    den = math.lcm(1, *(d for v in values for d in (v.re.denominator, v.im.denominator)))
    return [(v.re.numerator * (den // v.re.denominator),
             v.im.numerator * (den // v.im.denominator)) for v in values], den


class UniPoly:
    """The univariate polynomial scale * prod (x - root_i)."""

    def __init__(self, roots, scale=1):
        self.roots = [GaussRational.from_any(r) for r in roots]
        self.scale = GaussRational.from_any(scale)
        self._roots_num, self._roots_den = _over_common_den(self.roots)
        (self._scale_num,), self._scale_den = _over_common_den([self.scale])
        self._root_keys = None      # set on the first taylor call at order 0
        self._taylor_cache: dict = {}

    @property
    def degree(self) -> int:
        return len(self.roots)

    # -- evaluation ---------------------------------------------------------
    def taylor(self, c, order: int):
        """Taylor coefficients of p(c + h) in h up to h^order, on integers.

        c is (re, im, den) in lowest terms.  Returns (numerators, den): the
        coefficient of h^k is (re_k + i im_k) / den, the numerator pairs
        and den divided by their common gcd (see the module docstring).  At
        order 0, a c equal to a root in lowest terms gives t_0 = 0 with no
        expansion: ([(0, 0)], 1), what that gcd reduction leaves.
        """
        if order == 0:
            if self._root_keys is None:
                # each root as (re, im, den) in lowest terms, the form of c
                self._root_keys = {(re, im, den) for ((re, im),), den
                                   in map(_over_common_den, ([r] for r in self.roots))}
            if c in self._root_keys:
                return [(0, 0)], 1
        cached = self._taylor_cache.get(c)
        if cached is not None and len(cached[0]) > order:
            return cached
        c_re, c_im, c_den = c
        den_l = math.lcm(c_den, self._roots_den)
        sc, sr = den_l // c_den, den_l // self._roots_den
        c_re, c_im = c_re * sc, c_im * sc
        order_full = min(order, self.degree)
        p_re = [1] + [0] * order_full
        p_im = [0] * (order_full + 1)
        deg_so_far = 0
        for r_re, r_im in self._roots_num:
            b_re, b_im = c_re - r_re * sr, c_im - r_im * sr
            deg_so_far = min(deg_so_far + 1, order_full)
            for k in range(deg_so_far, 0, -1):
                x_re, x_im = p_re[k], p_im[k]
                p_re[k] = x_re * b_re - x_im * b_im + p_re[k - 1]
                p_im[k] = x_re * b_im + x_im * b_re + p_im[k - 1]
            x_re, x_im = p_re[0], p_im[0]
            p_re[0] = x_re * b_re - x_im * b_im
            p_im[0] = x_re * b_im + x_im * b_re
        s_re, s_im = self._scale_num
        den = self._scale_den * den_l ** self.degree
        nums = []
        for k in range(order_full + 1):
            re, im = p_re[k] * den_l ** k, p_im[k] * den_l ** k
            nums.append((s_re * re - s_im * im, s_re * im + s_im * re))
        nums += [(0, 0)] * (order + 1 - len(nums))
        g = math.gcd(den, *[x for pair in nums for x in pair])
        out = [(re // g, im // g) for re, im in nums], den // g
        self._taylor_cache[c] = out
        return out

    def eval_series(self, x: PackedSeriesMat) -> PackedSeriesMat:
        """p(x) for a packed 1x1 x.

        With c the constant term of x (an unknown one raises) and h = x - c,
        p(x) = t_0 + sum_k t_k h^k, the t_k from taylor, summed as series
        products over every power of h when h has a negative power, else over
        as many as x's window reaches.  On an unlimited window with h zero,
        x is the exact constant c and p(x) = t_0.  A nonconstant p is
        truncated to x's own window.
        """
        lo, hi, _, terms = x.entries[0]
        if hi < 0:
            raise InsufficientOrderError(f"coefficient at eps^0 unknown (window [{lo},{hi}])")
        den = x.den
        c_re, c_im = next(((re, im) for e, re, im in terms if e == 0), (0, 0))
        g = math.gcd(c_re, c_im, den)
        # h = x - c: x's terms without eps^0, on the window [min(lo, 0), hi]
        h_terms = tuple([t for t in terms if t[0] != 0])
        h = _entry(min(lo, 0), hi, h_terms)
        if h_terms and h_terms[0][0] < 0:
            needed = self.degree
        elif hi < INF_ORDER:
            needed = min(self.degree, hi)
        else:
            needed = self.degree if h_terms else 0
        nums, t_den = self.taylor((c_re // g, c_im // g, den // g), needed)
        # every t_k h^k over t_den * den^needed: t_k carries den^(needed - k)
        pairs = []
        hpow = h
        for k in range(1, needed + 1):
            if k > 1:
                hpow = _dot([(hpow, h)])
            f = den ** (needed - k)
            re, im = nums[k]
            pairs.append((_const_entry(re * f, im * f), hpow))
        sum_den = t_den * den ** needed
        f = den ** needed
        val = PackedSeriesMat(1, 1, sum_den, [_const_entry(nums[0][0] * f, nums[0][1] * f)])
        if pairs:
            val = val.add(PackedSeriesMat(1, 1, sum_den, [_dot(pairs)]))
        # a nonconstant polynomial of x is never known beyond x's own window
        if self.degree >= 1:
            val = val.truncate(hi)
        return val.reduced()

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

# the packed constants 1 and 0: the empty product and sum, and lpm_0
_ONE = PackedSeriesMat.identity(1)
_ZERO = PackedSeriesMat(1, 1, 1, [_const_entry(0, 0)])


class EvalContext:
    """Evaluation context: the eps scaling that reparametrization sets."""

    __slots__ = ("eps_scale",)

    def __init__(self, eps_scale: int = 1):
        self.eps_scale = eps_scale

    def scaled(self, t: int) -> "EvalContext":
        return EvalContext(self.eps_scale * t)


class SepFunction:
    """Base class; subclasses implement _eval(M, ctx) and degree.

    _eval takes a PackedSeriesMat and returns a packed 1x1 value; children
    are evaluated through eval, so an instance's eval can be wrapped.
    """

    kind = "abstract"

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def eval(self, m, ctx: EvalContext | None = None):
        """The value at m: packed for a packed m, an EpsLaurent for a series
        Mat, the exact constant term for an exact Mat (module docstring)."""
        ctx = ctx or EvalContext()
        if isinstance(m, PackedSeriesMat):
            return self._eval(m, ctx)
        if not isinstance(m, Mat):
            raise SepFunctionError(f"a separating function takes a matrix, not {type(m).__name__}")
        if any(isinstance(x, (float, complex)) for x in m.data):
            raise SepFunctionError("float entries are refused: "
                                   "convert the matrix to exact rationals first")
        value = self._eval(PackedSeriesMat.pack(m), ctx)
        if m.has_series_entries():
            return value.unpack_scalar()
        if value.entries[0][0] < 0:
            raise SepFunctionError("division by eps needs a series argument")
        return value.unpack_scalar().coeff(0)

    def _eval(self, m: PackedSeriesMat, ctx: EvalContext) -> PackedSeriesMat:
        raise NotImplementedError

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

    def _eval(self, m, ctx):
        return m.entry(self.i, self.j)

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

    def _eval(self, m, ctx):
        return mat_lpm(m, self.j) if self.j else _ONE

    def to_json(self):
        return {"kind": self.kind, "j": self.j}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["j"])


class MinorInvariant(SepFunction):
    """p_1(M) = sum_ij |(D M D)_ij|^2, the Hermitian form of D M D.

    It runs on the packed kernel: D is packed once, D M D is two packed
    products, the conjugate is the same entries with negated imaginary
    numerators, and the sum is one matmul entry (series._dot), a packed
    value.  The sep-file node "pk"
    keeps its k and its form matrix q; a k other than 1 is refused.
    """

    kind = "pk"

    def __init__(self, k: int, d_mat: Mat, q_mat: Mat | None = None):
        if k != 1:
            raise SepFunctionError(f"pk node needs k = 1 (got k = {k!r})")
        self.k = k
        self.d_mat = d_mat
        self.q_mat = q_mat
        self._d_packed = PackedSeriesMat.pack(d_mat)

    @property
    def degree(self):
        # degree 1 in the entries and 1 in their conjugates; conjugates of
        # group elements are degree-(n-1) minor polynomials
        return self.d_mat.rows

    def _eval(self, m, ctx):
        dp = self._d_packed
        dmd = dp.matmul(m).matmul(dp)
        conj = map(_conj_entry, dmd.entries)
        return PackedSeriesMat(1, 1, dmd.den ** 2, [_dot(zip(dmd.entries, conj))])

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


class Sandwich(SepFunction):
    """Evaluate the child at L @ M @ R for constant exact matrices L, R."""

    kind = "sandwich"

    def __init__(self, l_mat: Mat, r_mat: Mat, child: SepFunction):
        self.l_mat = l_mat
        self.r_mat = r_mat
        self.child = child
        self._l_packed = PackedSeriesMat.pack(l_mat)
        self._r_packed = PackedSeriesMat.pack(r_mat)

    @property
    def degree(self):
        return self.child.degree

    def _eval(self, m, ctx):
        return self.child.eval(self._l_packed.matmul(m).matmul(self._r_packed), ctx)

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
    on series coefficientwise.  Evaluation runs on the packed integers.
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

    def _eval(self, entries, ctx):
        """The boxed sum of coef_r * Re(x) + coef_i * Im(x), on integers.

        Each term's window is that of a product with an exact nonzero
        constant: it starts at the valuation of the part it scales (the
        entry's hi when that part is zero on the window) and ends at the
        entry's hi.  The sum takes the minimum of both edges over the terms
        with a nonzero coefficient, starting from the constant 0, and keeps no
        coefficient beyond its hi.
        """
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
        terms = tuple([(e, re_acc[e], im_acc[e]) for e in sorted(re_acc)
                       if e <= hi and (re_acc[e] or im_acc[e])])
        return PackedSeriesMat(1, 1, self._den * entries.den,
                               [(lo, hi, terms[0][0] if terms else hi, terms)])

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

    def _eval(self, m, ctx):
        return self.poly.eval_series(self.child.eval(m, ctx))

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
            acc = v if acc is None else acc.matmul(v)
        return acc if acc is not None else _ONE

    def _eval(self, m, ctx):
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

    def _eval(self, m, ctx):
        acc = None
        for c in self.children:
            v = c.eval(m, ctx)
            acc = v if acc is None else acc.add(v)
        return acc if acc is not None else _ZERO

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
        # a series product, even by 1, narrows lo to the valuation; a = 1
        # keeps the child's window as it is
        self._a_packed = None if self.a == 1 else PackedSeriesMat.scalar(self.a)
        self._b_packed = PackedSeriesMat.scalar(self.b)

    @property
    def degree(self):
        return self.child.degree

    def _eval(self, m, ctx):
        v = self.child.eval(m, ctx)
        if self._a_packed is not None:
            v = self._a_packed.matmul(v)
        return v.add(self._b_packed)

    def to_json(self):
        return {"kind": self.kind, "a": self.a.to_json(), "b": self.b.to_json(),
                "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(GaussRational.from_json(obj["a"]), GaussRational.from_json(obj["b"]),
                   SepFunction.from_json(obj["child"]))


class DivEps(SepFunction):
    """Divide the child value by eps^k; scales under reparametrization."""

    kind = "div_eps"

    def __init__(self, k: int, child: SepFunction):
        self.k = k
        self.child = child

    @property
    def degree(self):
        return self.child.degree

    def _eval(self, m, ctx):
        return self.child.eval(m, ctx).shift(-self.k * ctx.eps_scale)

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

    def _eval(self, m, ctx):
        return self.child.eval(m, ctx.scaled(self.t))

    def to_json(self):
        return {"kind": self.kind, "t": self.t, "child": self.child.to_json()}

    @classmethod
    def _from_json(cls, obj):
        return cls(obj["t"], SepFunction.from_json(obj["child"]))


def demand(fn: SepFunction) -> int:
    """The highest eps exponent of the argument that fn's coefficients up to
    eps^0 read, assuming no value has a negative power.

    With every valuation >= 0, a node's coefficients up to eps^e read its
    children's only up to eps^e: a sum, product, polynomial, form, minor or
    sandwich of them has no term below eps^0 to pair with a higher one.
    DivEps(k) reads its child up to eps^(e + k s), s the eps scale, and
    Reparam(t) multiplies s by t, as evaluation does.  A node reads the
    maximum over its children; a leaf reads the argument up to eps^e.
    """
    def walk(node, e, scale):
        if isinstance(node, DivEps):
            return walk(node.child, e + node.k * scale, scale)
        if isinstance(node, Reparam):
            return walk(node.child, e, scale * node.t)
        if isinstance(node, (Product, SumNode)):
            children = node.children
        elif isinstance(node, (PolyApply, Sandwich, Affine)):
            children = [node.child]
        else:
            return e
        return max((walk(c, e, scale) for c in children), default=e)

    return walk(fn, 0, 1)


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
