"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` stores the Taylor coefficients of a smooth function of the 2n
chart variables (x_1..x_n, y_1..y_n) around a base point, truncated at
total x-degree ``px`` and total y-degree ``py``.  All pipeline quantities
(metric tensor, spray, connection, curvature, scalar curvature and its
vertical derivatives) are obtained from a single jet evaluation of the
fundamental function followed by *formal* differentiation, which is exact
to machine precision.

A jet's validity budget (px, py) -- how many more formal x-/y-
derivatives may be taken before truncation error reaches the constant
term -- is its space, ``get_space(n, px, py)``; exceeding it raises
:class:`OrderUnsupported`.  Monomials are in graded order, so a smaller
space is the top-left block of a larger space's (NX, NY) coefficient
grid: restriction is a slice, and when only x shrinks the row prefix, a
view.  Jets are never written after construction, so views are safe.  A
binary operation reads its operands at the budget they share, as in
truncated Taylor arithmetic.  A formal derivative is one gather into the
space one order lower, by a plan its space builds on first use.

A jet's support (sx, sy) <= (px, py) says that its coefficients outside
the top-left (sx, sy) block of the grid are exact zeros: x seeds have
(1, 0), y seeds (0, 1), constants (0, 0), and ``Jet(space, c)`` full
support.  A sum takes the larger support per axis, a product the sum
(capped at the budget), a derivative one order less, and a series the
full budget on each axis its argument depends on.  Each product and
series runs in the space of its support, on its operands' blocks: the
pairs I + J = K are the same, in the same order, in every space that
holds K, so only the sign of a zero differs from the full table.

Elementary functions (reciprocal, sqrt, powers, exp, log, sin, cos) are
solved degree by degree: each solves a first-order equation in the Euler
operator, so its coefficients of total degree d follow from those below
d, at about the cost of one product (``_solve``).  So is the inverse of
a matrix jet, from M V = I (``jet_matrix_inverse``).

Coefficient arrays have shape ``(T, *trailing)``: T monomials of the
jet's own budget, then tensor components, so whole tensors of jets are
handled by vectorized numpy operations.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import EvalDomainError, OrderUnsupported

_DIV_EPS = 1e-300


def _align(ca, cb):
    """Pad trailing (component) dims so two coefficient arrays broadcast."""
    nd = max(ca.ndim, cb.ndim)
    if ca.ndim < nd:
        ca = ca.reshape(ca.shape[:1] + (1,) * (nd - ca.ndim) + ca.shape[1:])
    if cb.ndim < nd:
        cb = cb.reshape(cb.shape[:1] + (1,) * (nd - cb.ndim) + cb.shape[1:])
    return ca, cb


def _monomials(nvars, maxdeg):
    """All exponent tuples in ``nvars`` variables of total degree <= maxdeg,
    graded order (constant first)."""
    out = []
    for d in range(maxdeg + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    return out


class _Group:
    """Exponent table of one variable group (x or y), with a lookup from
    exponent rows back to monomial ids."""

    def __init__(self, nvars, maxdeg):
        self.monos = _monomials(nvars, maxdeg)
        self.maxdeg = maxdeg
        self.M = np.array(self.monos, dtype=np.int64).reshape(-1, nvars)
        # base-(maxdeg+1) digits: exponent sums within the cap add
        # without carry, so key(a + b) == key(a) + key(b)
        self.place = (maxdeg + 1) ** np.arange(nvars, dtype=np.int64)
        self.key = self.M @ self.place
        self._order = np.argsort(self.key)
        # formal d/dv: monomial m below the cap (a prefix, as graded) times
        # v is monomial ids[m, v], whose exponent of v is m's plus one
        low = self.M[self.M.sum(axis=1) < maxdeg]
        self.up = (self.locate((low @ self.place)[:, None] + self.place),
                   low + 1.0)  # (ids, exponents)

    def locate(self, keys):
        return self._order[np.searchsorted(self.key, keys,
                                           sorter=self._order)]

    def pair_table(self):
        """Index triples (i, j, k) with mono[i]*mono[j] == mono[k] within
        the cap, i-major then j."""
        deg = self.M.sum(axis=1)
        ia, ib = np.nonzero(deg[:, None] + deg[None, :] <= self.maxdeg)
        return ia, ib, self.locate(self.key[ia] + self.key[ib])


@functools.lru_cache(maxsize=None)
def _group(nvars, maxdeg):
    """One table per variable group, shared by every space that uses it."""
    return _Group(nvars, maxdeg)


class JetSpace:
    """Monomial bookkeeping for jets in n x-variables and n y-variables,
    truncated at total x-degree px and total y-degree py."""

    def __init__(self, n, px, py):
        self.n = n
        self.px = px
        self.py = py
        gx = _group(n, px)
        gy = _group(n, py)
        self.xm = gx.monos
        self.ym = gy.monos
        self.NX = len(self.xm)
        self.NY = len(self.ym)
        self.T = self.NX * self.NY

        xa, xb, xc = gx.pair_table()
        ya, yb, yc = gy.pair_table()
        NY = self.NY
        I = (xa[:, None] * NY + ya[None, :]).ravel()
        J = (xb[:, None] * NY + yb[None, :]).ravel()
        K = (xc[:, None] * NY + yc[None, :]).ravel()
        # group pairs by K; a stable sort keeps generation order inside
        # each group, and on keys of 16 bits or less numpy's is a radix sort
        order = np.argsort(K.astype(np.min_scalar_type(self.T)), kind="stable")
        self.mI = I[order]
        self.mJ = J[order]
        # every monomial k has at least the pair (constant, k), so the
        # sorted groups are exactly monomials 0..T-1, in order
        counts = np.bincount(K, minlength=self.T)
        self.red_starts = np.cumsum(counts) - counts

    @functools.cached_property
    def graded(self):
        """The total degree of each monomial (as floats), and for each total
        degree d >= 1 the product pairs (I, J) -> K with deg K = d and
        I != 0, grouped by K as in the product table: a tuple (K of each
        group, I, J, group starts).  Only series read it, so it is built
        on first use."""
        deg = (_group(self.n, self.px).M.sum(axis=1)[:, None]
               + _group(self.n, self.py).M.sum(axis=1)[None, :]).ravel()
        K = np.repeat(np.arange(self.T),
                      np.diff(self.red_starts, append=len(self.mI)))
        keep = np.flatnonzero(self.mI)
        # a stable sort keeps the groups, and the pairs inside each, in order
        keep = keep[np.argsort(deg[K[keep]], kind="stable")]
        I, J, K = self.mI[keep], self.mJ[keep], K[keep]
        ends = np.searchsorted(deg[K], np.arange(1, self.px + self.py + 2))
        out = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            starts = np.flatnonzero(np.diff(K[lo:hi], prepend=-1))
            out.append((K[lo:hi][starts], I[lo:hi], J[lo:hi], starts))
        return deg.astype(float), out

    def _deriv_plan(self, axis):
        """d_x (axis 0) or d_y (1): the space one order lower on that axis,
        and (sub.T, n) tables of the index here of each of its monomials
        times variable q, and of the exponent of q in that monomial."""
        sub = get_space(self.n, self.px + axis - 1, self.py - axis)
        ids, mul = _group(self.n, (self.px, self.py)[axis]).up
        if axis:  # (NX, sub.NY, n): row i, column ids[j, q]
            idx = np.arange(self.NX)[:, None, None] * self.NY + ids
        else:  # (sub.NX, NY, n): row ids[i, q], column j
            ids, mul = ids[:, None], mul[:, None]
            idx = ids * self.NY + np.arange(self.NY)[:, None]
        mul = np.broadcast_to(mul, idx.shape).reshape(sub.T, self.n)
        return sub, idx.reshape(sub.T, self.n), mul

    x_plan = functools.cached_property(lambda self: self._deriv_plan(0))
    y_plan = functools.cached_property(lambda self: self._deriv_plan(1))

    # ---- constructors -------------------------------------------------
    def constant(self, value):
        value = np.asarray(value, dtype=float)
        c = np.zeros((self.T,) + value.shape)
        c[0] = value
        return Jet(self, c, (0, 0))

    def seed(self, x, y):
        """Seed jets for a full sample point; returns (x_jets, y_jets)
        lists.  In graded order variable q is monomial 1 + q of its
        group; at a zero-order budget a seed is its constant value."""
        def variable(value, mono, order, support):
            jet = self.constant(value)
            if order >= 1:
                jet.c[mono] = 1.0
                jet.support = support
            return jet

        return ([variable(x[q], (1 + q) * self.NY, self.px, (1, 0))
                 for q in range(self.n)],
                [variable(y[q], 1 + q, self.py, (0, 1))
                 for q in range(self.n)])


@functools.lru_cache(maxsize=None)
def get_space(n, px, py):
    return JetSpace(n, px, py)


def restrict(jet, px, py):
    """``jet`` truncated to the smaller budget (px, py): the top-left
    block of its (NX, NY) coefficient grid, since monomials are graded."""
    sp = jet.space
    if (px, py) == (sp.px, sp.py):
        return jet
    if not (0 <= px <= sp.px and 0 <= py <= sp.py):
        raise OrderUnsupported(f"budget (x:{px}, y:{py}) is not within "
                               f"the jet's (x:{sp.px}, y:{sp.py})")
    sub = get_space(sp.n, px, py)
    grid = jet.c.reshape((sp.NX, sp.NY) + jet.shape)
    c = grid[:sub.NX, :sub.NY].reshape((sub.T,) + jet.shape)
    return Jet(sub, c, tuple(map(min, jet.support, (px, py))))


def _widen(c, sub, sp):
    """The jet of budget ``sp`` and support ``sub`` whose block is c."""
    if sub is not sp:
        out = np.zeros((sp.T,) + c.shape[1:], dtype=c.dtype)
        out.reshape((sp.NX, sp.NY) + c.shape[1:])[:sub.NX, :sub.NY] = (
            c.reshape((sub.NX, sub.NY) + c.shape[1:]))
        c = out
    return Jet(sp, c, (sub.px, sub.py))


def shared(jets):
    """The jets restricted to the budget they all share."""
    spaces = [jet.space for jet in jets]
    if spaces.count(spaces[0]) == len(spaces):  # one space: as they are
        return jets
    if len({sp.n for sp in spaces}) > 1:
        raise ValueError("jets in different dimensions")
    px, py = min([sp.px for sp in spaces]), min([sp.py for sp in spaces])
    return [restrict(jet, px, py) for jet in jets]


class Jet:
    """Tensor-valued truncated Taylor expansion; see module docstring."""

    __slots__ = ("space", "c", "support")
    __array_ufunc__ = None  # keep numpy from elementwise-broadcasting us

    def __init__(self, space, c, support=None):
        self.space = space
        self.c = c
        self.support = (space.px, space.py) if support is None else support

    # ---- basic info ---------------------------------------------------
    @property
    def shape(self):
        return self.c.shape[1:]

    def value(self):
        """Constant term (the value of the field at the base point)."""
        v = self.c[0]
        return float(v) if v.ndim == 0 else np.array(v)

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Jet):
            other = self.space.constant(other)
        a, b = shared([self, other])
        ca, cb = _align(a.c, b.c)
        return Jet(a.space, ca + cb, tuple(map(max, a.support, b.support)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.support)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet)
                       else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            ca, cb = _align(self.c, np.asarray(other, dtype=float)[None])
            return Jet(self.space, ca * cb, self.support)
        return _product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        return jpow(self, p)

    # ---- structure ----------------------------------------------------
    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.c[(slice(None),) + idx], self.support)

    def tr(self, *perm):
        """Permute trailing (component) axes."""
        axes = (0,) + tuple(p + 1 for p in perm)
        return Jet(self.space, self.c.transpose(axes), self.support)

    def trace(self, a, b):
        """Contract two trailing axes of equal extent."""
        c = np.diagonal(self.c, axis1=a + 1, axis2=b + 1).sum(axis=-1)
        return Jet(self.space, c, self.support)

    # ---- formal differentiation --------------------------------------
    def dx(self, q):
        return d_x(self)[..., q]

    def dy(self, q):
        return d_y(self)[..., q]

    # ---- analytic functions ------------------------------------------
    def reciprocal(self):
        u0 = np.asarray(self.c[0])
        if np.any(np.abs(u0) < _DIV_EPS):
            raise EvalDomainError("division by (near) zero")
        return _solve(self, 1.0 / u0, u0, -1.0, -1.0)


def _convolve(I, J, starts, a, b, op=np.multiply):
    """The kernel of products and series: per pair group from ``starts``,
    sum op(a[I], b[J]); the method take is faster than a[I] and than
    np.take, which wraps it."""
    prod = op(a.take(I, axis=0), b.take(J, axis=0))
    return np.add.reduceat(prod, starts, axis=0)


def _product(a, b, op=np.multiply):
    """a times b at the budget they share, run in the space of the sum of
    their supports on the operands' blocks of it."""
    if a.space.n != b.space.n:
        raise ValueError("jets in different dimensions")
    px, py = min(a.space.px, b.space.px), min(a.space.py, b.space.py)
    sub = get_space(a.space.n, min(a.support[0] + b.support[0], px),
                    min(a.support[1] + b.support[1], py))
    a, b = restrict(a, sub.px, sub.py), restrict(b, sub.px, sub.py)
    ca, cb = _align(a.c, b.c) if op is np.multiply else (a.c, b.c)
    c = _convolve(sub.mI, sub.mJ, sub.red_starts, ca, cb, op)
    return _widen(c, sub, get_space(a.space.n, px, py))


def _solve(u, v0, scale, wI, wJ, du=0.0):
    """The series v = f(u) with constant term v0, solved degree by degree.

    The Euler operator D multiplies a monomial of total degree d by d.
    Each f here solves a first-order equation in D whose coefficient at a
    monomial K of degree d reads

        scale d v_K = du d u_K + sum_{I+J=K, I!=0} (wI deg I + wJ deg J) u_I v_J

    u^p (u Dv = p v Du): scale u0, wI p, wJ -1; exp (Dv = v Du): scale 1,
    wI 1, wJ 0; log (u Dv = Du): scale u0, wI 0, wJ -1, du 1.  The sum
    reads v only below degree d; as deg J = d - deg I it is sum z_I v_J
    with z = (wI - wJ) Du + wJ d u, one pass over the degree's pairs.  D
    maps the truncated monomials into themselves, so v is exact within
    the jet's budget.  v0 and wI may be complex (``_cis``).  An axis u
    does not depend on stays at order 0."""
    sp = u.space
    sx, sy = u.support
    sub = get_space(sp.n, sp.px if sx else 0, sp.py if sy else 0)
    uc = restrict(u, sub.px, sub.py).c
    deg, tables = sub.graded
    Du = deg.reshape((-1,) + (1,) * (uc.ndim - 1)) * uc
    v = np.zeros(uc.shape, dtype=np.result_type(v0, wI))
    v[0] = v0
    for d, (K, I, J, starts) in enumerate(tables, 1):
        z = (wI - wJ) * Du + (wJ * d) * uc
        acc = _convolve(I, J, starts, z, v)
        if du:
            acc += du * d * uc[K]
        v[K] = acc / (scale * d)
    return _widen(v, sub, sp)


def _cis(u, part):
    """exp(i u) as one complex series: its real part is cos u and its
    imaginary part sin u, so d s_K = sum deg I u_I c_J and d c_K =
    -sum deg I u_I s_J come from one pass.  ``part`` picks one."""
    u0 = np.asarray(u.c[0])
    v = _solve(u, np.cos(u0) + 1j * np.sin(u0), 1.0, 1j, 0.0)
    return Jet(v.space, part(v.c).copy(), v.support)


def _arg(u, what, zero_ok=False):
    """The value of u (a float, an array or a jet's constant term), if no
    element is <= 0 (with zero_ok, < 0); EvalDomainError otherwise."""
    u0 = np.asarray(u.c[0] if isinstance(u, Jet) else u)
    if np.any(u0 < 0.0 if zero_ok else u0 <= 0.0):
        sign = "negative" if zero_ok else "non-positive"
        raise EvalDomainError(f"{what} of a {sign} value")
    return u0


# generic math functions for metric evaluators: each takes a float, an
# array (elementwise) or a jet, and checks its argument alike
def sqrt(u):
    if not isinstance(u, Jet):  # defined at 0, unlike its derivatives
        return np.sqrt(_arg(u, "sqrt", zero_ok=True))
    u0 = _arg(u, "sqrt")
    return _solve(u, np.sqrt(u0), u0, 0.5, -1.0)


def jpow(u, p):
    """u^p, each of u and p a float, an array (elementwise) or a jet.  A
    jet exponent is exp(p log u), for u > 0; an integral p is a product of
    jets, or np.power; any other p needs u > 0 for a jet and u >= 0
    otherwise, as under sqrt."""
    if not isinstance(u, Jet) and not isinstance(p, Jet):
        _arg(np.where(np.floor(p) != p, u, 0.0), "non-integer power",
             zero_ok=True)
        if np.any((np.asarray(u) == 0.0) & (np.asarray(p) < 0.0)):
            raise EvalDomainError("division by zero")
        return np.power(u, p)
    if not isinstance(p, Jet) and float(p).is_integer():
        if p == 0:
            return u.space.constant(np.ones(u.shape))
        if p < 0:
            return jpow(u.reciprocal(), -p)
        return functools.reduce(Jet.__mul__, [u] * int(p))
    u0 = _arg(u, "non-integer power")
    if isinstance(p, Jet):
        return exp(p * log(u))
    return _solve(u, u0 ** p, u0, p, -1.0)


def exp(u):
    if not isinstance(u, Jet):
        return np.exp(u)
    return _solve(u, np.exp(np.asarray(u.c[0])), 1.0, 1.0, 0.0)


def log(u):
    u0 = _arg(u, "log")
    if not isinstance(u, Jet):
        return np.log(u)
    return _solve(u, np.log(u0), u0, 0.0, -1.0, du=1.0)


def sin(u):
    if not isinstance(u, Jet):
        return np.sin(u)
    return _cis(u, np.imag)


def cos(u):
    if not isinstance(u, Jet):
        return np.cos(u)
    return _cis(u, np.real)


def dot(u, v):
    """sum_i u[i] v[i] over two sequences of generic scalars."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def jstack(jets):
    """Stack same-shaped jets along a new last trailing axis."""
    jets = shared(jets)
    return Jet(jets[0].space, np.stack([j.c for j in jets], axis=-1),
               tuple(map(max, zip(*(j.support for j in jets)))))


def _derivatives(jet, axis):
    """All n formal derivatives along one variable group (axis 0: x, 1:
    y), on a new last trailing axis: one order lower on that axis, and
    support one lower.  The gather puts the variable second; the
    multiply writes it last."""
    sp, k = jet.space, jet.c.ndim - 1
    if (sp.px, sp.py)[axis] <= 0:
        raise OrderUnsupported(f"{'xy'[axis]}-derivative budget exhausted")
    sub, idx, mul = sp.y_plan if axis else sp.x_plan
    out = np.empty((sub.T,) + jet.shape + (sp.n,))
    np.multiply(jet.c.take(idx, axis=0).transpose(0, *range(2, k + 2), 1),
                mul.reshape((sub.T,) + (1,) * k + (sp.n,)), out=out)
    sx, sy = jet.support
    return Jet(sub, out, (max(sx + axis - 1, 0), max(sy - axis, 0)))


def d_x(jet):
    """All x-derivatives, appended as a new last trailing axis."""
    return _derivatives(jet, 0)


def d_y(jet):
    """All y-derivatives, appended as a new last trailing axis."""
    return _derivatives(jet, 1)


def jet_einsum(subscripts, a, b):
    """Einsum over trailing (component) axes of two jets, convolving the
    Taylor coefficients.  ``subscripts`` uses lowercase labels ('Z' is
    reserved for the coefficient-pair axis)."""
    spec = "Z" + subscripts.replace(",", ",Z").replace("->", "->Z")
    return _product(a, b, functools.partial(np.einsum, spec))


def jet_matrix_inverse(m):
    """Inverse V of a square-matrix-valued jet M, solved degree by degree
    from M V = I: V_0 = M_0^-1 and, at a monomial K of degree d,

        V_K = -V_0 sum_{I+J=K, I!=0} M_I V_J,

    which reads V only below degree d: one batched matmul per degree.  As
    in ``_solve``, an axis M does not depend on stays at order 0.  M_0
    must be well conditioned, a test that does not depend on M's scale."""
    sp = m.space
    sx, sy = m.support
    sub = get_space(sp.n, sp.px if sx else 0, sp.py if sy else 0)
    mc = restrict(m, sub.px, sub.py).c
    if not np.isfinite(mc[0]).all() or np.linalg.cond(mc[0]) > 1e14:
        raise EvalDomainError("singular matrix in jet inversion")
    v = np.zeros_like(mc)
    v[0] = np.linalg.inv(mc[0])
    for K, I, J, starts in sub.graded[1]:
        v[K] = -v[0] @ _convolve(I, J, starts, mc, v, np.matmul)
    return _widen(v, sub, sp)
