"""Cylinder functions: local smooth functions of a tagged tuple and a
background configuration, assembled from smooth blocks (polynomials,
Gaussians, compactly supported bumps) that carry analytic gradients. The
analytic route is the oracle the finite-difference form evaluators are
checked against.

Every cylinder function evaluates a batch of B configurations in one call,
`values(xs (B, k, d), ptss (B, m, d)) -> (B,)`, and states its formula there
once; `value(x, pts)` is `values` on a batch of one, so entry b of a batch
has the bits of `value(xs[b], ptss[b])`. A statistic takes one smooth-block
call over the rows of the whole batch and one exact `math.fsum` per
configuration.

Smooth blocks evaluate a whole (n, d) point array in one call (`values`,
`gradients`); the one-point `value` and `gradient` are that call on a single
row, so every row has the bits of the one-point route. Two numpy shortcuts
would break that: numpy's SIMD `np.exp` differs from `math.exp` in the last
bit on a few percent of inputs, so exponentials are taken with `math.exp` on
each element; and `(diff * diff).sum(1)` adds in another order than the
per-row dot product `diff @ diff`, so squared norms come from `row_dots`, a
batched matmul that calls the same dot product on each row."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .configuration import _all_pairs
from .errors import KMismatch


def _as_rows(pts, d: int) -> np.ndarray:
    """Points as a float (n, d) array."""
    return np.asarray(pts, dtype=float).reshape(-1, d)


def row_dots(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """a[i] @ b[i], b defaulting to a, for every row of (n, d) arrays, bitwise."""
    if b is None:
        if a.shape[1] == 1:
            return (a * a).reshape(-1)  # one product: no order of addition to keep
        b = a
    # a dot product adds from +0.0, so a lone product -0.0 comes out +0.0: only
    # a * a, never -0.0, may skip it
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1)


class SmoothMap:
    """Smooth function R^d -> R with an analytic gradient.

    Subclasses define `values` (n,) and `gradients` (n, d) over an (n, d)
    array of points; the one-point methods evaluate a single row.
    """

    d: int

    def values(self, pts) -> np.ndarray:
        raise NotImplementedError

    def gradients(self, pts) -> np.ndarray:
        raise NotImplementedError

    def value(self, y) -> float:
        return float(self.values(np.asarray(y, dtype=float).reshape(1, self.d))[0])

    def gradient(self, y) -> np.ndarray:
        return self.gradients(np.asarray(y, dtype=float).reshape(1, self.d))[0]

    def __mul__(self, other):
        if isinstance(other, SmoothMap):
            return SmoothProduct(self, other)
        return NotImplemented


class Polynomial(SmoothMap):
    """Multivariate polynomial sum_alpha c_alpha y^alpha.

    numpy's array `**` takes other paths on a whole array than on one row
    and than its scalar `**`, so `values` stays a loop over rows, and
    `gradients` raises each entry of a column with the scalar `**`.
    """

    def __init__(self, coeffs: dict, d: int):
        self._powers = [(np.array(a), float(c)) for a, c in coeffs.items()]
        self.d = d

    @property
    def coeffs(self) -> dict:
        """{alpha: c_alpha}, read from the one list both routes evaluate."""
        return {tuple(a.tolist()): c for a, c in self._powers}

    def values(self, pts):
        pts = _as_rows(pts, self.d)
        # np.multiply.reduce is np.prod without its Python wrapper
        return np.array(
            [float(sum(c * np.multiply.reduce(y**a) for a, c in self._powers)) for y in pts]
        )

    def gradients(self, pts):
        pts = _as_rows(pts, self.d)
        grad = np.zeros_like(pts)
        for powers, c in self._powers:
            alpha = powers.tolist()
            for j, p in enumerate(alpha):
                if p == 0:
                    continue
                mono = np.full(pts.shape[0], c * p)
                for i, q in enumerate(alpha):
                    power = q - 1 if i == j else q
                    mono *= [t**power for t in pts[:, i]]
                grad[:, j] += mono
        return grad


class Gaussian(SmoothMap):
    """amplitude * exp(-|y - center|^2 / (2 width^2))."""

    def __init__(self, amplitude: float, center, width: float):
        self.amplitude = float(amplitude)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.width = float(width)
        self.d = self.center.size

    def values(self, pts):
        return self._values(_as_rows(pts, self.d) - self.center)

    def _values(self, diff):
        scale = 2.0 * self.width**2
        qs = row_dots(diff).tolist()
        return np.fromiter((self.amplitude * math.exp(-q / scale) for q in qs), float, len(qs))

    def gradients(self, pts):
        diff = _as_rows(pts, self.d) - self.center
        return self._values(diff)[:, None] * (-diff / self.width**2)


class Bump(SmoothMap):
    """C-infinity bump amplitude * exp(1 - 1/(1 - |y|^2/R^2)) on |y| < R, 0 outside."""

    def __init__(self, radius: float, d: int, amplitude: float = 1.0):
        self.radius = float(radius)
        self.d = d
        self.amplitude = float(amplitude)

    def _u(self, pts):
        """|y|^2 / R^2 of every row, as a list."""
        r2 = self.radius**2
        return [q / r2 for q in row_dots(pts).tolist()]

    def values(self, pts):
        return self._values(self._u(_as_rows(pts, self.d)))

    def _values(self, us):
        return np.fromiter((0.0 if u >= 1.0 else self.amplitude * math.exp(1.0 - 1.0 / (1.0 - u))
                            for u in us), float, len(us))

    def gradients(self, pts):
        pts = _as_rows(pts, self.d)
        us = self._u(pts)
        # d/dy exp(-1/(1-u)) -> -(1/(1-u)^2) * du/dy
        scale = [0.0 if u >= 1.0 else v * (-1.0 / (1.0 - u) ** 2)
                 for v, u in zip(self._values(us).tolist(), us)]
        grad = np.array(scale)[:, None] * (2.0 * pts / self.radius**2)
        # outside the support a row is +0.0 whatever the signs of y
        grad[np.array(us) >= 1.0] = 0.0
        return grad


class SmoothProduct(SmoothMap):
    def __init__(self, a: SmoothMap, b: SmoothMap):
        if a.d != b.d:
            raise ValueError("smooth factors must share a dimension")
        self.a, self.b = a, b
        self.d = a.d

    def values(self, pts):
        return self.a.values(pts) * self.b.values(pts)

    def gradients(self, pts):
        return (self.a.values(pts)[:, None] * self.b.gradients(pts)
                + self.b.values(pts)[:, None] * self.a.gradients(pts))


def _no_tagged(x, d: int) -> np.ndarray:
    """Zero gradient in the tagged slots of a function that ignores them."""
    return np.zeros_like(np.atleast_2d(x)) if np.size(x) else np.zeros((0, d))


def _batch_of_one(a, d: int) -> np.ndarray:
    """One configuration's rows as a float (1, n, d) batch."""
    return np.asarray(a, dtype=float).reshape(1, -1, d)


def _fsum_rows(vals: np.ndarray) -> np.ndarray:
    """Exact sum of each row of a (B, n) array (slices of one flat list: a
    list per row would hold a batch's rows twice over)."""
    b, n = vals.shape
    if n == 0:
        return np.zeros(b)
    flat = vals.ravel().tolist()
    return np.fromiter((math.fsum(flat[i:i + n]) for i in range(0, b * n, n)), float, b)


class CylinderFunction:
    """Base class; value(x, pts) with x (k, d) tagged and pts (m, d) background.

    Subclasses define `values(xs (B, k, d), ptss (B, m, d)) -> (B,)` over a
    batch of configurations; `value` is that call on a batch of one. Those
    built from smooth blocks also provide the analytic
    `grads(x, pts) -> (tagged (k, d), background (m, d))`; the
    finite-difference route in `forms` never uses it.
    """

    k: int = 0
    d: int = 1

    def values(self, xs, ptss) -> np.ndarray:
        raise NotImplementedError

    def value(self, x, pts) -> float:
        return float(self.values(_batch_of_one(x, self.d), _batch_of_one(pts, self.d))[0])

    def grads(self, x, pts) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def background_exchangeable(self) -> bool:
        """True when value(x, pts) keeps its bits under any reordering of
        the background rows, so `forms.symmetrize` may fix their order."""
        return False

    def __add__(self, other):
        return CylSum(self, other)

    def __mul__(self, other):
        if isinstance(other, CylinderFunction):
            return CylProduct(self, other)
        if isinstance(other, (int, float)):
            return CylScale(self, float(other))
        return NotImplemented

    __rmul__ = __mul__


class Constant(CylinderFunction):
    def __init__(self, c: float, d: int = 1, k: int = 0):
        self.c = float(c)
        self.d = d
        self.k = k

    def values(self, xs, ptss):
        return np.full(len(xs), self.c)

    @property
    def background_exchangeable(self) -> bool:
        return True

    def grads(self, x, pts):
        return _no_tagged(x, self.d), np.zeros_like(pts)


class LinearStatistic(CylinderFunction):
    """f(s) = sum_i phi(s_i), the basic local observable."""

    k = 0

    def __init__(self, phi: SmoothMap):
        self.phi = phi
        self.d = phi.d

    def values(self, xs, ptss):
        ptss = np.asarray(ptss, dtype=float)
        b, m = ptss.shape[:2]
        return _fsum_rows(self.phi.values(ptss.reshape(b * m, self.d)).reshape(b, m))

    def grads(self, x, pts):
        return _no_tagged(x, self.d), self.phi.gradients(pts)

    @property
    def background_exchangeable(self) -> bool:
        return True  # rows are evaluated independently; fsum is exact in any order


class PairStatistic(CylinderFunction):
    """f(s) = 1/2 sum_{i != j} phi(s_i - s_j); translation invariant."""

    k = 0

    def __init__(self, phi: SmoothMap):
        self.phi = phi
        self.d = phi.d

    def values(self, xs, ptss):
        ptss = np.asarray(ptss, dtype=float)
        i, j = _all_pairs(ptss.shape[1])
        diffs = (ptss[:, i] - ptss[:, j]).reshape(-1, self.d)
        return 0.5 * _fsum_rows(self.phi.values(diffs).reshape(len(ptss), len(i)))

    @property
    def background_exchangeable(self) -> bool:
        return True  # a reordering permutes the pair rows; fsum is exact in any order

    def grads(self, x, pts):
        pts = _as_rows(pts, self.d)
        n = pts.shape[0]
        i, j = _all_pairs(n)
        g = self.phi.gradients(pts[i] - pts[j])
        term = 0.5 * (g - g[j * (n - 1) + i - (i > j)])  # minus the (j, i) row
        # bincount adds each i's terms in j order, as the per-pair sum does
        grad = np.zeros_like(pts)
        for a in range(self.d):
            grad[:, a] = np.bincount(i, weights=term[:, a], minlength=n)
        return _no_tagged(x, self.d), grad


class TaggedFunction(CylinderFunction):
    """f(x, s) = psi(x_1, ..., x_k) flattened; independent of the background."""

    def __init__(self, psi: SmoothMap, k: int, d: int):
        if psi.d != k * d:
            raise ValueError("psi must act on the flattened tagged tuple")
        self.psi = psi
        self.k = k
        self.d = d

    def values(self, xs, ptss):
        return self.psi.values(np.asarray(xs, dtype=float).reshape(len(xs), self.k * self.d))

    @property
    def background_exchangeable(self) -> bool:
        return True

    def grads(self, x, pts):
        flat = np.asarray(x, dtype=float).reshape(self.k * self.d)
        return (self.psi.gradient(flat).reshape(self.k, self.d),
                np.zeros_like(np.atleast_2d(pts)))


class CylSum(CylinderFunction):
    def __init__(self, a: CylinderFunction, b: CylinderFunction):
        self.a, self.b = a, b
        self.k = max(a.k, b.k)
        self.d = a.d

    def values(self, xs, ptss):
        return self.a.values(xs, ptss) + self.b.values(xs, ptss)

    @property
    def background_exchangeable(self) -> bool:
        return self.a.background_exchangeable and self.b.background_exchangeable

    def grads(self, x, pts):
        (ta, pa), (tb, pb) = self.a.grads(x, pts), self.b.grads(x, pts)
        return ta + tb, pa + pb


class CylScale(CylinderFunction):
    def __init__(self, a: CylinderFunction, c: float):
        self.a, self.c = a, c
        self.k, self.d = a.k, a.d

    def values(self, xs, ptss):
        return self.c * self.a.values(xs, ptss)

    @property
    def background_exchangeable(self) -> bool:
        return self.a.background_exchangeable

    def grads(self, x, pts):
        tagged, background = self.a.grads(x, pts)
        return self.c * tagged, self.c * background


class CylProduct(CylinderFunction):
    def __init__(self, a: CylinderFunction, b: CylinderFunction):
        self.a, self.b = a, b
        self.k = max(a.k, b.k)
        self.d = a.d

    def values(self, xs, ptss):
        return self.a.values(xs, ptss) * self.b.values(xs, ptss)

    @property
    def background_exchangeable(self) -> bool:
        return self.a.background_exchangeable and self.b.background_exchangeable

    def grads(self, x, pts):
        va, vb = self.a.value(x, pts), self.b.value(x, pts)
        (ta, pa), (tb, pb) = self.a.grads(x, pts), self.b.grads(x, pts)
        return va * tb + vb * ta, va * pb + vb * pa


class CylCompose(CylinderFunction):
    """outer(f(x, s)) for a smooth scalar map given as (P, P')."""

    def __init__(self, inner: CylinderFunction, outer: Callable, outer_prime: Callable):
        self.inner = inner
        self.outer = outer
        self.outer_prime = outer_prime
        self.k, self.d = inner.k, inner.d

    def values(self, xs, ptss):
        return np.array([float(self.outer(v)) for v in self.inner.values(xs, ptss).tolist()],
                        dtype=float)

    @property
    def background_exchangeable(self) -> bool:
        return self.inner.background_exchangeable

    def grads(self, x, pts):
        slope = self.outer_prime(self.inner.value(x, pts))
        tagged, background = self.inner.grads(x, pts)
        return slope * tagged, slope * background


class Evaluator(CylinderFunction):
    """Black-box cylinder function from a bare evaluator (no analytic route;
    may depend on the order of the background rows). It sees one
    configuration at a time, so `values` loops over the batch."""

    def __init__(self, fn: Callable, k: int, d: int):
        self.fn = fn
        self.k = k
        self.d = d

    def value(self, x, pts):
        return float(self.fn(x, pts))

    def values(self, xs, ptss):
        return np.array([self.value(x, pts) for x, pts in zip(xs, ptss)], dtype=float)


def tensor_product(phi: SmoothMap, f: CylinderFunction) -> CylinderFunction:
    """(phi tensor f)(x, s) = phi(x) f(s) for a 1-tagged slot."""
    if f.k != 0:
        raise KMismatch(f"tensor_product expects an unlabeled cylinder function, got k = {f.k}")
    psi = TaggedFunction(phi, k=1, d=phi.d)
    return CylProduct(psi, f)


def random_smooth(rng, d: int, kind: str | None = None) -> SmoothMap:
    kind = kind or rng.choice(["poly", "gauss"])
    if kind == "poly":
        coeffs = {}
        for _ in range(rng.integers(2, 4)):
            alpha = tuple(int(a) for a in rng.integers(0, 3, size=d))
            coeffs[alpha] = float(rng.normal(scale=0.5))
        return Polynomial(coeffs, d)
    return Gaussian(float(rng.normal(scale=1.0)), rng.normal(scale=0.8, size=d),
                    float(rng.uniform(0.6, 1.5)))


def random_cylinder(rng, k: int, d: int) -> CylinderFunction:
    """Random smooth cylinder function with analytic gradients, O(1) scale."""
    f: CylinderFunction = LinearStatistic(random_smooth(rng, d))
    if rng.uniform() < 0.5:
        f = f + LinearStatistic(random_smooth(rng, d))
    if rng.uniform() < 0.4:
        u = float(rng.uniform(0.5, 1.5))
        f = CylCompose(f, lambda t, u=u: math.sin(u * t), lambda t, u=u: u * math.cos(u * t))
    if k >= 1:
        psi = random_smooth(rng, k * d)
        tagged = TaggedFunction(psi, k, d)
        f = tagged + f if rng.uniform() < 0.5 else CylProduct(tagged, f) + tagged
    return f
