"""Numerical carre-du-champ calculus on cylinder functions.

Implements the quadratic forms built from particle-wise gradients (the
unlabeled form, its k-labeled extension, the translation generator D and the
tagged-frame forms), plus checks of the frame-change identity under iota, the
tensor-product formulas, and permutation symmetrization with its energy
contraction. Gradients are central finite differences; analytic gradients of
the cylinder library serve as the independent oracle in tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .configuration import Configuration
from .cylinder import CylinderFunction, Evaluator, SmoothMap, tensor_product
from .errors import TooManyPoints

DEFAULT_STEP = 1e-5


@dataclass
class FormReport:
    """Outcome of one identity check."""

    identity: str
    max_residual: float
    n_samples: int
    h: float
    extra: dict = field(default_factory=dict)

    def tsv_row(self) -> str:
        extras = ";".join(f"{k}={v:.6g}" for k, v in sorted(self.extra.items()))
        return f"{self.identity}\t{self.max_residual:.6e}\t{self.n_samples}\t{self.h:g}\t{extras}"


def _points_of(config) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.points
    return np.atleast_2d(np.asarray(config, dtype=float))


def _tag_of(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.reshape(0, d)
    return x.reshape(-1, d)


def _central_diff(value_at, arr, h: float) -> np.ndarray:
    """Central-difference gradient of value_at(arr) in every entry of arr."""
    arr = np.atleast_2d(arr)
    grad = np.zeros_like(arr)
    work = arr.copy()
    for i in range(arr.shape[0]):
        for a in range(arr.shape[1]):
            orig = work[i, a]
            work[i, a] = orig + h
            up = value_at(work)
            work[i, a] = orig - h
            down = value_at(work)
            work[i, a] = orig
            grad[i, a] = (up - down) / (2.0 * h)
    return grad


def fd_grad_points(f: CylinderFunction, x, pts, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient in every background coordinate."""
    return _central_diff(lambda work: f.value(x, work), pts, h)


def fd_grad_tagged(f: CylinderFunction, x, pts, h: float = DEFAULT_STEP) -> np.ndarray:
    return _central_diff(lambda work: f.value(work, pts), x, h)


def gamma_unlabeled(f: CylinderFunction, g: CylinderFunction, config,
                    h: float = DEFAULT_STEP, analytic: bool = False) -> float:
    """Unlabeled carre du champ: half the sum over points of grad f . grad g."""
    pts = _points_of(config)
    empty = np.zeros((0, pts.shape[1]))
    if analytic:
        gf = f.grad_points(empty, pts)
        gg = g.grad_points(empty, pts)
    else:
        gf = fd_grad_points(f, empty, pts, h)
        gg = fd_grad_points(g, empty, pts, h)
    return 0.5 * float(np.sum(gf * gg))


def gamma_k(f: CylinderFunction, g: CylinderFunction, x, config,
            h: float = DEFAULT_STEP, analytic: bool = False) -> float:
    """k-labeled form: tagged-gradient part plus the background form."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    if analytic:
        tf, tg = f.grad_tagged(tag, pts), g.grad_tagged(tag, pts)
        pf, pg = f.grad_points(tag, pts), g.grad_points(tag, pts)
    else:
        tf, tg = fd_grad_tagged(f, tag, pts, h), fd_grad_tagged(g, tag, pts, h)
        pf, pg = fd_grad_points(f, tag, pts, h), fd_grad_points(g, tag, pts, h)
    return 0.5 * float(np.sum(tf * tg)) + 0.5 * float(np.sum(pf * pg))


def D_operator(f: CylinderFunction, config, x=None, h: float = DEFAULT_STEP) -> np.ndarray:
    """Translation generator: derivative of the simultaneous shift of all
    background points, one component per axis."""
    pts = _points_of(config)
    d = pts.shape[1]
    tag = _tag_of(x if x is not None else np.zeros((0, d)), d)
    out = np.zeros(d)
    for a in range(d):
        shift = np.zeros(d)
        shift[a] = h
        out[a] = (f.value(tag, pts + shift) - f.value(tag, pts - shift)) / (2.0 * h)
    return out


def D_operator_coordinate_sum(f: CylinderFunction, config, x=None,
                              h: float = DEFAULT_STEP) -> np.ndarray:
    """Equivalent route: sum of the per-point gradients."""
    pts = _points_of(config)
    d = pts.shape[1]
    tag = _tag_of(x if x is not None else np.zeros((0, d)), d)
    return fd_grad_points(f, tag, pts, h).sum(axis=0)


def gamma_Y(f: CylinderFunction, g: CylinderFunction, config,
            h: float = DEFAULT_STEP) -> float:
    """Environment form: 1/2 (Df, Dg) plus the unlabeled form."""
    return 0.5 * float(
        D_operator(f, config, h=h) @ D_operator(g, config, h=h)
    ) + gamma_unlabeled(f, g, config, h)


def _d_minus_nabla(f: CylinderFunction, x, config, h: float) -> np.ndarray:
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    return D_operator(f, pts, tag, h) - fd_grad_tagged(f, tag, pts, h)[0]


def gamma_XY(f: CylinderFunction, g: CylinderFunction, x, config,
             h: float = DEFAULT_STEP) -> float:
    """Coupled tagged-and-environment form for 1-labeled functions."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    vf = _d_minus_nabla(f, tag, pts, h)
    vg = _d_minus_nabla(g, tag, pts, h)
    background = 0.5 * float(
        np.sum(fd_grad_points(f, tag, pts, h) * fd_grad_points(g, tag, pts, h))
    )
    return 0.5 * float(vf @ vg) + background


class _IotaComposed(CylinderFunction):
    """(f o iota)(x, s) = f(x, s shifted to the tagged frame)."""

    def __init__(self, f: CylinderFunction):
        self.f = f
        self.k = max(1, f.k)
        self.d = f.d

    def value(self, x, pts):
        x = np.atleast_2d(x)
        return self.f.value(x, np.atleast_2d(pts) - x[0])

    def grad_tagged(self, x, pts):
        x = np.atleast_2d(x)
        shifted = np.atleast_2d(pts) - x[0]
        return self.f.grad_tagged(x, shifted) - self.f.grad_points(x, shifted).sum(
            axis=0, keepdims=True
        )

    def grad_points(self, x, pts):
        x = np.atleast_2d(x)
        return self.f.grad_points(x, np.atleast_2d(pts) - x[0])


def compose_iota(f: CylinderFunction) -> CylinderFunction:
    return _IotaComposed(f)


def check_iota_identity(f: CylinderFunction, g: CylinderFunction, x, config,
                        h: float = 1e-4) -> FormReport:
    """Residual of the frame-change identity: the 1-labeled form of f o iota,
    g o iota equals the coupled form of f, g evaluated in the tagged frame."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    lhs = gamma_k(compose_iota(f), compose_iota(g), tag, pts, h)
    shifted = pts - tag[0]
    rhs = gamma_XY(f, g, tag, shifted, h)
    return FormReport("iota-frame-change", abs(lhs - rhs), 1, h,
                      {"lhs": lhs, "rhs": rhs})


def quadrature_norms(phi: SmoothMap, radius: float, n: int = 2001):
    """(||phi||_{L2}^2, ||grad phi||_{L2}^2) on [-radius, radius]^d by tensor
    trapezoid quadrature; d <= 2."""
    d = phi.d
    axis = np.linspace(-radius, radius, n if d == 1 else 301)
    if d == 1:
        vals = np.array([phi.value(np.array([t])) for t in axis])
        grads = np.array([phi.gradient(np.array([t]))[0] for t in axis])
        return float(np.trapezoid(vals**2, axis)), float(np.trapezoid(grads**2, axis))
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    vals = np.zeros_like(xx)
    gsq = np.zeros_like(xx)
    for i in range(axis.size):
        for j in range(axis.size):
            y = np.array([xx[i, j], yy[i, j]])
            vals[i, j] = phi.value(y)
            grad = phi.gradient(y)
            gsq[i, j] = float(grad @ grad)
    step = axis[1] - axis[0]
    return float(np.trapezoid(np.trapezoid(vals**2, dx=step), dx=step)), float(
        np.trapezoid(np.trapezoid(gsq, dx=step), dx=step)
    )


def check_product_formula(phi: SmoothMap, f: CylinderFunction, sampler,
                          n_pointwise: int = 20, n_samples: int = 2000,
                          support_radius: float | None = None,
                          h: float = 1e-4, seed: int = 0) -> FormReport:
    """Pointwise residual of the tensor-product expansion of the coupled form
    and the paired Monte Carlo check of its integrated version, in which the
    cross term integrates to zero over x.

    sampler(seed) must return background configurations; phi must vanish
    outside |x| <= support_radius (defaults to Bump radius when present).
    """
    if f.k != 0:
        raise ValueError("product formula needs an unlabeled cylinder function")
    d = phi.d
    if support_radius is None:
        support_radius = getattr(phi, "radius", None)
        if support_radius is None:
            raise ValueError("pass support_radius for a non-bump phi")
    rng = np.random.default_rng(seed)
    pf = tensor_product(phi, f)

    max_resid = 0.0
    for i in range(n_pointwise):
        config = sampler(seed * 92821 + i)
        pts = config.points
        x = rng.uniform(-support_radius, support_radius, size=(1, d))
        lhs = gamma_XY(pf, pf, x, pts, h)
        fval = f.value(np.zeros((0, d)), pts)
        df = D_operator(f, pts, h=h)
        gphi = phi.gradient(x[0])
        rhs = (
            phi.value(x[0]) ** 2 * gamma_Y(f, f, pts, h)
            + 0.5 * float(gphi @ gphi) * fval**2
            - phi.value(x[0]) * float(gphi @ df) * fval
        )
        max_resid = max(max_resid, abs(lhs - rhs))

    # integrated identity: paired sampling, x uniform over the support box
    norm_sq, grad_norm_sq = quadrature_norms(phi, support_radius)
    volume = (2.0 * support_radius) ** d
    diffs = []
    for i in range(n_samples):
        config = sampler(seed * 15485863 + 7 + i)
        pts = config.points
        x = rng.uniform(-support_radius, support_radius, size=(1, d))
        lhs_i = volume * gamma_XY(pf, pf, x, pts, h)
        fval = f.value(np.zeros((0, d)), pts)
        rhs_i = norm_sq * gamma_Y(f, f, pts, h) + 0.5 * grad_norm_sq * fval**2
        diffs.append(lhs_i - rhs_i)
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / math.sqrt(n_samples)
    z = diffs.mean() / se if se > 0 else 0.0
    return FormReport(
        "product-formula",
        max_resid,
        n_pointwise + n_samples,
        h,
        {"mc_z": z, "mc_mean_diff": diffs.mean(), "mc_se": se},
    )


def _assignments(x, config, perms):
    """Yield (sel, tagged, background) for each permutation sel of the
    m = k + |s| stacked points: tagged takes the first k of them."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    k = tag.shape[0]
    all_pts = np.concatenate([tag, pts], axis=0)
    for perm in perms:
        sel = np.asarray(perm)
        q = all_pts[sel]
        yield sel, q[:k], q[k:]


def _exact_perms(m: int, exact_cap: int, what: str):
    if m > exact_cap:
        raise TooManyPoints(f"{what} capped at m = {exact_cap}")
    return itertools.permutations(range(m))


def symmetrize(h_fn: CylinderFunction, x, config, mode: str = "exact",
               exact_cap: int = 8, n_mc: int = 2000, seed: int = 0) -> float:
    """Average of h over all assignments of the m = k + |s| points to the
    tagged slots and the background; exact enumeration for m <= exact_cap,
    random permutations beyond."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    m = tag.shape[0] + pts.shape[0]
    if mode == "exact":
        perms = _exact_perms(m, exact_cap, "exact symmetrization")
    else:
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(m) for _ in range(n_mc)]
    vals = [h_fn.value(t, b) for _, t, b in _assignments(tag, pts, perms)]
    first = vals[0]
    if all(v == first for v in vals):
        # already symmetric: averaging identical values must return them bitwise
        return first
    return math.fsum(vals) / len(vals)


class _Symmetrized(CylinderFunction):
    def __init__(self, h_fn: CylinderFunction, exact_cap: int = 8):
        self.h_fn = h_fn
        self.exact_cap = exact_cap
        self.k, self.d = h_fn.k, h_fn.d

    def value(self, x, pts):
        return symmetrize(self.h_fn, x, pts, exact_cap=self.exact_cap)

    def _grads(self, x, pts):
        pts = _points_of(pts)
        tag = _tag_of(x, pts.shape[1])
        k = tag.shape[0]
        m = k + pts.shape[0]
        perms = _exact_perms(m, self.exact_cap, "exact symmetrization")
        out = np.zeros((m, pts.shape[1]))
        for sel, t, b in _assignments(tag, pts, perms):
            out[sel] += np.concatenate(
                [self.h_fn.grad_tagged(t, b), self.h_fn.grad_points(t, b)], axis=0
            )
        out /= math.factorial(m)
        return out[:k], out[k:]

    def grad_tagged(self, x, pts):
        return self._grads(x, pts)[0]

    def grad_points(self, x, pts):
        return self._grads(x, pts)[1]


def symmetrized(h_fn: CylinderFunction, exact_cap: int = 8) -> CylinderFunction:
    """h as a symmetric function of the underlying point multiset."""
    return _Symmetrized(h_fn, exact_cap)


def exchange_energy(h_fn: CylinderFunction, x, config, h: float = DEFAULT_STEP,
                    exact_cap: int = 8, analytic: bool = False) -> float:
    """k-labeled form energy averaged over all tagged/background assignments
    of the point multiset (the exchangeable measure the symmetrization
    contraction is stated for)."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    perms = _exact_perms(tag.shape[0] + pts.shape[0], exact_cap, "exchange energy")
    total = [gamma_k(h_fn, h_fn, t, b, h, analytic=analytic)
             for _, t, b in _assignments(tag, pts, perms)]
    return math.fsum(total) / len(total)


def make_evaluator(fn, k: int, d: int, window: float | None = None) -> CylinderFunction:
    """Wrap a bare (x, pts) -> real evaluator as a cylinder function."""
    return Evaluator(fn, k, d, window)
