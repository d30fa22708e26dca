"""Numerical carre-du-champ calculus on cylinder functions.

Implements the quadratic forms built from particle-wise gradients (the
unlabeled form, its k-labeled extension, the translation generator D and the
tagged-frame forms), plus checks of the frame-change identity under iota, the
tensor-product formulas, and permutation symmetrization with its energy
contraction. Gradients are central finite differences; analytic gradients of
the cylinder library serve as the independent oracle in tests. A form of f
with itself computes f's gradients once.

Symmetrization over m <= EXACT_CAP points averages over all m! assignments
of the points to the k tagged slots and the background; for a
background-exchangeable function it evaluates only the m!/(m-k)! ordered
tagged tuples and counts each value (m-k)! times, which gives the same bits."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import paired_z
from .configuration import Configuration
from .cylinder import Bump, CylinderFunction, SmoothMap, row_dots, tensor_product
from .errors import KMismatch, TooManyPoints

DEFAULT_STEP = 1e-5
EXACT_CAP = 8  # most points whose m! assignments are enumerated
QUADRATURE_POINTS_1D = 2001  # trapezoid nodes on [-radius, radius] in quadrature_norms
QUADRATURE_POINTS_2D = 301  # the same per axis of the d = 2 tensor grid


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


def fd_grads(f: CylinderFunction, x, pts, h: float = DEFAULT_STEP):
    """Central-difference gradients (tagged (k, d), background (m, d)): one
    pass over the stacked tagged and background coordinates."""
    k = len(x)
    both = _central_diff(lambda work: f.value(work[:k], work[k:]),
                         np.concatenate([x, pts]), h)
    return both[:k], both[k:]


def _grads_of(f: CylinderFunction, g: CylinderFunction, x, pts, h: float,
              analytic: bool):
    """(tagged, background) gradients of f and of g, by one route; computed
    once when g is f."""
    def grads(fn):
        return fn.grads(x, pts) if analytic else fd_grads(fn, x, pts, h)

    of_f = grads(f)
    return of_f, (of_f if g is f else grads(g))


def _unlabeled(*fns: CylinderFunction) -> None:
    if any(fn.k != 0 for fn in fns):
        raise KMismatch("an unlabeled form takes functions with k = 0, got k = "
                        + ", ".join(str(fn.k) for fn in fns))


def gamma_unlabeled(f: CylinderFunction, g: CylinderFunction, config,
                    h: float = DEFAULT_STEP, analytic: bool = False) -> float:
    """Unlabeled carre du champ: half the sum over points of grad f . grad g."""
    _unlabeled(f, g)
    pts = _points_of(config)
    (_, gf), (_, gg) = _grads_of(f, g, np.zeros((0, pts.shape[1])), pts, h, analytic)
    return 0.5 * float(np.sum(gf * gg))


def gamma_k(f: CylinderFunction, g: CylinderFunction, x, config,
            h: float = DEFAULT_STEP, analytic: bool = False) -> float:
    """k-labeled form: tagged-gradient part plus the background form."""
    pts = _points_of(config)
    (tf, pf), (tg, pg) = _grads_of(f, g, _tag_of(x, pts.shape[1]), pts, h, analytic)
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
    return fd_grads(f, tag, pts, h)[1].sum(axis=0)


def gamma_Y(f: CylinderFunction, g: CylinderFunction, config,
            h: float = DEFAULT_STEP) -> float:
    """Environment form: 1/2 (Df, Dg) plus the unlabeled form."""
    _unlabeled(f, g)
    df = D_operator(f, config, h=h)
    dg = df if g is f else D_operator(g, config, h=h)
    return 0.5 * float(df @ dg) + gamma_unlabeled(f, g, config, h)


def gamma_XY(f: CylinderFunction, g: CylinderFunction, x, config,
             h: float = DEFAULT_STEP) -> float:
    """Coupled tagged-and-environment form for 1-labeled functions."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    (tf, pf), (tg, pg) = _grads_of(f, g, tag, pts, h, analytic=False)
    # D minus the gradient in the tagged point
    vf = D_operator(f, pts, tag, h) - tf[0]
    vg = vf if g is f else D_operator(g, pts, tag, h) - tg[0]
    return 0.5 * float(vf @ vg) + 0.5 * float(np.sum(pf * pg))


class _IotaComposed(CylinderFunction):
    """(f o iota)(x, s) = f(x, s shifted to the tagged frame)."""

    def __init__(self, f: CylinderFunction):
        self.f = f
        self.k = max(1, f.k)
        self.d = f.d

    def value(self, x, pts):
        x = np.atleast_2d(x)
        return self.f.value(x, np.atleast_2d(pts) - x[0])

    @property
    def background_exchangeable(self) -> bool:
        return self.f.background_exchangeable

    def grads(self, x, pts):
        x = np.atleast_2d(x)
        tagged, background = self.f.grads(x, np.atleast_2d(pts) - x[0])
        return tagged - background.sum(axis=0, keepdims=True), background


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


def quadrature_norms(phi: SmoothMap, radius: float):
    """(||phi||_{L2}^2, ||grad phi||_{L2}^2) on [-radius, radius]^d by tensor
    trapezoid quadrature; d <= 2."""
    d = phi.d
    n = QUADRATURE_POINTS_1D if d == 1 else QUADRATURE_POINTS_2D
    axis = np.linspace(-radius, radius, n)
    if d == 1:
        vals = phi.values(axis[:, None])
        grads = phi.gradients(axis[:, None])[:, 0]
        return float(np.trapezoid(vals**2, axis)), float(np.trapezoid(grads**2, axis))
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    vals = phi.values(grid).reshape(xx.shape)
    gsq = row_dots(phi.gradients(grid)).reshape(xx.shape)
    step = axis[1] - axis[0]
    return float(np.trapezoid(np.trapezoid(vals**2, dx=step), dx=step)), float(
        np.trapezoid(np.trapezoid(gsq, dx=step), dx=step)
    )


def check_product_formula(phi: Bump, f: CylinderFunction, sampler,
                          n_pointwise: int = 20, n_samples: int = 2000,
                          h: float = 1e-4, seed: int = 0) -> FormReport:
    """Pointwise residual of the tensor-product expansion of the coupled form
    and the paired Monte Carlo check of its integrated version, in which the
    cross term integrates to zero over x.

    sampler(seed) must return background configurations; x is drawn from the
    box |x_a| <= phi.radius, outside which the bump phi vanishes.
    """
    if f.k != 0:
        raise ValueError("product formula needs an unlabeled cylinder function")
    d = phi.d
    radius = phi.radius
    rng = np.random.default_rng(seed)
    pf = tensor_product(phi, f)

    max_resid = 0.0
    for i in range(n_pointwise):
        config = sampler(seed * 92821 + i)
        pts = config.points
        x = rng.uniform(-radius, radius, size=(1, d))
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
    norm_sq, grad_norm_sq = quadrature_norms(phi, radius)
    volume = (2.0 * radius) ** d
    lhs, rhs = np.empty(n_samples), np.empty(n_samples)
    for i in range(n_samples):
        config = sampler(seed * 15485863 + 7 + i)
        pts = config.points
        x = rng.uniform(-radius, radius, size=(1, d))
        lhs[i] = volume * gamma_XY(pf, pf, x, pts, h)
        fval = f.value(np.zeros((0, d)), pts)
        rhs[i] = norm_sq * gamma_Y(f, f, pts, h) + 0.5 * grad_norm_sq * fval**2
    z, se = paired_z(lhs, rhs)
    return FormReport(
        "product-formula",
        max_resid,
        n_pointwise + n_samples,
        h,
        {"mc_z": z, "mc_mean_diff": float(np.mean(lhs - rhs)), "mc_se": se},
    )


def _assignments(x, config, perms):
    """Yield (sel, tagged, background) for each permutation sel of the
    m = k + |s| stacked points: tagged takes the first k of them."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    k = tag.shape[0]
    all_pts = np.concatenate([tag, pts], axis=0)
    for perm in perms:
        sel = np.asarray(perm, dtype=np.intp)  # the one assignment of m = 0 is ()
        q = all_pts[sel]
        yield sel, q[:k], q[k:]


def _exact_perms(m: int, what: str):
    if m > EXACT_CAP:
        raise TooManyPoints(f"{what} capped at m = {EXACT_CAP}")
    return itertools.permutations(range(m))


def _tuple_perms(m: int, k: int):
    """For each ordered k-tuple of range(m), lexicographically, the
    permutation that puts it first and the rest after it in index order."""
    for tup in itertools.permutations(range(m), k):
        yield tup + tuple(i for i in range(m) if i not in tup)


def symmetrize(h_fn: CylinderFunction, x, config) -> float:
    """Average of h over all m! assignments of the m = k + |s| points to the
    tagged slots and the background, for m <= EXACT_CAP.

    A background-exchangeable h is evaluated on the m!/(m-k)! ordered tagged
    tuples only, each value fed to the exact fsum (m-k)! times: the multiset
    summed, and so the result, is bitwise that of all m! assignments."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    k = tag.shape[0]
    m = k + pts.shape[0]
    perms, repeats = _exact_perms(m, "exact symmetrization"), 1
    if h_fn.background_exchangeable:
        perms, repeats = _tuple_perms(m, k), math.factorial(m - k)
    vals = [h_fn.value(t, b) for _, t, b in _assignments(tag, pts, perms)]
    first = vals[0]
    if all(v == first for v in vals):
        # already symmetric: averaging identical values must return them bitwise
        return first
    # repeat rather than multiply: v * (m-k)! would round
    return math.fsum(itertools.chain.from_iterable(
        itertools.repeat(v, repeats) for v in vals)) / math.factorial(m)


class _Symmetrized(CylinderFunction):
    def __init__(self, h_fn: CylinderFunction):
        self.h_fn = h_fn
        self.k, self.d = h_fn.k, h_fn.d

    def value(self, x, pts):
        return symmetrize(self.h_fn, x, pts)

    @property
    def background_exchangeable(self) -> bool:
        return True  # fsums the same multiset whatever the input order

    def grads(self, x, pts):
        pts = _points_of(pts)
        tag = _tag_of(x, pts.shape[1])
        k = tag.shape[0]
        m = k + pts.shape[0]
        perms = _exact_perms(m, "exact symmetrization")
        out = np.zeros((m, pts.shape[1]))
        for sel, t, b in _assignments(tag, pts, perms):
            out[sel] += np.concatenate(self.h_fn.grads(t, b), axis=0)
        out /= math.factorial(m)
        return out[:k], out[k:]


def symmetrized(h_fn: CylinderFunction) -> CylinderFunction:
    """h as a symmetric function of the underlying point multiset."""
    return _Symmetrized(h_fn)


def exchange_energy(h_fn: CylinderFunction, x, config, h: float = DEFAULT_STEP,
                    analytic: bool = False) -> float:
    """k-labeled form energy averaged over all tagged/background assignments
    of the point multiset (the exchangeable measure the symmetrization
    contraction is stated for)."""
    pts = _points_of(config)
    tag = _tag_of(x, pts.shape[1])
    perms = _exact_perms(tag.shape[0] + pts.shape[0], "exchange energy")
    total = [gamma_k(h_fn, h_fn, t, b, h, analytic=analytic)
             for _, t, b in _assignments(tag, pts, perms)]
    return math.fsum(total) / len(total)
