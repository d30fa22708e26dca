"""Numerical carre-du-champ calculus on cylinder functions.

Implements the quadratic forms built from particle-wise gradients (the
unlabeled form, its k-labeled extension, the translation generator D and the
tagged-frame forms), plus checks of the frame-change identity under iota, the
tensor-product formulas, and permutation symmetrization with its energy
contraction. Gradients are central finite differences; analytic gradients of
the cylinder library serve as the independent oracle in tests. A form of f
with itself computes f's gradients once.

Every evaluation goes through the batched `CylinderFunction.values`: a
finite-difference gradient stacks its +-h stencil, 2(k+m)d configurations,
into one call; D its 2d shifted copies; symmetrize its assignments; and the
product-formula check evaluates each group of samples with the same point
count as one batch. Each entry keeps the bits of the one-configuration call.

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
from .dynamics import PURPOSES, child_seeds
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


def _fd_grads_batch(f: CylinderFunction, xs: np.ndarray, ptss: np.ndarray, h: float):
    """Central-difference gradients of f at each of B configurations, as
    (tagged (B, k, d), background (B, m, d)), from one `values` call over
    every configuration's +-h stencil: copy [b, 0, e] has flat entry e of
    configuration b raised by h, copy [b, 1, e] has it lowered by h."""
    arr = np.concatenate([xs, ptss], axis=1)
    b, n, d = arr.shape
    k, e = xs.shape[1], n * d
    stack = np.repeat(arr.reshape(b, 1, 1, e), 2 * e, axis=2).reshape(b, 2, e, e)
    diag = np.arange(e)
    stack[:, 0, diag, diag] = arr.reshape(b, e) + h
    stack[:, 1, diag, diag] = arr.reshape(b, e) - h
    stack = stack.reshape(b * 2 * e, n, d)
    vals = f.values(stack[:, :k], stack[:, k:]).reshape(b, 2, e)
    grad = ((vals[:, 0] - vals[:, 1]) / (2.0 * h)).reshape(b, n, d)
    return grad[:, :k], grad[:, k:]


def fd_grads(f: CylinderFunction, x, pts, h: float = DEFAULT_STEP):
    """Central-difference gradients (tagged (k, d), background (m, d)): one
    `values` call over the +-h stencil of the stacked tagged and background
    coordinates."""
    pts = np.asarray(pts, dtype=float)
    tagged, background = _fd_grads_batch(f, _tag_of(x, pts.shape[1])[None], pts[None], h)
    return tagged[0], background[0]


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


def _D_batch(f: CylinderFunction, xs: np.ndarray, ptss: np.ndarray, h: float) -> np.ndarray:
    """D f at each of B configurations, (B, d), from one `values` call over
    the 2d shifted copies of every background."""
    b, m, d = ptss.shape
    shifts = np.zeros((d, 1, d))
    shifts[np.arange(d), 0, np.arange(d)] = h
    moved = np.concatenate([ptss[:, None] + shifts, ptss[:, None] - shifts], axis=1)
    vals = f.values(np.repeat(xs, 2 * d, axis=0), moved.reshape(b * 2 * d, m, d))
    vals = vals.reshape(b, 2, d)
    return (vals[:, 0] - vals[:, 1]) / (2.0 * h)


def D_operator(f: CylinderFunction, config, x=None, h: float = DEFAULT_STEP) -> np.ndarray:
    """Translation generator: derivative of the simultaneous shift of all
    background points, one component per axis."""
    pts = _points_of(config)
    d = pts.shape[1]
    tag = _tag_of(x if x is not None else np.zeros((0, d)), d)
    return _D_batch(f, tag[None], pts[None], h)[0]


def D_operator_coordinate_sum(f: CylinderFunction, config, x=None,
                              h: float = DEFAULT_STEP) -> np.ndarray:
    """Equivalent route: sum of the per-point gradients."""
    pts = _points_of(config)
    d = pts.shape[1]
    tag = _tag_of(x if x is not None else np.zeros((0, d)), d)
    return fd_grads(f, tag, pts, h)[1].sum(axis=0)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum of each (m, d) entry of a (B, m, d) array, bitwise: numpy adds
    each contiguous row of m*d as it adds one configuration's array."""
    return a.reshape(len(a), a.shape[1] * a.shape[2]).sum(axis=1)


def _gamma_Y_batch(f: CylinderFunction, g: CylinderFunction, ptss: np.ndarray,
                   h: float) -> np.ndarray:
    """gamma_Y at each of B backgrounds (B, m, d)."""
    empty = np.zeros((len(ptss), 0, ptss.shape[2]))

    def parts(fn):
        return _D_batch(fn, empty, ptss, h), _fd_grads_batch(fn, empty, ptss, h)[1]

    df, gf = parts(f)
    dg, gg = (df, gf) if g is f else parts(g)
    return 0.5 * row_dots(df, dg) + 0.5 * _row_sums(gf * gg)


def gamma_Y(f: CylinderFunction, g: CylinderFunction, config,
            h: float = DEFAULT_STEP) -> float:
    """Environment form: 1/2 (Df, Dg) plus the unlabeled form."""
    _unlabeled(f, g)
    return float(_gamma_Y_batch(f, g, _points_of(config)[None], h)[0])


def _gamma_XY_batch(f: CylinderFunction, g: CylinderFunction, xs: np.ndarray,
                    ptss: np.ndarray, h: float) -> np.ndarray:
    """gamma_XY at each of B configurations, xs (B, 1, d) and ptss (B, m, d)."""
    def parts(fn):
        tagged, background = _fd_grads_batch(fn, xs, ptss, h)
        # D minus the gradient in the tagged point
        return _D_batch(fn, xs, ptss, h) - tagged[:, 0], background

    vf, pf = parts(f)
    vg, pg = (vf, pf) if g is f else parts(g)
    return 0.5 * row_dots(vf, vg) + 0.5 * _row_sums(pf * pg)


def gamma_XY(f: CylinderFunction, g: CylinderFunction, x, config,
             h: float = DEFAULT_STEP) -> float:
    """Coupled tagged-and-environment form for 1-labeled functions."""
    pts = _points_of(config)
    return float(_gamma_XY_batch(f, g, _tag_of(x, pts.shape[1])[None], pts[None], h)[0])


class _IotaComposed(CylinderFunction):
    """(f o iota)(x, s) = f(x, s shifted to the tagged frame)."""

    def __init__(self, f: CylinderFunction):
        self.f = f
        self.k = max(1, f.k)
        self.d = f.d

    def values(self, xs, ptss):
        xs = np.asarray(xs, dtype=float)
        return self.f.values(xs, np.asarray(ptss, dtype=float) - xs[:, :1])

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


def _by_point_count(ptss):
    """(indices, (B, m, d) points) of the point arrays sharing each point
    count m, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, pts in enumerate(ptss):
        groups.setdefault(pts.shape[0], []).append(i)
    for idx in groups.values():
        yield np.array(idx), np.stack([ptss[i] for i in idx])


def check_product_formula(phi: Bump, f: CylinderFunction, sampler,
                          n_pointwise: int = 20, n_samples: int = 2000,
                          h: float = 1e-4, seed: int = 0) -> FormReport:
    """Pointwise residual of the tensor-product expansion of the coupled form
    and the paired Monte Carlo check of its integrated version, in which the
    cross term integrates to zero over x.

    sampler(draw_seed) must return background configurations, drawn at the
    product-pointwise and product-mc children of seed; x is drawn from the
    box |x_a| <= phi.radius, outside which the bump phi vanishes. Samples
    with the same point count are evaluated as one batch; a NaN residual is
    the maximum.
    """
    if f.k != 0:
        raise KMismatch(f"product formula needs an unlabeled cylinder function, got k = {f.k}")
    d = phi.d
    radius = phi.radius
    rng = np.random.default_rng(seed)
    pf = tensor_product(phi, f)

    seeds = child_seeds(seed, PURPOSES["product-pointwise"], n_pointwise)
    ptss = [sampler(s).points for s in seeds]
    xs = rng.uniform(-radius, radius, size=(n_pointwise, 1, d))
    resid = np.empty(n_pointwise)
    for idx, batch in _by_point_count(ptss):
        empty = np.zeros((len(idx), 0, d))
        gphi = phi.gradients(xs[idx, 0])
        # Python floats: an array's `**` squares by multiplying, not by the
        # scalar pow of the one-sample expression
        rows = zip(_gamma_XY_batch(pf, pf, xs[idx], batch, h).tolist(),
                   _gamma_Y_batch(f, f, batch, h).tolist(), f.values(empty, batch).tolist(),
                   phi.values(xs[idx, 0]).tolist(), row_dots(gphi).tolist(),
                   row_dots(gphi, _D_batch(f, empty, batch, h)).tolist())
        resid[idx] = [abs(lhs - (pv**2 * gy + 0.5 * gg * fv**2 - pv * gd * fv))
                      for lhs, gy, fv, pv, gg, gd in rows]
    max_resid = float(np.max(resid, initial=0.0))  # np.max keeps a NaN

    # integrated identity: paired sampling, x uniform over the support box
    norm_sq, grad_norm_sq = quadrature_norms(phi, radius)
    volume = (2.0 * radius) ** d
    ptss = [sampler(s).points for s in child_seeds(seed, PURPOSES["product-mc"], n_samples)]
    xs = rng.uniform(-radius, radius, size=(n_samples, 1, d))
    lhs, rhs = np.empty(n_samples), np.empty(n_samples)
    for idx, batch in _by_point_count(ptss):
        lhs[idx] = volume * _gamma_XY_batch(pf, pf, xs[idx], batch, h)
        fval = f.values(np.zeros((len(idx), 0, d)), batch)
        rhs[idx] = [norm_sq * gy + 0.5 * grad_norm_sq * fv**2
                    for gy, fv in zip(_gamma_Y_batch(f, f, batch, h).tolist(), fval.tolist())]
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


def _symmetrize_batch(h_fn: CylinderFunction, tags: np.ndarray, ptss: np.ndarray) -> list:
    """symmetrize at each of B configurations, tags (B, k, d) and ptss
    (B, n, d), from one `values` call over every assignment of every one."""
    b, k, d = tags.shape
    m = k + ptss.shape[1]
    perms, repeats = _exact_perms(m, "exact symmetrization"), 1
    if h_fn.background_exchangeable:
        perms, repeats = _tuple_perms(m, k), math.factorial(m - k)
    sel = np.array([list(perm) for perm in perms], dtype=np.intp)  # m = 0: one empty row
    n_sel = sel.shape[0]
    q = np.concatenate([tags, ptss], axis=1)[:, sel]
    rows = h_fn.values(q[:, :, :k].reshape(b * n_sel, k, d),
                       q[:, :, k:].reshape(b * n_sel, m - k, d)).reshape(b, n_sel)
    out = []
    for vals in rows.tolist():
        first = vals[0]
        if all(v == first for v in vals):
            # already symmetric: averaging identical values must return them bitwise
            out.append(first)
        else:
            # repeat rather than multiply: v * (m-k)! would round
            out.append(math.fsum(itertools.chain.from_iterable(
                itertools.repeat(v, repeats) for v in vals)) / math.factorial(m))
    return out


def symmetrize(h_fn: CylinderFunction, x, config) -> float:
    """Average of h over all m! assignments of the m = k + |s| points to the
    tagged slots and the background, for m <= EXACT_CAP.

    A background-exchangeable h is evaluated on the m!/(m-k)! ordered tagged
    tuples only, each value fed to the exact fsum (m-k)! times: the multiset
    summed, and so the result, is bitwise that of all m! assignments."""
    pts = _points_of(config)
    return _symmetrize_batch(h_fn, _tag_of(x, pts.shape[1])[None], pts[None])[0]


class _Symmetrized(CylinderFunction):
    """h symmetrized. `grads` memoises h's gradients at each arrangement of
    the point multiset it last saw (at most m! of them), keyed by the
    arrangement's bytes: the energy of every assignment of one multiset then
    takes h's gradients once per arrangement, and adds them in the same
    order as without the memo."""

    def __init__(self, h_fn: CylinderFunction):
        self.h_fn = h_fn
        self.k, self.d = h_fn.k, h_fn.d
        self._multiset = None
        self._memo: dict[bytes, np.ndarray] = {}

    def values(self, xs, ptss):
        return np.array(_symmetrize_batch(self.h_fn, np.asarray(xs, dtype=float),
                                          np.asarray(ptss, dtype=float)), dtype=float)

    @property
    def background_exchangeable(self) -> bool:
        return True  # fsums the same multiset whatever the input order

    def grads(self, x, pts):
        pts = _points_of(pts)
        tag = _tag_of(x, pts.shape[1])
        k = tag.shape[0]
        m = k + pts.shape[0]
        perms = _exact_perms(m, "exact symmetrization")
        multiset = (k, sorted(row.tobytes() for row in np.concatenate([tag, pts])))
        if multiset != self._multiset:
            self._multiset, self._memo = multiset, {}
        out = np.zeros((m, pts.shape[1]))
        for sel, t, b in _assignments(tag, pts, perms):
            key = t.tobytes() + b.tobytes()  # the arrangement's bytes
            if key not in self._memo:
                self._memo[key] = np.concatenate(self.h_fn.grads(t, b), axis=0)
            out[sel] += self._memo[key]
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
