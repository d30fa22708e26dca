"""Batched smooth blocks against the one-point formulas they replaced.

The reference functions below are the per-point formulas the library used
before smooth blocks evaluated whole point arrays; every batched row must
carry their bits exactly (compared as raw bytes, so signed zeros count)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibmsim.configuration import _all_pairs
from ibmsim.cylinder import (
    Bump,
    Constant,
    CylCompose,
    CylProduct,
    CylScale,
    CylSum,
    Evaluator,
    Gaussian,
    LinearStatistic,
    PairStatistic,
    Polynomial,
    SmoothProduct,
    TaggedFunction,
    random_cylinder,
    random_smooth,
    tensor_product,
)
from ibmsim.errors import KMismatch
from ibmsim.forms import _IotaComposed, _Symmetrized, compose_iota, symmetrized


# ---------------------------------------------------------------- references

def ref_value(block, y):
    y = np.asarray(y, dtype=float).reshape(block.d)
    if isinstance(block, Polynomial):
        return float(sum(c * np.prod(y**np.array(a)) for a, c in block.coeffs.items()))
    if isinstance(block, Gaussian):
        diff = y - block.center
        return block.amplitude * math.exp(-float(diff @ diff) / (2.0 * block.width**2))
    if isinstance(block, Bump):
        u = float(y @ y) / block.radius**2
        if u >= 1.0:
            return 0.0
        return block.amplitude * math.exp(1.0 - 1.0 / (1.0 - u))
    if isinstance(block, SmoothProduct):
        return ref_value(block.a, y) * ref_value(block.b, y)
    raise TypeError(block)


def ref_gradient(block, y):
    y = np.asarray(y, dtype=float).reshape(block.d)
    if isinstance(block, Polynomial):
        grad = np.zeros(block.d)
        for alpha, c in block.coeffs.items():
            for j, p in enumerate(alpha):
                if p == 0:
                    continue
                mono = c * p
                for i, q in enumerate(alpha):
                    power = q - 1 if i == j else q
                    mono *= y[i] ** power
                grad[j] += mono
        return grad
    if isinstance(block, Gaussian):
        diff = y - block.center
        return ref_value(block, y) * (-diff / block.width**2)
    if isinstance(block, Bump):
        u = float(y @ y) / block.radius**2
        if u >= 1.0:
            return np.zeros(block.d)
        v = ref_value(block, y)
        return v * (-1.0 / (1.0 - u) ** 2) * (2.0 * y / block.radius**2)
    if isinstance(block, SmoothProduct):
        return (ref_value(block.a, y) * ref_gradient(block.b, y)
                + ref_value(block.b, y) * ref_gradient(block.a, y))
    raise TypeError(block)


def ref_pair_value(phi, pts):
    n = pts.shape[0]
    return 0.5 * math.fsum(
        ref_value(phi, pts[i] - pts[j]) for i in range(n) for j in range(n) if i != j
    )


def ref_pair_gradients(phi, pts):
    n = pts.shape[0]
    grad = np.zeros_like(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            grad[i] += 0.5 * (ref_gradient(phi, pts[i] - pts[j])
                              - ref_gradient(phi, pts[j] - pts[i]))
    return grad


def dense_pair_gradients(phi, pts):
    """PairStatistic.grads as an N x N x d array with a column loop, the form
    it had before it took the pair list."""
    n = pts.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    g = np.zeros((n, n, phi.d))
    g[i, j] = phi.gradients(pts[i] - pts[j])
    term = 0.5 * (g - g.transpose(1, 0, 2))
    grad = np.zeros_like(pts)
    for col in range(n):
        grad += term[:, col]
    return grad


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------- blocks

def blocks(rng, d):
    poly = Polynomial({tuple(int(p) for p in rng.integers(0, 5, size=d)): float(rng.normal())
                       for _ in range(4)}, d)
    gauss = Gaussian(float(rng.normal()), rng.normal(scale=0.8, size=d),
                     float(rng.uniform(0.6, 1.5)))
    bump = Bump(float(rng.uniform(0.8, 1.6)), d, amplitude=float(rng.normal()))
    return {"poly": poly, "gauss": gauss, "bump": bump,
            "gauss*bump": gauss * bump, "poly*gauss": poly * gauss}


def points(rng, n, d, radius=1.2):
    """n points, about a third inside, on and outside |y| = radius."""
    pts = rng.uniform(-2.0 * radius, 2.0 * radius, size=(n, d))
    for r in range(n):
        if r % 3 == 1:
            axis = np.zeros(d)
            axis[r % d] = radius if rng.random() < 0.5 else -radius
            pts[r] = axis
        elif r % 3 == 2:
            direction = rng.normal(size=d)
            pts[r] = radius * direction / np.linalg.norm(direction)
    return pts


class TestBatchedBlocksKeepTheirBits:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("kind", ["poly", "gauss", "bump", "gauss*bump", "poly*gauss"])
    def test_values_and_gradients_equal_per_point_formulas(self, kind, n, d):
        rng = np.random.default_rng(1000 * d + n)
        for _ in range(60):
            block = blocks(rng, d)[kind]
            outer = block.b if isinstance(block, SmoothProduct) else block
            pts = points(rng, n, d, getattr(outer, "radius", 1.2))
            ref_v = np.array([ref_value(block, y) for y in pts])
            ref_g = np.array([ref_gradient(block, y) for y in pts]).reshape(n, d)
            assert same_bits(block.values(pts), ref_v)
            assert same_bits(block.gradients(pts), ref_g)
            for y, v, g in zip(pts, ref_v, ref_g):
                assert same_bits(block.value(y), v)
                assert same_bits(block.gradient(y), g)

    def test_bump_vanishes_from_the_boundary_out(self):
        bump = Bump(1.5, 2, amplitude=2.0)
        pts = np.array([[1.5, 0.0], [0.0, -1.5], [3.0, 0.0], [1.5, 1.5]])
        assert same_bits(bump.values(pts), np.zeros(4))
        assert same_bits(bump.gradients(pts), np.zeros((4, 2)))


class TestStatisticsKeepTheirBits:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_linear_statistic_equals_per_point_sum(self, d):
        rng = np.random.default_rng(20 + d)
        empty = np.zeros((0, d))
        for _ in range(20):
            for phi in blocks(rng, d).values():
                f = LinearStatistic(phi)
                pts = points(rng, int(rng.integers(1, 9)), d)
                assert same_bits(f.value(empty, pts),
                                 math.fsum(ref_value(phi, p) for p in pts))
                assert same_bits(f.grads(empty, pts)[1],
                                 np.array([ref_gradient(phi, p) for p in pts]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pair_statistic_equals_per_pair_sum(self, d):
        rng = np.random.default_rng(40 + d)
        empty = np.zeros((0, d))
        for _ in range(8):
            for phi in blocks(rng, d).values():
                f = PairStatistic(phi)
                pts = points(rng, int(rng.integers(1, 7)), d)
                assert same_bits(f.value(empty, pts), ref_pair_value(phi, pts))
                assert same_bits(f.grads(empty, pts)[1], ref_pair_gradients(phi, pts))

    @pytest.mark.parametrize("d", [1, 2])
    def test_pair_gradients_equal_dense_form(self, d):
        rng = np.random.default_rng(50 + d)
        empty = np.zeros((0, d))
        for n in range(10):
            for _ in range(6):
                for phi in blocks(rng, d).values():
                    pts = points(rng, n, d)
                    if n > 2:  # coincident rows: zero separations, signed zeros
                        pts[1] = pts[0]
                        pts[2] = -0.0 * pts[2]
                    got = PairStatistic(phi).grads(empty, pts)[1]
                    want = dense_pair_gradients(phi, pts)
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_statistics_bitwise_invariant_under_row_permutation(self, d):
        rng = np.random.default_rng(60 + d)
        empty = np.zeros((0, d))
        for _ in range(20):
            for phi in blocks(rng, d).values():
                pts = points(rng, 7, d)
                shuffled = pts[rng.permutation(7)]
                for f in (LinearStatistic(phi), PairStatistic(phi)):
                    assert same_bits(f.value(empty, shuffled), f.value(empty, pts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_background_gives_exact_zero(self, d):
        rng = np.random.default_rng(80 + d)
        empty = np.zeros((0, d))
        for phi in blocks(rng, d).values():
            for f in (LinearStatistic(phi), PairStatistic(phi)):
                assert same_bits(f.value(empty, empty), 0.0)
                assert same_bits(f.grads(empty, empty)[1], np.zeros((0, d)))
            assert same_bits(PairStatistic(phi).value(empty, np.ones((1, d))), 0.0)


# ------------------------------------------------- batches of configurations

def ref_cyl_value(f, x, pts):
    """The one-configuration formulas `value` had before cylinder functions
    evaluated batches."""
    d = f.d
    x = np.asarray(x, dtype=float).reshape(-1, d)
    pts = np.asarray(pts, dtype=float).reshape(-1, d)
    if isinstance(f, Constant):
        return f.c
    if isinstance(f, LinearStatistic):
        return math.fsum(f.phi.values(pts).tolist())
    if isinstance(f, PairStatistic):
        i, j = _all_pairs(pts.shape[0])
        return 0.5 * math.fsum(f.phi.values(pts[i] - pts[j]).tolist())
    if isinstance(f, TaggedFunction):
        return f.psi.value(x.reshape(f.k * d))
    if isinstance(f, CylSum):
        return ref_cyl_value(f.a, x, pts) + ref_cyl_value(f.b, x, pts)
    if isinstance(f, CylScale):
        return f.c * ref_cyl_value(f.a, x, pts)
    if isinstance(f, CylProduct):
        return ref_cyl_value(f.a, x, pts) * ref_cyl_value(f.b, x, pts)
    if isinstance(f, CylCompose):
        return float(f.outer(ref_cyl_value(f.inner, x, pts)))
    if isinstance(f, Evaluator):
        return float(f.fn(x, pts))
    if isinstance(f, _IotaComposed):
        return ref_cyl_value(f.f, x, pts - x[0])
    if isinstance(f, _Symmetrized):
        # every one of the m! assignments, as symmetrize's short route sums
        k = x.shape[0]
        stacked = np.concatenate([x, pts])
        vals = [ref_cyl_value(f.h_fn, stacked[list(p)][:k], stacked[list(p)][k:])
                for p in itertools.permutations(range(stacked.shape[0]))]
        if all(v == vals[0] for v in vals):
            return vals[0]
        return math.fsum(vals) / len(vals)
    raise TypeError(f)


def first_background(x, pts):
    """Order-dependent evaluator: reads the first background row."""
    return float(pts[0, 0]) if len(pts) else 0.25 * float(np.sum(x))


def batch_functions(rng, k, d):
    """Every kind of cylinder function, with the tagged count each takes."""
    return [
        (random_cylinder(rng, k, d), k),
        (PairStatistic(random_smooth(rng, d)), k),
        (PairStatistic(Bump(1.2, d, amplitude=float(rng.normal()))), k),
        (Constant(float(rng.normal()), d, k=k), k),
        (3.0 * random_cylinder(rng, k, d), k),
        (compose_iota(random_cylinder(rng, k, d)), max(1, k)),
        (symmetrized(random_cylinder(rng, k, d)), k),
        (Evaluator(first_background, k=k, d=d), k),
        (symmetrized(Evaluator(first_background, k=k, d=d)), k),
    ]


def batch_of(rng, b, k, m, d):
    return rng.uniform(-1, 1, size=(b, k, d)), rng.uniform(-1.5, 1.5, size=(b, m, d))


class TestBatchedValuesKeepTheirBits:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 2), d=st.integers(1, 2),
           m=st.integers(0, 6), b=st.integers(0, 5))
    def test_values_equal_per_configuration_value(self, seed, k, d, m, b):
        rng = np.random.default_rng(seed)
        for f, k_f in batch_functions(rng, k, d):
            if isinstance(f, _Symmetrized) and k_f + m > 5:
                continue  # the reference takes all (k + m)! assignments: keep it quick
            xs, ptss = batch_of(rng, b, k_f, m, d)
            got = f.values(xs, ptss)
            assert got.shape == (b,)
            one_at_a_time = np.array([f.value(xs[i], ptss[i]) for i in range(b)])
            reference = np.array([ref_cyl_value(f, xs[i], ptss[i]) for i in range(b)])
            assert same_bits(got, one_at_a_time)
            assert same_bits(got, reference)

    def test_signed_zeros_and_coincident_rows(self):
        rng = np.random.default_rng(90)
        for d in (1, 2):
            for f, k_f in batch_functions(rng, 1, d):
                xs, ptss = batch_of(rng, 4, k_f, 4, d)
                ptss[1] = -0.0
                ptss[2, 1] = ptss[2, 0]
                xs[3] = 0.0
                reference = np.array([ref_cyl_value(f, xs[i], ptss[i]) for i in range(4)])
                assert same_bits(f.values(xs, ptss), reference)

    def test_value_takes_loose_shapes(self):
        f = LinearStatistic(Gaussian(1.0, [0.1], 0.8)) + TaggedFunction(
            Gaussian(0.5, [0.2], 1.1), k=1, d=1)
        assert same_bits(f.value([0.3], [1.0, -0.5]),
                         ref_cyl_value(f, [[0.3]], [[1.0], [-0.5]]))
        assert same_bits(f.value([[0.3]], []), ref_cyl_value(f, [[0.3]], np.zeros((0, 1))))


class TestTaggedCount:
    def test_tensor_product_rejects_labeled_function(self):
        f = TaggedFunction(Gaussian(1.0, [0.0], 1.0), k=1, d=1)
        with pytest.raises(KMismatch):
            tensor_product(Bump(1.0, 1), f)
