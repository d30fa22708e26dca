import copy
import hashlib
import itertools
import math

import numpy as np
import pytest

from ibmsim import pipelines
from ibmsim.analysis import paired_z
from ibmsim.configuration import Configuration, Domain
from ibmsim.cylinder import (
    Bump,
    Constant,
    Evaluator,
    Gaussian,
    LinearStatistic,
    PairStatistic,
    Polynomial,
    TaggedFunction,
    random_cylinder,
    random_smooth,
    tensor_product,
)
from ibmsim.dynamics import child_seeds
from ibmsim.errors import KMismatch, TooManyPoints
from ibmsim.forms import (
    D_operator,
    D_operator_coordinate_sum,
    FormReport,
    check_iota_identity,
    check_product_formula,
    compose_iota,
    exchange_energy,
    fd_grads,
    gamma_XY,
    gamma_Y,
    gamma_k,
    gamma_unlabeled,
    quadrature_norms,
    symmetrize,
    symmetrized,
)
from ibmsim.pipelines import run_pipeline
from ibmsim.pointprocess import make_poisson_sampler


def free_config(points, d=1):
    return Configuration(points, Domain(d, "free", 10.0))


class TestSmoothBlocks:
    @pytest.mark.parametrize("d", [1, 2])
    def test_gradients_match_finite_difference(self, d):
        rng = np.random.default_rng(0)
        blocks = [
            random_smooth(rng, d, "poly"),
            random_smooth(rng, d, "gauss"),
            Bump(1.5, d, amplitude=2.0),
        ]
        for block in blocks:
            for _ in range(5):
                y = rng.uniform(-1.2, 1.2, size=d)
                grad = block.gradient(y)
                h = 1e-6
                for a in range(d):
                    e = np.zeros(d)
                    e[a] = h
                    fd = (block.value(y + e) - block.value(y - e)) / (2 * h)
                    assert fd == pytest.approx(grad[a], rel=2e-5, abs=2e-7)

    def test_bump_is_compactly_supported(self):
        bump = Bump(1.0, 1)
        assert bump.value(np.array([1.0])) == 0.0
        assert bump.value(np.array([2.0])) == 0.0
        assert bump.value(np.array([0.0])) == pytest.approx(1.0)
        assert np.all(bump.gradient(np.array([1.5])) == 0.0)

    def test_cylinder_functions_permutation_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_cylinder(rng, 1, 1)
            x = rng.uniform(-1, 1, size=(1, 1))
            pts = rng.uniform(-1.5, 1.5, size=(4, 1))
            base = f.value(x, pts)
            shuffled = f.value(x, pts[rng.permutation(4)])
            assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_window_locality(self):
        # a windowed statistic ignores points outside the window
        phi = Gaussian(1.0, [0.0], 0.5) * Bump(2.0, 1)
        f = LinearStatistic(phi)
        inside = np.array([[0.3], [-1.0]])
        outside = np.vstack([inside, [[5.0], [-3.0]]])
        empty = np.zeros((0, 1))
        assert f.value(empty, inside) == pytest.approx(f.value(empty, outside))


class TestGammaUnlabeled:
    def test_identity_coordinate_statistic(self):
        f = LinearStatistic(Polynomial({(1,): 1.0}, 1))
        for n in (1, 3, 6):
            config = free_config(np.linspace(-1, 1, n)[:, None])
            val = gamma_unlabeled(f, f, config)
            assert val == pytest.approx(n / 2.0, rel=1e-9)

    def test_constant_gives_zero(self):
        c = Constant(3.0, d=1)
        config = free_config([[0.2], [0.9]])
        assert gamma_unlabeled(c, c, config) == pytest.approx(0.0, abs=1e-12)

    def test_against_analytic_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = random_cylinder(rng, 0, 1)
            g = random_cylinder(rng, 0, 1)
            config = free_config(rng.uniform(-1.5, 1.5, size=(4, 1)))
            fd = gamma_unlabeled(f, g, config, h=1e-5)
            exact = gamma_unlabeled(f, g, config, analytic=True)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(2)
        f = random_cylinder(rng, 0, 1)
        g = random_cylinder(rng, 0, 1)
        w = random_cylinder(rng, 0, 1)
        config = free_config(rng.uniform(-1, 1, size=(3, 1)))
        assert gamma_unlabeled(f, g, config) == pytest.approx(
            gamma_unlabeled(g, f, config), rel=1e-9, abs=1e-12
        )
        lhs = gamma_unlabeled(f + 2.0 * w, g, config)
        rhs = gamma_unlabeled(f, g, config) + 2.0 * gamma_unlabeled(w, g, config)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ["evaluator", "random"])
    def test_labeled_functions_rejected(self, kind):
        # evaluated with an empty tagged tuple, a k = 1 Evaluator gave a
        # number and a k = 1 random cylinder died in a reshape
        rng = np.random.default_rng(13)
        labeled = (Evaluator(lambda x, pts: 1.0 + float(np.sum(x)), k=1, d=1)
                   if kind == "evaluator" else random_cylinder(rng, 1, 1))
        unlabeled = random_cylinder(rng, 0, 1)
        config = free_config([[0.2], [0.9]])
        for f, g in ((labeled, unlabeled), (unlabeled, labeled), (labeled, labeled)):
            for analytic in (False, True):
                with pytest.raises(KMismatch):
                    gamma_unlabeled(f, g, config, analytic=analytic)
            with pytest.raises(KMismatch):
                gamma_Y(f, g, config)


class TestGammaK:
    def test_tagged_only(self):
        psi = Gaussian(1.3, [0.4], 0.8)
        f = TaggedFunction(psi, k=1, d=1)
        x = np.array([[0.2]])
        config = free_config([[1.0], [2.0]])
        expected = 0.5 * float(psi.gradient(x[0]) @ psi.gradient(x[0]))
        assert gamma_k(f, f, x, config) == pytest.approx(expected, rel=1e-7)

    def test_background_only_reduces_to_unlabeled(self):
        rng = np.random.default_rng(3)
        f = random_cylinder(rng, 0, 1)
        config = free_config(rng.uniform(-1, 1, size=(3, 1)))
        x = np.array([[0.5]])
        assert gamma_k(f, f, x, config) == pytest.approx(
            gamma_unlabeled(f, f, config), rel=1e-9
        )

    def test_mixed_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_cylinder(rng, 1, 1)
            g = random_cylinder(rng, 1, 1)
            x = rng.uniform(-1, 1, size=(1, 1))
            config = free_config(rng.uniform(-1.5, 1.5, size=(3, 1)))
            fd = gamma_k(f, g, x, config, h=1e-5)
            exact = gamma_k(f, g, x, config, analytic=True)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


class TestDOperator:
    def test_linear_statistic(self):
        phi = Gaussian(1.0, [0.3], 0.7)
        f = LinearStatistic(phi)
        pts = np.array([[0.1], [0.8], [-0.4]])
        expected = sum(phi.gradient(p) for p in pts)
        assert D_operator(f, free_config(pts)) == pytest.approx(expected, rel=1e-6)

    def test_translation_invariant_function_is_annihilated(self):
        f = PairStatistic(Gaussian(1.0, [0.0], 0.9))
        pts = np.array([[0.1], [0.8], [-0.4]])
        assert np.max(np.abs(D_operator(f, free_config(pts)))) < 1e-9

    def test_two_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_cylinder(rng, 0, 2)
            pts = rng.uniform(-1, 1, size=(4, 2))
            simultaneous = D_operator(f, free_config(pts, d=2))
            per_point = D_operator_coordinate_sum(f, free_config(pts, d=2))
            assert np.allclose(simultaneous, per_point, rtol=1e-6, atol=1e-6)


class TestGammaYandXY:
    def test_gamma_xy_tagged_only(self):
        psi = Gaussian(0.9, [0.1], 0.6)
        f = TaggedFunction(psi, k=1, d=1)
        x = np.array([[0.4]])
        config = free_config([[1.2], [2.0]])
        expected = 0.5 * float(psi.gradient(x[0]) @ psi.gradient(x[0]))
        assert gamma_XY(f, f, x, config) == pytest.approx(expected, rel=1e-6)

    def test_gamma_y_translation_invariant_reduces_to_unlabeled(self):
        f = PairStatistic(Gaussian(1.0, [0.2], 0.8))
        config = free_config([[0.1], [0.9], [1.4]])
        assert gamma_Y(f, f, config) == pytest.approx(
            gamma_unlabeled(f, f, config), rel=1e-6
        )

    def test_gamma_y_random_against_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_cylinder(rng, 0, 1)
            g = random_cylinder(rng, 0, 1)
            pts = rng.uniform(-1, 1, size=(3, 1))
            config = free_config(pts)
            empty = np.zeros((0, 1))
            df = f.grads(empty, pts)[1].sum(axis=0)
            dg = g.grads(empty, pts)[1].sum(axis=0)
            exact = 0.5 * float(df @ dg) + gamma_unlabeled(f, g, config, analytic=True)
            assert gamma_Y(f, g, config) == pytest.approx(exact, rel=1e-5, abs=1e-7)


class TestIotaIdentity:
    def test_tagged_only_function(self):
        psi = Gaussian(1.1, [0.2], 0.7)
        f = TaggedFunction(psi, k=1, d=1)
        report = check_iota_identity(f, f, [[0.3]], free_config([[1.0], [1.7]]))
        expected = 0.5 * float(psi.gradient(np.array([0.3])) @ psi.gradient(np.array([0.3])))
        assert report.extra["lhs"] == pytest.approx(expected, rel=1e-6)
        assert report.max_residual < 1e-6

    def test_linear_statistic_hand_expansion(self):
        phi = Gaussian(1.0, [0.0], 0.8)
        f = LinearStatistic(phi)
        x = np.array([0.4])
        pts = np.array([[1.0], [1.9], [-0.3]])
        report = check_iota_identity(f, f, [[0.4]], free_config(pts))
        shifted = pts - x
        grads = np.array([phi.gradient(p) for p in shifted])
        expected = 0.5 * float(grads.sum(axis=0) @ grads.sum(axis=0)) + 0.5 * float(
            np.sum(grads * grads)
        )
        assert report.extra["lhs"] == pytest.approx(expected, rel=1e-5)
        assert report.max_residual < 1e-6

    def test_random_pairs_residual(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            f = random_cylinder(rng, 1, 1)
            g = random_cylinder(rng, 1, 1)
            x = rng.uniform(-1, 1, size=(1, 1))
            config = free_config(rng.uniform(-1.5, 1.5, size=(3, 1)))
            report = check_iota_identity(f, g, x, config, h=1e-4)
            worst = max(worst, report.max_residual)
        assert worst < 1e-5


class TestProductFormula:
    def test_constant_f_reduces_to_gradient_term(self):
        phi = Bump(2.0, 1, amplitude=1.5)
        f = Constant(1.0, d=1)
        dom = Domain(1, "torus", 4.0)
        sampler = make_poisson_sampler(dom, 1.0, seed=3)

        x = np.array([[0.7]])
        pts = sampler(0).points
        lhs = gamma_XY(tensor_product(phi, f), tensor_product(phi, f), x, pts)
        gphi = phi.gradient(x[0])
        assert lhs == pytest.approx(0.5 * float(gphi @ gphi), rel=1e-5, abs=1e-9)

    def test_center_of_bump_reduces_to_gamma_y(self):
        # grad phi vanishes at the bump center, leaving phi^2 * gamma_Y
        rng = np.random.default_rng(8)
        phi = Bump(2.0, 1, amplitude=1.2)
        f = random_cylinder(rng, 0, 1)
        pts = rng.uniform(-1, 1, size=(3, 1))
        x = np.zeros((1, 1))
        lhs = gamma_XY(tensor_product(phi, f), tensor_product(phi, f), x, pts)
        rhs = phi.value(np.zeros(1)) ** 2 * gamma_Y(f, f, pts)
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-8)

    def test_pointwise_and_integrated(self):
        phi = Bump(1.5, 1, amplitude=1.0)
        f = LinearStatistic(Gaussian(0.8, [0.5], 0.9))
        dom = Domain(1, "torus", 4.0)
        sampler = make_poisson_sampler(dom, 0.8, seed=5)
        report = check_product_formula(phi, f, sampler, n_pointwise=10,
                                       n_samples=400, h=1e-4, seed=2)
        assert report.max_residual < 1e-5
        assert abs(report.extra["mc_z"]) < 3.0

    def test_quadrature_norms_against_closed_form(self):
        # ||phi||^2 and ||phi'||^2 for a Gaussian have closed forms
        width, amp = 0.5, 1.3
        phi = Gaussian(amp, [0.0], width)
        norm_sq, grad_sq = quadrature_norms(phi, 6.0)
        assert norm_sq == pytest.approx(amp**2 * math.sqrt(math.pi) * width, rel=1e-6)
        assert grad_sq == pytest.approx(
            amp**2 * math.sqrt(math.pi) / (2.0 * width), rel=1e-6
        )


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        f = LinearStatistic(Gaussian(1.0, [0.0], 1.0))
        sym_val = symmetrize(f, np.zeros((0, 1)), free_config([[0.5], [1.5]]))
        assert sym_val == f.value(np.zeros((0, 1)), np.array([[0.5], [1.5]]))

    def test_two_point_average(self):
        h = Evaluator(lambda x, pts: float(np.atleast_2d(x)[0, 0]), k=1, d=1)
        val = symmetrize(h, [[2.0]], free_config([[5.0]]))
        assert val == pytest.approx(3.5)

    def test_idempotent_exact(self):
        rng = np.random.default_rng(9)
        h = random_cylinder(rng, 1, 1)
        x = [[0.3]]
        config = free_config([[1.0], [1.8]])
        once = symmetrize(h, x, config)
        twice = symmetrize(symmetrized(h), x, config)
        assert once == twice  # bitwise

    def test_too_many_points(self):
        h = Evaluator(lambda x, pts: 0.0, k=1, d=1)
        config = free_config(np.arange(9)[:, None] * 0.5)
        with pytest.raises(TooManyPoints):
            symmetrize(h, [[0.1]], config)

    def test_energy_contraction(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            h = random_cylinder(rng, 1, 1)
            x = rng.uniform(-1, 1, size=(1, 1))
            config = free_config(rng.uniform(-1.5, 1.5, size=(3, 1)))
            raw = exchange_energy(h, x, config)
            sym = exchange_energy(symmetrized(h), x, config)
            assert sym <= raw + 1e-9 * (1.0 + abs(raw))


def full_symmetrize(h_fn, x, pts):
    """Reference route: h evaluated on every one of the m! assignments."""
    pts = np.atleast_2d(pts)
    x = np.asarray(x, dtype=float).reshape(-1, pts.shape[1])
    k = x.shape[0]
    stacked = np.concatenate([x, pts])
    vals = []
    for perm in itertools.permutations(range(stacked.shape[0])):
        q = stacked[list(perm)]
        vals.append(h_fn.value(q[:k], q[k:]))
    if all(v == vals[0] for v in vals):
        return vals[0]
    return math.fsum(vals) / len(vals)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestSymmetrizeRoutes:
    """The ordered-tagged-tuple route against the full m! enumeration."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_random_cylinders_bitwise(self, k, d):
        rng = np.random.default_rng(700 + 10 * k + d)
        for m in range(max(k, 1), 8):
            h = random_cylinder(rng, k, d)
            assert h.background_exchangeable
            x = rng.uniform(-1, 1, size=(k, d))
            pts = rng.uniform(-1.5, 1.5, size=(m - k, d))
            assert same_bits(symmetrize(h, x, pts), full_symmetrize(h, x, pts))

    @pytest.mark.parametrize("d", [1, 2])
    def test_library_functions_bitwise(self, d):
        rng = np.random.default_rng(720 + d)
        for m in range(1, 6):
            pts = rng.uniform(-1.5, 1.5, size=(m - 1, d))
            x = rng.uniform(-1, 1, size=(1, d))
            for h, tag in (
                (PairStatistic(random_smooth(rng, d)), np.zeros((0, d))),
                (PairStatistic(random_smooth(rng, d)) + random_cylinder(rng, 1, d), x),
                (Constant(0.7, d, k=1), x),
                (compose_iota(random_cylinder(rng, 0, d)), x),
                (compose_iota(random_cylinder(rng, 1, d)), x),
                (symmetrized(random_cylinder(rng, 1, d)), x),
            ):
                assert h.background_exchangeable
                assert same_bits(symmetrize(h, tag, pts), full_symmetrize(h, tag, pts))

    def test_order_dependent_function_keeps_every_assignment(self):
        x, pts = [[0.3]], np.array([[1.0], [1.8], [-0.7]])

        def first_background(x, pts):
            return float(pts[0, 0])

        h = Evaluator(first_background, k=1, d=1)
        for fn in (h, h + LinearStatistic(Gaussian(1.0, [0.2], 0.9))):
            assert not fn.background_exchangeable
            assert same_bits(symmetrize(fn, x, pts), full_symmetrize(fn, x, pts))

        class ClaimsExchangeable(Evaluator):
            background_exchangeable = True

        # the short route on this function averages another multiset
        wrong = ClaimsExchangeable(first_background, k=1, d=1)
        assert symmetrize(wrong, x, pts) != full_symmetrize(wrong, x, pts)


class TestFormOfFWithItself:
    """f with itself takes one gradient pass; a deep copy of f takes two."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_two_pass_route_bitwise(self, d):
        rng = np.random.default_rng(740 + d)
        for _ in range(4):
            pts = rng.uniform(-1.5, 1.5, size=(3, d))
            x = rng.uniform(-1, 1, size=(1, d))
            f0 = random_cylinder(rng, 0, d)
            for f1 in (random_cylinder(rng, 1, d),
                       tensor_product(random_smooth(rng, d), f0)):
                twin = copy.deepcopy(f1)
                for analytic in (False, True):
                    assert same_bits(gamma_k(f1, f1, x, pts, analytic=analytic),
                                     gamma_k(f1, twin, x, pts, analytic=analytic))
                assert same_bits(gamma_XY(f1, f1, x, pts), gamma_XY(f1, twin, x, pts))
            twin = copy.deepcopy(f0)
            for analytic in (False, True):
                assert same_bits(gamma_unlabeled(f0, f0, pts, analytic=analytic),
                                 gamma_unlabeled(f0, twin, pts, analytic=analytic))
            assert same_bits(gamma_Y(f0, f0, pts), gamma_Y(f0, twin, pts))


def form_values(rng, d):
    """Every form of seeded random cylinder functions, FD and analytic."""
    empty = np.zeros((0, d))
    pts = rng.uniform(-1.5, 1.5, size=(3, d))
    f0, g0 = random_cylinder(rng, 0, d), random_cylinder(rng, 0, d)
    vals = [gamma_unlabeled(f0, g0, pts), gamma_unlabeled(f0, g0, pts, analytic=True),
            gamma_Y(f0, g0, pts), *D_operator_coordinate_sum(f0, pts)]
    for k in (0, 1, 2):
        f, g = random_cylinder(rng, k, d), random_cylinder(rng, k, d)
        x = rng.uniform(-1, 1, size=(k, d)) if k else empty
        vals += [gamma_k(f, g, x, pts), gamma_k(f, g, x, pts, analytic=True)]
    f, g = random_cylinder(rng, 1, d), random_cylinder(rng, 1, d)
    x = rng.uniform(-1, 1, size=(1, d))
    report = check_iota_identity(f, g, x, pts)
    sym = symmetrized(f)
    vals += [gamma_XY(f, g, x, pts), report.extra["lhs"], report.extra["rhs"],
             gamma_k(compose_iota(f), compose_iota(g), x, pts, analytic=True),
             exchange_energy(sym, x, pts[:2]), exchange_energy(sym, x, pts, analytic=True)]
    return vals


class TestFormsKeepTheirBits:
    def test_pinned_digest(self):
        # SHA-256 of these values from the route with separate tagged and
        # background gradient methods
        rng = np.random.default_rng(551)
        parts = [np.array(form_values(rng, d)).tobytes() for d in (1, 2) for _ in range(4)]
        digest = hashlib.sha256(b"".join(parts)).hexdigest()
        assert digest == "d6b943b441a27838494d79e1c7199ee8f98eebf795e890ba156c46bc2453351b"


# -------------------------------------- batched routes against their loops

def ref_central_diff(value_at, arr, h):
    """Central-difference gradient, one entry and two evaluations at a time."""
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


def ref_fd_grads(f, x, pts, h=1e-5):
    k = len(x)
    both = ref_central_diff(lambda work: f.value(work[:k], work[k:]),
                            np.concatenate([x, pts]), h)
    return both[:k], both[k:]


def ref_D_operator(f, pts, x, h=1e-5):
    """D one axis at a time."""
    d = pts.shape[1]
    out = np.zeros(d)
    for a in range(d):
        shift = np.zeros(d)
        shift[a] = h
        out[a] = (f.value(x, pts + shift) - f.value(x, pts - shift)) / (2.0 * h)
    return out


def bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStencilBatchesKeepTheirBits:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_fd_grads_and_D_equal_their_loops(self, k, d):
        rng = np.random.default_rng(800 + 10 * k + d)
        for m in range(0, 6):
            x = rng.uniform(-1, 1, size=(k, d))
            pts = rng.uniform(-1.5, 1.5, size=(m, d))
            if m > 1:
                pts[1] = -0.0
            for f in (random_cylinder(rng, k, d), PairStatistic(random_smooth(rng, d)),
                      compose_iota(random_cylinder(rng, k, d)) if k else Constant(0.3, d),
                      Evaluator(lambda x, pts: float(np.sum(np.sin(pts[:1]))), k=k, d=d)):
                for h in (1e-5, 1e-4):
                    got, want = fd_grads(f, x, pts, h), ref_fd_grads(f, x, pts, h)
                    assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1])
                    assert bits_equal(D_operator(f, pts, x, h), ref_D_operator(f, pts, x, h))


def counting_sampler(d):
    """Background of seed % 10 points: every batch size from 0 to 9, so m = 0
    and m * d >= 8, where numpy's pairwise sum unrolls, both occur."""
    def draw(seed):
        rng = np.random.default_rng(seed)
        return Configuration(rng.uniform(-2.0, 2.0, size=(seed % 10, d)),
                             Domain(d, "free", 10.0))
    return draw


def ref_check_product_formula(phi, f, sampler, n_pointwise, n_samples, h, seed):
    """check_product_formula one sample at a time."""
    d = phi.d
    radius = phi.radius
    rng = np.random.default_rng(seed)
    pf = tensor_product(phi, f)
    max_resid = 0.0
    for draw_seed in child_seeds(seed, 8, n_pointwise).tolist():
        pts = sampler(draw_seed).points
        x = rng.uniform(-radius, radius, size=(1, d))
        lhs = gamma_XY(pf, pf, x, pts, h)
        fval = f.value(np.zeros((0, d)), pts)
        df = D_operator(f, pts, h=h)
        gphi = phi.gradient(x[0])
        rhs = (phi.value(x[0]) ** 2 * gamma_Y(f, f, pts, h)
               + 0.5 * float(gphi @ gphi) * fval**2
               - phi.value(x[0]) * float(gphi @ df) * fval)
        max_resid = max(max_resid, abs(lhs - rhs))
    norm_sq, grad_norm_sq = quadrature_norms(phi, radius)
    volume = (2.0 * radius) ** d
    lhs, rhs = np.empty(n_samples), np.empty(n_samples)
    for i, draw_seed in enumerate(child_seeds(seed, 9, n_samples).tolist()):
        pts = sampler(draw_seed).points
        x = rng.uniform(-radius, radius, size=(1, d))
        lhs[i] = volume * gamma_XY(pf, pf, x, pts, h)
        fval = f.value(np.zeros((0, d)), pts)
        rhs[i] = norm_sq * gamma_Y(f, f, pts, h) + 0.5 * grad_norm_sq * fval**2
    z, se = paired_z(lhs, rhs)
    return max_resid, {"mc_z": z, "mc_mean_diff": float(np.mean(lhs - rhs)), "mc_se": se}


class TestProductFormulaBatches:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [2, 11])
    def test_report_equals_per_sample_loop(self, d, seed):
        rng = np.random.default_rng(seed)
        phi = Bump(1.3, d, amplitude=1.1)
        sampler = counting_sampler(d)
        for f in (LinearStatistic(Gaussian(0.8, [0.5] * d, 0.9)),
                  PairStatistic(random_smooth(rng, d, "gauss")),
                  random_cylinder(rng, 0, d)):
            report = check_product_formula(phi, f, sampler, n_pointwise=12, n_samples=30,
                                           h=1e-4, seed=seed)
            max_resid, extra = ref_check_product_formula(phi, f, sampler, 12, 30, 1e-4, seed)
            assert bits_equal(report.max_residual, max_resid)
            assert sorted(report.extra) == sorted(extra)
            for key, value in extra.items():
                assert bits_equal(report.extra[key], value), key
            assert (report.n_samples, report.h) == (42, 1e-4)

    def test_labeled_function_raises_k_mismatch(self):
        f = TaggedFunction(Gaussian(1.0, [0.0], 1.0), k=1, d=1)
        with pytest.raises(KMismatch):
            check_product_formula(Bump(1.0, 1), f, counting_sampler(1), n_pointwise=1,
                                  n_samples=2)


def ref_symmetrized_grads(h_fn, x, pts):
    """_Symmetrized.grads without its memo: h's gradients at every assignment."""
    k = x.shape[0]
    stacked = np.concatenate([x, pts])
    m = stacked.shape[0]
    out = np.zeros((m, pts.shape[1]))
    for perm in itertools.permutations(range(m)):
        sel = np.asarray(perm, dtype=np.intp)
        q = stacked[sel]
        out[sel] += np.concatenate(h_fn.grads(q[:k], q[k:]), axis=0)
    out /= math.factorial(m)
    return out[:k], out[k:]


def ref_symmetrized_energy(h_fn, x, pts):
    """exchange_energy(symmetrized(h), analytic=True) through the reference
    gradients."""
    k = x.shape[0]
    stacked = np.concatenate([x, pts])
    total = []
    for perm in itertools.permutations(range(stacked.shape[0])):
        q = stacked[list(perm)]
        tf, pf = ref_symmetrized_grads(h_fn, q[:k], q[k:])
        total.append(0.5 * float(np.sum(tf * tf)) + 0.5 * float(np.sum(pf * pf)))
    return math.fsum(total) / len(total)


class TestSymmetrizedGradientMemo:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_energy_equals_memo_free_route(self, k, d):
        rng = np.random.default_rng(900 + 10 * k + d)
        for m in range(max(k, 1), 5):
            h_fn = random_cylinder(rng, k, d)
            x = rng.uniform(-1, 1, size=(k, d))
            pts = rng.uniform(-1.5, 1.5, size=(m - k, d))
            if m - k > 1:
                pts[1] = pts[0]  # a repeated point: arrangements that coincide
            assert same_bits(exchange_energy(symmetrized(h_fn), x, pts, analytic=True),
                             ref_symmetrized_energy(h_fn, x, pts))

    def test_memo_holds_one_multiset(self):
        rng = np.random.default_rng(950)
        sym = symmetrized(random_cylinder(rng, 1, 1))
        for m in (3, 4, 2):
            x = rng.uniform(-1, 1, size=(1, 1))
            pts = rng.uniform(-1.5, 1.5, size=(m - 1, 1))
            exchange_energy(sym, x, pts, analytic=True)
            multiset = np.sort(np.concatenate([x, pts]), axis=0)
            assert 0 < len(sym._memo) <= math.factorial(m)
            for key in sym._memo:
                arranged = np.frombuffer(key).reshape(m, 1)
                assert np.array_equal(np.sort(arranged, axis=0), multiset)
            grads = sym.grads(x, pts)
            want = ref_symmetrized_grads(sym.h_fn, x, pts)
            assert bits_equal(grads[0], want[0]) and bits_equal(grads[1], want[1])


# ----------------------------------------------- NaN residuals fail their rows

def nan_on_second(fn):
    """fn, except that its second call returns NaN in place of fn's result."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        if len(calls) != 2:
            return out
        if isinstance(out, FormReport):
            out.max_residual = math.nan
            return out
        return math.nan
    return wrapped


FORMS_MINI = """\
[pipeline]
name = forms-suite
seed = 5
iota_pairs = 3
iota_h = 1e-4
iota_threshold = 1e-5
pointwise_samples = 2
mc_samples = 20
product_h = 1e-4
product_threshold = 1e-5
oracle_samples = 3
oracle_threshold = 1e-6
contraction_instances = 1
idempotence_max_points = 5
"""


class TestNaNResidualsFail:
    def test_product_pointwise_nan_is_the_maximum(self):
        calls = []

        def marked_sampler(seed):
            # the second pointwise sample carries a point at 3, where f is NaN
            calls.append(seed)
            pts = [[0.5], [3.0 if len(calls) == 2 else -0.5]]
            return Configuration(pts, Domain(1, "free", 10.0))

        def f_of(x, pts):
            return math.nan if np.any(np.abs(pts - 3.0) < 0.1) else float(np.sum(np.sin(pts)))

        f = Evaluator(f_of, k=0, d=1)
        report = check_product_formula(Bump(1.0, 1), f, marked_sampler, n_pointwise=3,
                                       n_samples=2, seed=0)
        assert math.isnan(report.max_residual)

    def test_oracle_nan_fails_its_row(self, monkeypatch):
        # calls alternate finite-difference and analytic: the second is the
        # first sample's analytic form
        monkeypatch.setattr(pipelines, "gamma_k", nan_on_second(pipelines.gamma_k))
        rows = {r.check: r for r in run_pipeline("forms-suite", FORMS_MINI).rows}
        row = rows["gamma-oracle-max-rel-err"]
        assert math.isnan(row.value) and not row.passed

    def test_iota_nan_fails_its_row(self, monkeypatch):
        monkeypatch.setattr(pipelines, "check_iota_identity",
                            nan_on_second(pipelines.check_iota_identity))
        rows = {r.check: r for r in run_pipeline("forms-suite", FORMS_MINI).rows}
        row = rows["iota-identity-max-residual"]
        assert math.isnan(row.value) and not row.passed
