import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibmsim.configuration import (
    Configuration,
    Domain,
    KLabeledState,
    LabeledState,
    falling_factorial,
    iota,
    iota_inverse,
    kappa,
    label,
    translate,
)
from ibmsim.errors import DomainError, KMismatch, NotSingle


def free1d(points):
    return Configuration(points, Domain(1, "free", 10.0))


class TestDomain:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            Domain(0, "torus", 1.0)
        with pytest.raises(DomainError):
            Domain(1, "woods", 1.0)
        with pytest.raises(DomainError):
            Domain(2, "ball", -1.0)

    def test_torus_minimum_image(self):
        dom = Domain(1, "torus", 10.0)
        assert dom.displacement(9.5, 0.5) == pytest.approx(-1.0)
        assert dom.distance(np.array([9.5]), np.array([0.5])) == pytest.approx(1.0)

    def test_contains(self):
        ball = Domain(2, "ball", 2.0)
        assert ball.contains([[1.0, 1.0]])
        assert not ball.contains([[2.0, 2.0]])
        torus = Domain(1, "torus", 5.0)
        assert torus.contains([0.0, 4.999])
        assert not torus.contains([5.0])

    def test_wrap_stays_strictly_below_size(self):
        # np.mod(-1e-18, 8.0) rounds up to 8.0, which is outside [0, 8)
        torus = Domain(2, "torus", 8.0)
        wrapped = torus.wrap([[-1e-18, 3.0], [8.0, -8.0], [16.0 - 1e-15, 7.5]])
        assert np.all(wrapped >= 0.0) and np.all(wrapped < 8.0)
        assert torus.contains(wrapped)
        assert np.array_equal(wrapped[:2], [[0.0, 3.0], [0.0, 0.0]])
        assert wrapped[2, 1] == 7.5

    def test_volume(self):
        assert Domain(3, "torus", 2.0).volume == pytest.approx(8.0)
        assert Domain(2, "ball", 3.0).volume == pytest.approx(math.pi * 9.0)


class TestConfiguration:
    def test_point_storage_is_immutable(self):
        c = free1d([1.0, 2.0])
        with pytest.raises(ValueError):
            c.points[0, 0] = 3.0

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            Configuration([6.0], Domain(1, "torus", 5.0))

    def test_is_single(self):
        assert free1d([1.0, 2.0]).is_single()
        assert not free1d([1.0, 1.0]).is_single()
        # within tolerance counts as coincident
        tol = Domain(1, "free", 10.0).coincidence_tol
        assert not free1d([1.0, 1.0 + 0.5 * tol]).is_single()

    def test_is_single_permutation_and_translation_invariant(self):
        rng = np.random.default_rng(3)
        dom = Domain(2, "torus", 5.0)
        for _ in range(20):
            pts = rng.uniform(0, 5, size=(6, 2))
            c = Configuration(pts, dom)
            cp = Configuration(pts[rng.permutation(6)], dom)
            assert c.is_single() == cp.is_single()
            shifted = translate(c, rng.uniform(0, 5, size=2))
            assert c.is_single() == shifted.is_single()

    @pytest.mark.parametrize("geometry", ["torus", "free", "ball"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_min_pair_distance_equals_all_pairs_exactly(self, d, geometry):
        # the 1-d sorted gaps and the d-dimensional masked-diagonal minimum
        # must give the bits of the upper-triangle all-pairs minimum
        def all_pairs_min(points, domain):
            diff = domain.displacement(points[:, None, :], points[None, :, :])
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            return float(np.min(dist[np.triu_indices(points.shape[0], k=1)]))

        rng = np.random.default_rng(11)
        dom = Domain(d, geometry, 8.0)
        low = 0.0 if geometry == "torus" else -8.0
        # the ball's inscribed cube; the whole box in one dimension
        scale = 1.0 / math.sqrt(d) if geometry == "ball" else 1.0
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            pts = rng.uniform(low, 8.0, size=(n, d))
            if rng.random() < 0.5:
                # crowd the ends, where the torus wrap-around gap decides
                k = n // 2
                offset = rng.uniform(0.0, 1e-3, size=(k, d))
                pts[:k] = np.where(rng.random((k, d)) < 0.5, low + offset, 8.0 - offset)
            c = Configuration(pts * scale, dom)
            assert c.min_pair_distance() == all_pairs_min(c.points, dom)

    def test_same_points_is_order_free(self):
        a = free1d([2.0, -1.0, 0.5])
        b = free1d([-1.0, 0.5, 2.0])
        assert a.same_points(b)
        assert not a.same_points(free1d([2.0, -1.0]))


class TestKappa:
    def test_definition_unrolled(self):
        s = KLabeledState([0.0], free1d([1.0, 2.0]))
        assert kappa(s).same_points(free1d([0.0, 1.0, 2.0]))

    def test_degenerate_k0(self):
        s = KLabeledState(np.empty((0, 1)), free1d([3.5]))
        assert kappa(s).same_points(free1d([3.5]))

    def test_multiplicities_summed(self):
        s = KLabeledState([1.0], free1d([1.0]))
        assert len(kappa(s)) == 2

    def test_kappa_of_labeled_state(self):
        dom = Domain(1, "free", 10.0)
        ls = LabeledState([2.0, 1.0], dom)
        assert kappa(ls).same_points(free1d([1.0, 2.0]))


class TestLabel:
    def test_distance_from_origin(self):
        out = label(free1d([2.0, -1.0]), "distance-from-origin")
        assert np.allclose(out.points[:, 0], [-1.0, 2.0])

    def test_singleton(self):
        out = label(free1d([5.0]), "lexicographic")
        assert np.allclose(out.points, [[5.0]])

    def test_not_single_raises(self):
        with pytest.raises(NotSingle):
            label(free1d([1.0, 1.0]))

    def test_kappa_after_label_is_identity(self):
        rng = np.random.default_rng(11)
        dom = Domain(2, "torus", 4.0)
        for rule in ("lexicographic", "distance-from-origin", "stored-order"):
            for _ in range(25):
                c = Configuration(rng.uniform(0, 4, size=(5, 2)), dom)
                assert kappa(label(c, rule)).same_points(c)

    def test_label_after_kappa_is_a_permutation(self):
        # oracle: explicitly search the permutation group
        rng = np.random.default_rng(23)
        dom = Domain(1, "torus", 8.0)
        for _ in range(25):
            pts = rng.uniform(0, 8, size=(5, 1))
            ls = LabeledState(pts, dom)
            relabeled = label(kappa(ls), "lexicographic").points
            hit = any(
                np.array_equal(pts[list(perm)], relabeled)
                for perm in itertools.permutations(range(5))
            )
            assert hit


class TestTranslate:
    def test_zero_shift_is_identity(self):
        c = free1d([1.0, 2.0])
        assert translate(c, 0.0).same_points(c)

    def test_definition(self):
        assert translate(free1d([1.0, 2.0]), 1.0).same_points(free1d([0.0, 1.0]))

    def test_composition_law(self):
        rng = np.random.default_rng(5)
        dom = Domain(2, "torus", 6.0)
        for _ in range(30):
            c = Configuration(rng.uniform(0, 6, size=(4, 2)), dom)
            a, b = rng.uniform(-6, 6, size=(2, 2))
            two_step = translate(translate(c, a), b)
            one_step = translate(c, a + b)
            assert two_step.same_points(one_step, tol=1e-12)

    def test_preserves_count_and_pair_distances(self):
        rng = np.random.default_rng(7)
        dom = Domain(2, "torus", 6.0)
        c = Configuration(rng.uniform(0, 6, size=(5, 2)), dom)
        t = translate(c, rng.uniform(0, 6, size=2))
        assert len(t) == len(c)
        assert t.min_pair_distance() == pytest.approx(c.min_pair_distance(), abs=1e-12)

    def test_ball_requires_unbounded_flag(self):
        c = Configuration([[0.5, 0.0]], Domain(2, "ball", 1.0))
        with pytest.raises(DomainError):
            translate(c, [2.0, 0.0])
        out = translate(c, [2.0, 0.0], unbounded=True)
        assert out.domain.geometry == "free"
        assert np.allclose(out.points, [[-1.5, 0.0]])


class TestIota:
    def test_zero_tag_is_identity(self):
        s = KLabeledState([0.0], free1d([1.5, 3.0]))
        out = iota(s)
        assert out.background.same_points(s.background)

    def test_definition(self):
        s = KLabeledState([1.0], free1d([1.5, 3.0]))
        out = iota(s)
        assert np.allclose(out.tagged, [[1.0]])
        assert out.background.same_points(free1d([0.5, 2.0]))

    def test_requires_k1(self):
        with pytest.raises(KMismatch):
            iota(KLabeledState([1.0, 2.0], free1d([3.0])))
        with pytest.raises(KMismatch):
            iota_inverse(KLabeledState(np.empty((0, 1)), free1d([3.0])))

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for dom in (Domain(2, "free", 5.0), Domain(2, "torus", 5.0)):
            for _ in range(30):
                bg = Configuration(dom.wrap(rng.uniform(0, 5, size=(4, 2))), dom)
                tag = dom.wrap(rng.uniform(0, 5, size=(1, 2)))
                s = KLabeledState(tag, bg)
                back = iota_inverse(iota(s))
                assert np.allclose(back.tagged, s.tagged)
                assert back.background.same_points(s.background, tol=1e-12)


class TestFallingFactorial:
    def test_basic_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(3, 5) == 0

    @given(st.integers(0, 30), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_factorial_ratio(self, m, k):
        expected = math.factorial(m) // math.factorial(m - k) if k <= m else 0
        assert falling_factorial(m, k) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)
