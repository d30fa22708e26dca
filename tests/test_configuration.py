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
    _ALL_PAIRS_CACHED,
    _all_pairs,
    _close_pairs,
    _min_gap,
    _tree,
    _tree_pairs,
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

    @pytest.mark.parametrize("cls", [Configuration, LabeledState])
    def test_caller_array_is_neither_frozen_nor_aliased(self, cls):
        dom = Domain(2, "torus", 1.0)
        base = np.array([[0.5, 0.5], [0.1, 0.9], [0.3, 0.2]])
        for given in (base, base[:2]):
            state = cls(given, dom)
            before = state.points.copy()
            canon = state.canonical().copy() if cls is Configuration else None
            assert given.flags.writeable and base.flags.writeable
            given[0, 0] = 0.2
            base[1, 1] = 0.4
            assert np.array_equal(state.points, before)
            if cls is Configuration:
                assert np.array_equal(state.canonical(), canon)
            with pytest.raises(ValueError):
                state.points[0, 0] = 0.7
            if cls is Configuration:
                with pytest.raises(ValueError):
                    state.canonical()[0, 0] = 0.7

    def test_canonical_is_read_only(self):
        # the 1-d sorted copy; same_points and min_pair_distance read it
        dom = Domain(1, "torus", 8.0)
        pts = np.array([[1.0], [3.0], [2.0]])
        a, b = Configuration(pts, dom), Configuration(pts[::-1], dom)
        with pytest.raises(ValueError):
            a.canonical()[0, 0] = 7.0
        assert a.same_points(b)
        assert a.min_pair_distance() == b.min_pair_distance()

    def test_tagged_array_is_neither_frozen_nor_aliased(self):
        dom = Domain(1, "torus", 5.0)
        tagged = np.array([[1.0]])
        state = KLabeledState(tagged, Configuration([[2.0]], dom))
        tagged[0, 0] = 3.0
        assert state.tagged[0, 0] == 1.0

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
        # the 1-d sorted gaps and the d-dimensional KD-tree candidates must
        # give the bits of the upper-triangle all-pairs minimum, through a
        # Configuration and on the raw array alike
        def all_pairs_min(points, domain):
            diff = domain.displacement(points[:, None, :], points[None, :, :])
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            return float(np.min(dist[np.triu_indices(points.shape[0], k=1)]))

        rng = np.random.default_rng(11)
        dom = Domain(d, geometry, 8.0)
        low = 0.0 if geometry == "torus" else -8.0
        # the ball's inscribed cube; the whole box in one dimension
        scale = 1.0 / math.sqrt(d) if geometry == "ball" else 1.0

        def check(n, coincident=False, signed_zeros=False, outside=False):
            pts = rng.uniform(low, 8.0, size=(n, d))
            if rng.random() < 0.5:
                # crowd the ends, where the torus wrap-around gap decides
                k = n // 2
                offset = rng.uniform(0.0, 1e-3, size=(k, d))
                pts[:k] = np.where(rng.random((k, d)) < 0.5, low + offset, 8.0 - offset)
            if coincident:
                pts[-1] = pts[0]
            if signed_zeros:  # +0.0 and -0.0 coincide, in a random order
                pts[[0, 1]] = 0.0
                pts[int(rng.integers(2)), 0] = -0.0
            if outside:  # unvalidated torus input: whole periods off the box
                pts += 8.0 * rng.integers(-2, 3, size=(n, d))
            raw = pts * scale
            want = all_pairs_min(raw, dom)
            config = Configuration(raw, dom, validate=not outside)
            for got in (config.min_pair_distance(), _min_gap(raw, dom)):
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

        for _ in range(2000):
            check(int(rng.integers(2, 12)))
        for n in [2, 7, 50, 300] * 10:
            check(n)
            check(n, coincident=True)
            check(n, signed_zeros=True)
        if geometry == "torus":
            for _ in range(500):
                check(int(rng.integers(2, 12)), outside=True)
            for n in [2, 7, 50, 300] * 10:
                check(n, outside=True)
                check(n, coincident=True, outside=True)

    def test_all_pairs_cache_is_bounded(self):
        for n in list(range(2 * _ALL_PAIRS_CACHED)) + [5, 70, 5]:
            i, j = _all_pairs(n)
            assert _all_pairs.cache_info().currsize <= _ALL_PAIRS_CACHED
            want_i, want_j = np.nonzero(~np.eye(n, dtype=bool))
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            assert not i.flags.writeable and not j.flags.writeable
        assert _all_pairs(5) is _all_pairs(5)

    @staticmethod
    def lexsorted_pairs(points, domain, radius):
        """The tree's pairs ordered by a two-key lexsort, kept as the
        reference for _close_pairs' one sort of the keys i * n + j."""
        half = _tree_pairs(_tree(points, domain), radius)
        i, j = np.concatenate([half, half[:, ::-1]]).T
        order = np.lexsort((j, i))
        return i[order], j[order]

    @given(d=st.integers(1, 3), geometry=st.sampled_from(["torus", "free"]),
           n=st.integers(2, 400), radius=st.sampled_from([1e-9, 0.3, 1.0, 2.5]),
           coincident=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_close_pairs_equal_the_lexsorted_pairs(self, d, geometry, n, radius, coincident,
                                                   seed):
        rng = np.random.default_rng(seed)
        dom = Domain(d, geometry, 8.0)
        pts = rng.uniform(0.0 if geometry == "torus" else -8.0, 8.0, size=(n, d))
        for _ in range(min(coincident, n - 1)):  # repeated rows pair at distance 0
            pts[rng.integers(n)] = pts[rng.integers(n)]
        got, want = _close_pairs(pts, dom, radius), self.lexsorted_pairs(pts, dom, radius)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_close_pairs_with_no_pair_in_radius(self):
        dom = Domain(2, "torus", 8.0)
        pts = np.array([[0.5, 0.5], [4.0, 4.0], [7.0, 1.0]])
        got, want = _close_pairs(pts, dom, 0.1), self.lexsorted_pairs(pts, dom, 0.1)
        for a, b in zip(got, want):
            assert a.size == 0 and a.dtype == b.dtype and a.shape == b.shape

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

    def test_lexicographic_labels_equal_the_lexsort_rule(self):
        # oracle: the rule's former lexsort of the stored points; quarter-unit
        # grids make coordinates tie, with signed zeros among them
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(2000):
            d = int(rng.integers(1, 4))
            geometry = ("torus", "ball", "free")[int(rng.integers(3))]
            dom = Domain(d, geometry, 4.0)
            n = int(rng.integers(0, 12))
            pts = rng.uniform(0.0, 4.0, size=(n, d))
            if rng.uniform() < 0.5:
                pts = np.round(pts * 4.0) / 4.0 % 4.0
            if geometry != "torus":
                pts -= 2.0  # inside the radius-4 ball
            pts[pts == 0.0] *= rng.choice([1.0, -1.0], size=int(np.sum(pts == 0.0)))
            c = Configuration(pts, dom)
            if not c.is_single():
                continue
            expected = pts[np.lexsort(pts.T[::-1])]
            got = label(c, "lexicographic").points
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            checked += 1
        assert checked > 1000

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
