import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import eigvalsh_tridiagonal
from scipy.spatial.distance import pdist
from scipy.special import gammainc

from ibmsim import pointprocess
from ibmsim.configuration import Domain
from ibmsim.errors import AcceptanceTooLow, ConfigError, NonConvergenceWarning, WindowTooLarge
from ibmsim.pointprocess import (
    DPPSpec,
    _window_eigenvalues,
    GibbsChain,
    GibbsSpec,
    make_poisson_sampler,
    move_acceptance_probability,
    palm_condition,
    sample_dyson_sine,
    sample_gibbs,
    sample_ginibre,
    sample_poisson,
    sine_bulk_radius,
)
from ibmsim.potentials import PotentialSpec


def reference_energy(chain, y, others):
    """phi(y) plus the pair terms of y against others, as the chain once
    computed it: Domain.distance on the rows left after np.delete."""
    pot = chain.spec.potentials
    energy = float(pot.phi_value(y[None, :])[0])
    if others.shape[0] == 0:
        return energy + 0.0
    dist = chain.domain.distance(others, y)
    if pot.has_hard_core and np.any(dist < pot.hard_core_sigma):
        return energy + math.inf
    if not pot.has_pair:
        return energy + 0.0
    near = dist[dist <= pot.r_cut]
    if near.size == 0:
        return energy + 0.0
    return energy + float(np.sum(pot.pair_value(near)))


def reference_step(chain):
    """One proposal of GibbsChain as first written, kept as the reference for
    the chain's stream: same rng calls, energies and accept decisions."""
    spec, rng, dom = chain.spec, chain.rng, chain.domain
    pts = chain._points
    n = pts.shape[0]
    if n > 0 and rng.uniform() < pointprocess._MOVE_FRACTION:
        chain.proposed["move"] += 1
        idx = rng.integers(n)
        others = np.delete(pts, idx, axis=0)
        proposal = pts[idx] + spec.proposal_scale * rng.normal(size=dom.dimension)
        proposal = dom.wrap(proposal)
        if not dom.contains(proposal[None, :]):
            return
        delta = reference_energy(chain, proposal, others) - reference_energy(chain, pts[idx],
                                                                              others)
        if math.log(rng.uniform()) < -spec.beta * delta:
            new = pts.copy()
            new[idx] = proposal
            chain._points = new
            chain.accepts["move"] += 1
        return
    if rng.uniform() < 0.5:
        chain.proposed["birth"] += 1
        y = pointprocess._uniform_points(rng, dom, 1)[0]
        delta = reference_energy(chain, y, pts)
        log_ratio = math.log(spec.activity * dom.volume) - math.log(n + 1) - spec.beta * delta
        if math.log(rng.uniform()) < log_ratio:
            chain._points = np.vstack([pts, y[None, :]])
            chain.accepts["birth"] += 1
        return
    chain.proposed["death"] += 1
    if n > 0:
        idx = rng.integers(n)
        others = np.delete(pts, idx, axis=0)
        delta = -reference_energy(chain, pts[idx], others)
        log_ratio = math.log(n) - math.log(spec.activity * dom.volume) - spec.beta * delta
        if math.log(rng.uniform()) < log_ratio:
            chain._points = others
            chain.accepts["death"] += 1


class TestGibbsStepStream:
    """The chain's proposal keeps the stream of the reference step bitwise."""

    SOFT = PotentialSpec(psi="soft_core", psi_strength=0.9, psi_range=0.6, r_cut=1.5)
    HARD = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
    LJ_HARMONIC = PotentialSpec(phi="harmonic", phi_strength=0.2, psi="lennard_jones",
                                psi_strength=0.4, psi_range=0.5, r_cut=1.5)
    CASES = {
        "torus-1d-hard-core": (Domain(1, "torus", 8.0), HARD, 2.2, 0.5),
        "torus-2d-hard-core": (Domain(2, "torus", 4.0), HARD, 1.5, 0.5),
        "ball-1d-hard-core": (Domain(1, "ball", 4.0), HARD, 1.5, 0.8),
        "ball-2d-hard-core": (Domain(2, "ball", 2.5), HARD, 1.2, 0.8),
        "torus-1d-soft-core": (Domain(1, "torus", 10.0), SOFT, 1.5, 0.5),
        "torus-2d-soft-core": (Domain(2, "torus", 4.0), SOFT, 1.5, 0.5),
        "ball-1d-soft-core": (Domain(1, "ball", 5.0), SOFT, 1.5, 1.0),
        "ball-2d-soft-core": (Domain(2, "ball", 2.5), SOFT, 1.5, 0.8),
        "torus-3d-soft-core": (Domain(3, "torus", 2.5), SOFT, 1.0, 0.5),
        "torus-1d-lj-harmonic": (Domain(1, "torus", 8.0), LJ_HARMONIC, 1.5, 0.5),
        "torus-2d-lj-harmonic": (Domain(2, "torus", 4.0), LJ_HARMONIC, 1.2, 0.5),
        "ball-1d-lj-harmonic": (Domain(1, "ball", 4.0), LJ_HARMONIC, 1.5, 0.8),
        "ball-2d-lj-harmonic": (Domain(2, "ball", 2.5), LJ_HARMONIC, 1.2, 0.8),
        "torus-2d-free": (Domain(2, "torus", 3.0), PotentialSpec(), 1.0, 0.5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_points_and_counts_after_every_proposal(self, case):
        dom, pot, activity, scale = self.CASES[case]
        spec = GibbsSpec(pot, activity=activity, proposal_scale=scale)
        chain, ref = GibbsChain(spec, dom, seed=61), GibbsChain(spec, dom, seed=61)
        for _ in range(1500):
            chain.step()
            reference_step(ref)
            assert chain.points.tobytes() == ref.points.tobytes()
            assert chain.points.shape == ref.points.shape
        assert chain.proposed == ref.proposed and chain.accepts == ref.accepts
        assert all(chain.accepts[move] > 0 for move in ("move", "birth", "death"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_energies_match_the_reference(self, case):
        # an energy off by one ulp rarely flips an accept decision, so the
        # energies are compared on their own
        dom, pot, _, _ = self.CASES[case]
        chain = GibbsChain(GibbsSpec(pot), dom, seed=0)
        rng = np.random.default_rng(62)
        for n in (1, 2, 5, 9, 17, 30):
            pts = pointprocess._uniform_points(rng, dom, n)
            y = pointprocess._uniform_points(rng, dom, 1)
            idx = int(rng.integers(n))
            others = np.delete(pts, idx, axis=0)
            want = (reference_energy(chain, y[0], others)
                    - reference_energy(chain, pts[idx], others))
            got = chain._move_delta(pts, idx, np.concatenate((y, pts[idx:idx + 1])))
            birth, = chain._energies(y, pts)
            death, = chain._energies(pts[idx:idx + 1], pts, idx)
            assert np.array([got, birth, death]).tobytes() == np.array([
                want, reference_energy(chain, y[0], pts),
                reference_energy(chain, pts[idx], others)]).tobytes()


class TestPoisson:
    def test_mean_count(self):
        dom = Domain(1, "torus", 10.0)
        counts = [len(sample_poisson(dom, 2.0, seed)) for seed in range(2000)]
        mean = np.mean(counts)
        sigma = math.sqrt(20.0 / len(counts))
        assert abs(mean - 20.0) < 3 * sigma

    def test_count_is_poisson_distributed(self):
        dom = Domain(1, "torus", 4.0)
        counts = np.array([len(sample_poisson(dom, 1.5, s)) for s in range(3000)])
        # variance equals mean for a Poisson count
        assert counts.var() == pytest.approx(counts.mean(), rel=0.1)

    def test_small_intensity_is_empty(self):
        dom = Domain(1, "torus", 1.0)
        assert len(sample_poisson(dom, 1e-8, seed=0)) == 0

    def test_ball_domain_points_inside(self):
        dom = Domain(2, "ball", 3.0)
        c = sample_poisson(dom, 1.0, seed=5)
        assert dom.contains(c.points)

    def test_determinism(self):
        dom = Domain(2, "torus", 5.0)
        a = sample_poisson(dom, 1.0, seed=42)
        b = sample_poisson(dom, 1.0, seed=42)
        assert np.array_equal(a.points, b.points)


class TestGibbs:
    def test_free_case_reduces_to_poisson(self):
        dom = Domain(1, "torus", 6.0)
        spec = GibbsSpec(PotentialSpec(), activity=1.5, burn_in=2000, thin=25)
        chain = GibbsChain(spec, dom, seed=1)
        counts = np.array([len(chain.sample()) for _ in range(600)])
        target = 1.5 * 6.0
        batches = counts.reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(counts.mean() - target) < 3 * se + 0.05 * target

    def test_hard_core_constraint(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.6)
        spec = GibbsSpec(pot, activity=1.0, burn_in=4000, thin=10)
        chain = GibbsChain(spec, dom, seed=2)
        for _ in range(50):
            c = chain.sample()
            if len(c) >= 2:
                assert c.min_pair_distance() >= 0.6

    def test_move_detailed_balance(self):
        dom = Domain(1, "torus", 6.0)
        pot = PotentialSpec(psi="lennard_jones", psi_strength=0.5, psi_range=0.9)
        spec = GibbsSpec(pot, beta=0.8)
        rng = np.random.default_rng(3)
        pts = np.array([[1.0], [2.3], [4.1]])
        chain = GibbsChain(spec, dom, seed=0)
        for _ in range(25):
            idx = int(rng.integers(3))
            prop = dom.wrap(pts[idx] + rng.normal(scale=0.4, size=1))
            fwd = move_acceptance_probability(spec, dom, pts, idx, prop)
            swapped = pts.copy()
            swapped[idx] = prop
            bwd = move_acceptance_probability(spec, dom, swapped, idx, pts[idx])
            others = np.delete(pts, idx, axis=0)
            du = float(
                np.sum(pot.pair_value(dom.distance(others, prop)))
                - np.sum(pot.pair_value(dom.distance(others, pts[idx])))
            )
            assert abs(fwd / bwd - math.exp(-spec.beta * du)) < 1e-10

    def test_translation_invariance_of_intensity(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.8, psi_range=0.6, r_cut=3.0)
        spec = GibbsSpec(pot, activity=1.2, burn_in=4000, thin=40)
        chain = GibbsChain(spec, dom, seed=4)
        edges = np.linspace(0, 8, 5)
        hists = np.array(
            [np.histogram(chain.sample().points[:, 0], bins=edges)[0] for _ in range(400)]
        )
        batch = hists.reshape(20, -1, 4).mean(axis=1)
        means = batch.mean(axis=0)
        ses = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
        pooled = means.mean()
        assert np.all(np.abs(means - pooled) < 3 * ses + 1e-9)

    @pytest.mark.parametrize("pot,activity,burn_in,seed", [
        (PotentialSpec(), 1.25, 2000, 3),
        (PotentialSpec(psi="soft_core", psi_strength=0.8, psi_range=0.6, r_cut=3.0), 1.2, 4000, 4),
    ], ids=["free", "soft-core"])
    def test_healthy_chain_does_not_warn(self, pot, activity, burn_in, seed):
        # pooled over births and deaths these chains accept 0.82-0.94 of all
        # proposals, which is no sign of a poor move step
        chain = GibbsChain(GibbsSpec(pot, activity=activity, burn_in=burn_in),
                           Domain(1, "torus", 8.0), seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            chain.sample()
        assert chain.proposals == burn_in
        assert chain.accepted == sum(chain.accepts.values())
        assert set(chain.proposed) == {"move", "birth", "death"}
        if not pot.has_pair:
            assert chain.accepts["move"] == chain.proposed["move"]

    def test_overshooting_moves_warn(self):
        dom = Domain(2, "torus", 4.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.6)
        spec = GibbsSpec(pot, activity=1000.0, burn_in=10_000, proposal_scale=50.0)
        chain = GibbsChain(spec, dom, seed=7)
        with pytest.warns(NonConvergenceWarning, match="proposal_scale below 50"):
            chain.sample()
        assert chain.accepts["move"] < 0.05 * chain.proposed["move"]

    def test_equilibrium_move_failure_warns(self):
        # the fill-up from an empty torus accepts moves at 0.050 over the
        # whole burn-in; its second half runs at 0.032 over 985 moves
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        spec = GibbsSpec(pot, activity=1e5, burn_in=4000, proposal_scale=50.0)
        chain = GibbsChain(spec, dom, seed=7)
        with pytest.warns(NonConvergenceWarning, match="0.032 below 0.05 over the last 985 moves"):
            chain.sample()
        assert chain.accepts["move"] >= 0.05 * chain.proposed["move"]

    def test_samples_pinned(self):
        # SHA-256 of these samples from the chain before it counted per move
        # type: the counters draw no random numbers
        h = hashlib.sha256()
        for pot, dom in (
            (PotentialSpec(), Domain(1, "torus", 8.0)),
            (PotentialSpec(psi="soft_core", psi_strength=0.8, psi_range=0.6, r_cut=3.0),
             Domain(1, "torus", 8.0)),
            (PotentialSpec(psi="hard_core", hard_core_diameter=0.3), Domain(2, "ball", 2.0)),
        ):
            chain = GibbsChain(GibbsSpec(pot, activity=1.2, burn_in=1000, thin=20), dom, seed=5)
            for _ in range(5):
                h.update(chain.sample().points.tobytes())
        assert h.hexdigest() == "f78e9285297ac010cfea452baf1752f393c9372c03d4de442bc355d99a4de91d"

    def test_sample_gibbs_single_call(self):
        dom = Domain(1, "torus", 5.0)
        spec = GibbsSpec(PotentialSpec(), activity=1.0, burn_in=500)
        c = sample_gibbs(spec, dom, seed=9)
        assert c.domain == dom


class TestDysonSine:
    def test_window_guard(self):
        with pytest.raises(WindowTooLarge):
            sample_dyson_sine(DPPSpec("sine", n_matrix=20, window_radius=100.0), 0)
        assert sine_bulk_radius(500) == pytest.approx(1000 / math.pi)

    def test_unit_intensity(self):
        spec = DPPSpec("sine", n_matrix=200, window_radius=6.0)
        total = sum(len(sample_dyson_sine(spec, s)) for s in range(60))
        expected = 60 * 12.0
        assert abs(total - expected) / expected < 0.1

    def test_short_range_repulsion(self):
        spec = DPPSpec("sine", n_matrix=200, window_radius=6.0)
        close = 0
        poisson_rate = 0.0
        for s in range(60):
            pts = sample_dyson_sine(spec, s).points[:, 0]
            sep = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)]
            close += int(np.count_nonzero(sep < 0.1))
            poisson_rate += len(pts) * (len(pts) - 1) / 2 * (0.2 / 12.0)
        assert close < 0.3 * poisson_rate

    def test_kernel_kind_guard(self):
        with pytest.raises(ConfigError):
            sample_dyson_sine(DPPSpec("ginibre", n_matrix=100, window_radius=2.0), 0)

    def test_exact_gue_counts(self):
        # the finite-n GUE window counts to five decimals
        assert gue_window_count(200, 6.0) == pytest.approx(11.99557, abs=1e-5)
        assert gue_window_count(100, 6.0) == pytest.approx(11.98229, abs=1e-5)
        assert gue_window_count(50, 3.0) == pytest.approx(5.99122, abs=1e-5)

    def test_mean_window_count_matches_exact_gue_count(self):
        # a 3% error in the sqrt(n)/pi scale moves the mean by about 0.35,
        # about 10 se at 500 samples
        spec = DPPSpec("sine", n_matrix=200, window_radius=6.0)
        counts = [len(sample_dyson_sine(spec, 700 + s)) for s in range(500)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - gue_window_count(200, 6.0)) < 3 * se


def gue_window_count(n, w, n_nodes=400):
    """Exact mean number of eigenvalues of the n x n GUE (weight e^{-x^2/2})
    in |x| < w pi / sqrt(n): the integral of sum_{k<n} phi_k^2 over that
    interval, phi_k the orthonormal Hermite functions, by Gauss-Legendre."""
    a = w * math.pi / math.sqrt(n)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = a * nodes
    prev, phi = np.zeros_like(x), (2 * math.pi) ** -0.25 * np.exp(-x**2 / 4)
    density = phi**2
    for k in range(n - 1):
        prev, phi = phi, (x * phi - math.sqrt(k) * prev) / math.sqrt(k + 1)
        density += phi**2
    return float(a * weights @ density)


class TestGinibre:
    def test_intensity_one_over_pi(self):
        spec = DPPSpec("ginibre", n_matrix=150, window_radius=4.0)
        total = sum(len(sample_ginibre(spec, s)) for s in range(40))
        expected = 40 * math.pi * 16.0 / math.pi
        assert abs(total - expected) / expected < 0.1

    def test_window_guard(self):
        with pytest.raises(WindowTooLarge):
            sample_ginibre(DPPSpec("ginibre", n_matrix=16, window_radius=3.0), 0)

    @pytest.mark.parametrize("n, radius", [(16, 2.0), (100, 4.0), (500, 5.0)])
    def test_one_point_per_kept_function_inside_the_open_disk(self, n, radius):
        spec = DPPSpec("ginibre", n_matrix=n, window_radius=radius)
        mass = gammainc(np.arange(1.0, n + 1.0), radius**2)
        for seed in range(20):
            pts = sample_ginibre(spec, seed).points
            # the sampler's first draws decide which z^k are kept
            kept = np.random.default_rng(seed).uniform(size=n) < mass
            assert len(pts) == np.count_nonzero(kept)
            assert np.all(np.sum(pts * pts, axis=1) < radius**2)
            assert np.array_equal(pts, sample_ginibre(spec, seed).points)

    def test_mean_count_is_the_sum_of_the_kernel_eigenvalues(self):
        n, radius = 100, 4.0
        spec = DPPSpec("ginibre", n_matrix=n, window_radius=radius)
        mass = gammainc(np.arange(1.0, n + 1.0), radius**2)
        counts = [len(sample_ginibre(spec, 9000 + s)) for s in range(400)]
        # the count is a sum of independent Bernoulli(p_k)
        se = math.sqrt(np.sum(mass * (1.0 - mass)) / len(counts))
        assert abs(np.mean(counts) - mass.sum()) < 4 * se


def _sine_tridiagonal(n, seed):
    """The (diagonal, off-diagonal) pair that sample_dyson_sine draws."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1.0)))


def _assert_matches_full_spectrum(got, diag, off, scale, radius):
    """`got` holds the eigenvalues that the full solve of (diag, off) puts in
    the window, to within a few ulps of the spectrum's width (bisection's
    accuracy)."""
    full = eigvalsh_tridiagonal(diag, off) * scale
    ref = full[np.abs(full) < radius]
    assert len(got) == len(ref)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(full).max())


class TestWindowEigensolve:
    @pytest.mark.parametrize("n", [20, 200, 500])
    @pytest.mark.parametrize("radius", [0.3, 2.5, 6.0])
    def test_matches_the_full_spectrum(self, n, radius):
        spec = DPPSpec("sine", n_matrix=n, window_radius=radius)
        scale = math.sqrt(n) / math.pi
        for seed in range(10):
            diag, off = _sine_tridiagonal(n, seed)
            got = _window_eigenvalues(diag, off, scale, radius)
            assert np.array_equal(sample_dyson_sine(spec, seed).points[:, 0], got)
            _assert_matches_full_spectrum(got, diag, off, scale, radius)

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_edge_one_ulp_from_an_eigenvalue(self, n):
        # zero off-diagonals around j split off the exact eigenvalue diag[j];
        # pick a negative one whose window edge w / scale rounds onto it, which
        # the solver's half-open range (-w / scale, w / scale] would drop
        scale = math.sqrt(n) / math.pi
        for seed in range(100):
            diag, off = _sine_tridiagonal(n, seed)
            edge = np.nextafter(-diag * scale, math.inf) / scale
            found = np.flatnonzero((diag[1:-1] < 0) & (edge[1:-1] == -diag[1:-1]))
            if found.size:
                break
        j = found[0] + 1
        off[j - 1] = off[j] = 0.0
        x = -diag[j] * scale
        for radius, keeps in ((float(np.nextafter(x, math.inf)), True), (x, False)):
            got = _window_eigenvalues(diag, off, scale, radius)
            assert (diag[j] * scale in got) == keeps
            _assert_matches_full_spectrum(got, diag, off, scale, radius)


def dense_gue_window(spec, seed):
    """The dense route the sine sampler replaced: all eigenvalues of an
    n x n GUE matrix, rescaled, then the window kept."""
    rng = np.random.default_rng(seed)
    n = spec.n_matrix
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    h = (h + h.conj().T) / math.sqrt(2.0)  # E|H_ij|^2 = 1 off-diagonal
    eigs = np.linalg.eigvalsh(h) * (math.sqrt(n) / math.pi)
    return eigs[np.abs(eigs) < spec.window_radius][:, None]


def dense_ginibre_window(spec, seed):
    """The dense route the Ginibre sampler replaced: all eigenvalues of an
    n x n complex Ginibre matrix, then the disk kept."""
    rng = np.random.default_rng(seed)
    n = spec.n_matrix
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    eigs = np.linalg.eigvals(g)
    pts = np.column_stack([eigs.real, eigs.imag])
    return pts[np.sum(pts * pts, axis=1) < spec.window_radius**2]


def _window_statistics(points_list, edges):
    """Per sample: the point count, then the pair count in each separation bin."""
    return np.array([[len(p), *np.histogram(pdist(p), bins=edges)[0]] for p in points_list])


class TestAgainstDenseMatrices:
    """Same finite-n law as the dense eigensolves: the per-sample point count
    and the pair count in each separation bin agree in a two-sample z-test."""

    @pytest.mark.parametrize("kernel, n, radius, sampler, dense", [
        ("sine", 100, 6.0, sample_dyson_sine, dense_gue_window),
        ("ginibre", 64, 4.0, sample_ginibre, dense_ginibre_window),
    ], ids=["sine", "ginibre"])
    def test_counts_and_pair_counts_agree(self, kernel, n, radius, sampler, dense):
        spec = DPPSpec(kernel, n_matrix=n, window_radius=radius)
        seeds = range(5000, 5400)
        edges = np.arange(0.0, 4.01, 0.5)
        new = _window_statistics([sampler(spec, s).points for s in seeds], edges)
        ref = _window_statistics([dense(spec, s) for s in seeds], edges)
        se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + ref.var(axis=0, ddof=1) / len(ref))
        assert np.all(se > 0)
        z = (new.mean(axis=0) - ref.mean(axis=0)) / se
        assert np.all(np.abs(z) < 4), z


class TestSamplerDeterminism:
    def test_all_samplers_reproducible(self):
        dom = Domain(1, "torus", 6.0)
        spec = GibbsSpec(PotentialSpec(), activity=1.0, burn_in=500, thin=10)
        a = GibbsChain(spec, dom, seed=8).sample()
        b = GibbsChain(spec, dom, seed=8).sample()
        assert np.array_equal(a.points, b.points)
        dp = DPPSpec("sine", n_matrix=60, window_radius=6.0)
        assert np.array_equal(
            sample_dyson_sine(dp, 5).points, sample_dyson_sine(dp, 5).points
        )
        gp = DPPSpec("ginibre", n_matrix=60, window_radius=3.0)
        assert np.array_equal(
            sample_ginibre(gp, 5).points, sample_ginibre(gp, 5).points
        )


class TestPalm:
    def test_slivnyak_background_matches_fresh_poisson(self):
        # rejection bias is O(lambda * delta), so delta stays a few percent of
        # the mean spacing or the KS test can see it
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 1.5, seed=7)
        nearest_cond, nearest_free = [], []
        for rep in range(300):
            state = palm_condition(sampler, [[0.0]], delta=0.02, seed=rep * 7919)
            bg = state.background
            if len(bg):
                nearest_cond.append(float(np.min(dom.distance(bg.points, np.zeros(1)))))
            fresh = sample_poisson(dom, 1.5, seed=900_000 + rep)
            if len(fresh):
                nearest_free.append(float(np.min(dom.distance(fresh.points, np.zeros(1)))))
        pvalue = stats.ks_2samp(nearest_cond, nearest_free).pvalue
        assert pvalue > 0.01

    def test_consecutive_seeds_share_no_draw(self):
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 1.5, seed=7)
        backgrounds = {palm_condition(sampler, [[0.0]], delta=0.02, seed=s)
                       .background.points.tobytes() for s in range(30)}
        assert len(backgrounds) == 30

    def test_hard_core_background_keeps_exclusion(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.6)
        spec = GibbsSpec(pot, activity=1.5, burn_in=3000, thin=20)
        from ibmsim.pointprocess import make_gibbs_sampler

        sampler = make_gibbs_sampler(spec, dom, seed=11)
        state = palm_condition(sampler, [[0.0]], delta=0.1, seed=0)
        assert np.allclose(state.tagged, 0.0)
        if len(state.background):
            dists = dom.distance(state.background.points, np.zeros(1))
            assert np.min(dists) >= 0.6 - 0.1

    def test_k2_removes_both_tags(self):
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 2.0, seed=13)
        # condition on two well-separated locations
        state = palm_condition(sampler, [[2.0], [7.0]], delta=0.3, seed=1)
        assert state.k == 2
        ref = sampler  # the accepted draw had the matched points removed
        assert len(state.background) >= 0
        full = palm_condition(sampler, [[2.0], [7.0]], delta=0.3, seed=1)
        assert len(full.background) == len(state.background)

    def test_acceptance_too_low(self):
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 0.5, seed=17)
        with pytest.raises(AcceptanceTooLow):
            palm_condition(sampler, [[0.0]], delta=1e-9, seed=0, max_draws=50)


# ---------------------------------------------------------------------------
# lockstep chains against Tonks' exact hard-rod law on a circle
# ---------------------------------------------------------------------------

TONKS_L, TONKS_SIGMA, TONKS_Z = 10.0, 0.5, 1.5
TONKS_RHO1 = 0.638669  # E N / L of the grand-canonical rods below
LOCKSTEP_CHAINS, LOCKSTEP_BURN_IN = 1000, 1000


def tonks_count_law() -> np.ndarray:
    """P(N = m), m = 0 .. L / sigma, for hard rods of diameter sigma on a
    circle of length L at activity z: P(N) is proportional to
    z^N / N! * L (L - N sigma)^(N - 1), the ordered-gap simplex volume."""
    m = np.arange(int(TONKS_L / TONKS_SIGMA) + 1)
    free = TONKS_L - m * TONKS_SIGMA
    with np.errstate(divide="ignore"):
        logw = (m * math.log(TONKS_Z) - np.array([math.lgamma(k + 1) for k in m])
                + math.log(TONKS_L) + (m - 1) * np.log(np.where(free > 0, free, 0.0)))
    logw[0] = 0.0
    w = np.exp(logw - logw.max())
    return w / w.sum()


def tonks_palm_background_law() -> np.ndarray:
    """P0(background count = m): the Palm count law is P0(N) ~ N P(N), and
    the pin is one of the N rods."""
    p = tonks_count_law()
    m = np.arange(p.size)
    palm = m * p / np.sum(m * p)
    return palm[1:]


def chi_square_pvalue(counts: np.ndarray, law: np.ndarray) -> float:
    """Goodness of fit of the integer samples `counts` to `law` on 0 .. len-1,
    the tails pooled until every bin expects at least 5."""
    expected = law * counts.size
    observed = np.bincount(counts, minlength=law.size)[:law.size].astype(float)
    observed[-1] += np.count_nonzero(counts >= law.size)
    edges = [0]
    total = 0.0
    for k, e in enumerate(expected):
        total += e
        if total >= 5 and expected[k + 1:].sum() >= 5:
            edges.append(k + 1)
            total = 0.0
    edges.append(law.size)
    obs = np.add.reduceat(observed, edges[:-1])
    exp = np.add.reduceat(expected, edges[:-1])
    return float(stats.chisquare(obs, exp).pvalue)


def first_gap_pit(configs) -> np.ndarray:
    """The gap from the origin to the next rod, sent through its law given N
    rods with one at the origin: sigma + (L - N sigma) Beta(1, N - 1), whose
    CDF makes it uniform on [0, 1]."""
    out = []
    for config in configs:
        n = len(config) + 1
        if n < 2:
            continue
        excess = (config.points[:, 0].min() - TONKS_SIGMA) / (TONKS_L - n * TONKS_SIGMA)
        out.append(1.0 - (1.0 - excess) ** (n - 1))
    return np.array(out)


@pytest.fixture(scope="module")
def tonks_chains():
    """Burned-in lockstep hard-rod chains, unpinned and pinned at 0."""
    from ibmsim.dynamics import child_seeds
    from ibmsim.pointprocess import LockstepChains

    dom = Domain(1, "torus", TONKS_L)
    spec = GibbsSpec(PotentialSpec(psi="hard_core", hard_core_diameter=TONKS_SIGMA),
                     activity=TONKS_Z, burn_in=LOCKSTEP_BURN_IN)
    out = {}
    for purpose, pin in ((0, None), (1, [0.0])):
        chains = LockstepChains(spec, dom, child_seeds(21, purpose, LOCKSTEP_CHAINS), pin=pin)
        chains.burn_in()
        out["free" if pin is None else "pinned"] = chains
    return out


class TestLockstepTonks:
    """Gates fixed before their first run: |z| < 4, and p > 1e-3 for the
    chi-square and KS tests; the unpinned controls must fall outside them."""

    def test_law_is_tonks(self):
        p = tonks_count_law()
        assert np.sum(np.arange(p.size) * p) / TONKS_L == pytest.approx(TONKS_RHO1, abs=1e-6)

    def test_unpinned_density_matches_tonks(self, tonks_chains):
        counts = tonks_chains["free"].counts
        p = tonks_count_law()
        m = np.arange(p.size)
        sd = math.sqrt(np.sum(m * m * p) - np.sum(m * p) ** 2)
        z = (counts.mean() / TONKS_L - TONKS_RHO1) / (sd / TONKS_L / math.sqrt(counts.size))
        assert abs(z) < 4, z

    def test_pinned_count_is_the_palm_law(self, tonks_chains):
        law = tonks_palm_background_law()
        assert chi_square_pvalue(tonks_chains["pinned"].counts, law) > 1e-3
        # negative control: the unpinned count is not the Palm background count
        assert chi_square_pvalue(tonks_chains["free"].counts, law) < 1e-3

    def test_pinned_first_gap_is_the_palm_gap(self, tonks_chains):
        pinned = first_gap_pit(tonks_chains["pinned"].configurations())
        assert stats.kstest(pinned, "uniform").pvalue > 1e-3
        # negative control: seen from 0, unpinned rods are not pinned there
        free = first_gap_pit(tonks_chains["free"].configurations())
        assert stats.kstest(free, "uniform").pvalue < 1e-3

    def test_pin_stays_and_rods_never_overlap(self, tonks_chains):
        chains = tonks_chains["pinned"]
        assert np.all(chains._points[:, 0] == 0.0)
        dom = Domain(1, "torus", TONKS_L)
        for state in chains.palm_states()[:100]:
            assert np.array_equal(state.tagged, [[0.0]])
            everyone = np.vstack((state.tagged, state.background.points))
            gaps = dom.distance(everyone[:, None], everyone[None, :])
            assert np.all(gaps[~np.eye(len(everyone), dtype=bool)] >= TONKS_SIGMA)


class TestLockstepChains:
    @staticmethod
    def thm27_spec(burn_in=1500):
        pot = PotentialSpec(psi="soft_core", psi_strength=0.6, psi_range=0.7, r_cut=3.0)
        return GibbsSpec(pot, activity=1.25, burn_in=burn_in)

    def test_batch_of_one_gives_the_same_bits(self):
        from ibmsim.dynamics import child_seeds
        from ibmsim.pointprocess import LockstepChains

        dom = Domain(1, "torus", 8.0)
        seeds = child_seeds(5, 0, 6)
        batch = LockstepChains(self.thm27_spec(), dom, seeds, pin=[0.0])
        batch.burn_in()
        for seed, got in zip(seeds, batch.configurations()):
            alone = LockstepChains(self.thm27_spec(), dom, [seed], pin=[0.0])
            alone.burn_in()
            assert alone._points.shape[1] <= batch._points.shape[1]
            assert alone.configurations()[0].points.tobytes() == got.points.tobytes()

    def test_move_type_tallies(self):
        from ibmsim.pointprocess import LockstepChains

        chains = LockstepChains(self.thm27_spec(), Domain(1, "torus", 8.0), [1, 2, 3])
        chains.run(400)
        assert chains.steps == 400
        assert sum(chains.proposed.values()) <= 3 * 400
        births = chains.accepts["birth"] - chains.accepts["death"]
        assert births == chains.counts.sum()
        assert set(chains.acceptance()) == {"move", "birth", "death"}

    def test_stuck_moves_warn(self):
        from ibmsim.pointprocess import LockstepChains

        # the serial chain's overshooting case: dense disks, a step of 50
        spec = GibbsSpec(PotentialSpec(psi="hard_core", hard_core_diameter=0.6),
                         activity=1000.0, burn_in=10_000, proposal_scale=50.0)
        chains = LockstepChains(spec, Domain(2, "torus", 4.0), [7, 8])
        with pytest.warns(NonConvergenceWarning, match="proposal_scale below 50"):
            chains.burn_in()

    def test_healthy_burn_in_is_quiet(self):
        from ibmsim.pointprocess import LockstepChains

        chains = LockstepChains(self.thm27_spec(), Domain(1, "torus", 8.0), [1, 2], pin=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chains.burn_in()

    def test_needs_a_torus_and_a_pin_for_palm_states(self):
        from ibmsim.pointprocess import LockstepChains

        with pytest.raises(ConfigError):
            LockstepChains(self.thm27_spec(), Domain(1, "ball", 4.0), [1])
        with pytest.raises(ConfigError):
            LockstepChains(self.thm27_spec(), Domain(1, "torus", 8.0), [1], pin=[8.0])
        with pytest.raises(ConfigError):
            LockstepChains(self.thm27_spec(), Domain(1, "torus", 8.0), [1]).palm_states()


def test_pinned_chains_agree_with_delta_rejection():
    """palm_condition stays as the oracle of the pinned chains on thm27's
    interacting field: the mean Palm background count of the two routes by a
    two-sample z (gate |z| < 4, fixed before its first run). At a fixed
    window delta, the count's rejection bias is O(delta^2) on the torus."""
    from ibmsim.dynamics import child_seeds
    from ibmsim.pointprocess import LockstepChains, make_gibbs_sampler

    dom = Domain(1, "torus", 8.0)
    pot = PotentialSpec(psi="soft_core", psi_strength=0.6, psi_range=0.7, r_cut=3.0)
    spec = GibbsSpec(pot, activity=1.25, burn_in=2000, thin=20)
    rejection = []
    for k in range(8):
        sampler = make_gibbs_sampler(spec, dom, seed=400 + k)
        rejection += [len(palm_condition(sampler, [[0.0]], delta=0.05, seed=s).background)
                      for s in range(25)]
    chains = LockstepChains(spec, dom, child_seeds(400, 0, 200), pin=[0.0])
    chains.burn_in()
    a, b = np.array(rejection, float), chains.counts.astype(float)
    z = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(z) < 4, z
