"""Samplers for equilibrium point fields: Poisson reference, grand-canonical
Gibbs via birth/death/move Metropolis-Hastings, random-matrix determinantal
fields (sine-kernel / Ginibre), and Palm conditioning by rejection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .configuration import BALL, TORUS, Configuration, Domain, KLabeledState
from .errors import AcceptanceTooLow, ConfigError, NonConvergenceWarning, WindowTooLarge
from .potentials import PotentialSpec

# healthy Metropolis acceptance-rate band
_ACCEPT_LO, _ACCEPT_HI = 0.05, 0.7
# share of Gibbs proposals that move a point; the rest are births or deaths
_MOVE_FRACTION = 0.5


@dataclass(frozen=True)
class GibbsSpec:
    """Grand-canonical Gibbs sampler parameters."""

    potentials: PotentialSpec
    beta: float = 1.0
    activity: float = 1.0
    burn_in: int = 100_000
    thin: int = 50
    proposal_scale: float = 0.5

    def __post_init__(self):
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if not self.activity > 0:
            raise ConfigError("activity must be positive")
        if self.burn_in < 0 or self.thin < 1:
            raise ConfigError("burn_in must be >= 0 and thin >= 1")


@dataclass(frozen=True)
class DPPSpec:
    """Random-matrix determinantal sampler parameters."""

    kernel: str = "sine"
    n_matrix: int = 500
    window_radius: float = 10.0

    def __post_init__(self):
        if self.kernel not in ("sine", "ginibre"):
            raise ConfigError("kernel must be 'sine' or 'ginibre'")
        if self.n_matrix < 2:
            raise ConfigError("n_matrix must be >= 2")
        if not self.window_radius > 0:
            raise ConfigError("window_radius must be positive")


def _uniform_points(rng, domain: Domain, n: int) -> np.ndarray:
    d = domain.dimension
    if domain.geometry == TORUS:
        return rng.uniform(0.0, domain.size, size=(n, d))
    if domain.geometry == BALL:
        # radius ~ U^(1/d) puts points uniformly in the ball
        radius = domain.size * rng.uniform(size=n) ** (1.0 / d)
        vec = rng.normal(size=(n, d))
        norm = np.linalg.norm(vec, axis=1)
        norm[norm == 0] = 1.0
        return (radius / norm)[:, None] * vec
    raise ConfigError("uniform sampling needs a bounded (torus or ball) domain")


def sample_poisson(domain: Domain, intensity: float, seed: int) -> Configuration:
    """Homogeneous Poisson sample: Poisson(intensity * |domain|) uniform points."""
    if not intensity > 0:
        raise ConfigError("intensity must be positive")
    rng = np.random.default_rng(seed)
    n = rng.poisson(intensity * domain.volume)
    return Configuration(_uniform_points(rng, domain, n), domain, validate=False)


class GibbsChain:
    """Birth/death/move Metropolis-Hastings chain for the grand-canonical
    Gibbs measure with energy sum Phi + pairwise Psi at inverse temperature
    beta and activity z. Hard cores reject overlapping proposals outright."""

    def __init__(self, spec: GibbsSpec, domain: Domain, seed: int):
        if domain.geometry not in (TORUS, BALL):
            raise ConfigError("Gibbs sampling needs a bounded domain")
        self.spec = spec
        self.domain = domain
        self.rng = np.random.default_rng(seed)
        self._points = np.empty((0, domain.dimension))
        self.proposals = 0
        self.accepted = 0
        self._burned = False

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _interaction(self, y: np.ndarray, others: np.ndarray) -> float:
        """Sum of psi(y, x_j) over others, cut off at r_cut; inf on hard core."""
        pot = self.spec.potentials
        if others.shape[0] == 0:
            return 0.0
        dist = self.domain.distance(others, y)
        if pot.has_hard_core and np.any(dist < pot.hard_core_sigma):
            return math.inf
        if not pot.has_pair:
            return 0.0
        near = dist[dist <= pot.r_cut]
        if near.size == 0:
            return 0.0
        return float(np.sum(pot.pair_value(near)))

    def _point_energy(self, y: np.ndarray, others: np.ndarray) -> float:
        pot = self.spec.potentials
        return float(pot.phi_value(y[None, :])[0]) + self._interaction(y, others)

    def step(self) -> None:
        """One proposal: move with probability _MOVE_FRACTION, else birth/death."""
        spec, rng, dom = self.spec, self.rng, self.domain
        pts = self._points
        n = pts.shape[0]
        self.proposals += 1
        if n > 0 and rng.uniform() < _MOVE_FRACTION:
            idx = rng.integers(n)
            others = np.delete(pts, idx, axis=0)
            proposal = pts[idx] + spec.proposal_scale * rng.normal(size=dom.dimension)
            proposal = dom.wrap(proposal)
            if not dom.contains(proposal[None, :]):
                return
            delta = self._point_energy(proposal, others) - self._point_energy(pts[idx], others)
            if math.log(rng.uniform()) < -spec.beta * delta:
                new = pts.copy()
                new[idx] = proposal
                self._points = new
                self.accepted += 1
            return
        if rng.uniform() < 0.5:
            # birth
            y = _uniform_points(rng, dom, 1)[0]
            delta = self._point_energy(y, pts)
            log_ratio = (
                math.log(spec.activity * dom.volume) - math.log(n + 1) - spec.beta * delta
            )
            if math.log(rng.uniform()) < log_ratio:
                self._points = np.vstack([pts, y[None, :]])
                self.accepted += 1
        elif n > 0:
            # death
            idx = rng.integers(n)
            others = np.delete(pts, idx, axis=0)
            delta = -self._point_energy(pts[idx], others)
            log_ratio = (
                math.log(n) - math.log(spec.activity * dom.volume) - spec.beta * delta
            )
            if math.log(rng.uniform()) < log_ratio:
                self._points = others
                self.accepted += 1

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def _check_health(self) -> None:
        if self.proposals < 200:
            return
        rate = self.accepted / self.proposals
        if not _ACCEPT_LO <= rate <= _ACCEPT_HI:
            warnings.warn(
                f"Gibbs acceptance rate {rate:.3f} outside [{_ACCEPT_LO}, {_ACCEPT_HI}]",
                NonConvergenceWarning,
            )

    def sample(self) -> Configuration:
        """Burn in on first use, then advance `thin` proposals per sample."""
        if not self._burned:
            self.run(self.spec.burn_in)
            self._burned = True
            self._check_health()
        else:
            self.run(self.spec.thin)
        return Configuration(self._points.copy(), self.domain, validate=False)


def sample_gibbs(spec: GibbsSpec, domain: Domain, seed: int) -> Configuration:
    """One approximate Gibbs sample after the configured burn-in."""
    return GibbsChain(spec, domain, seed).sample()


def move_acceptance_probability(spec: GibbsSpec, domain: Domain,
                                points: np.ndarray, idx: int,
                                proposal: np.ndarray) -> float:
    """Metropolis acceptance probability of the move points[idx] -> proposal.

    For symmetric move proposals the ratio alpha(s->s') / alpha(s'->s) equals
    exp(-beta (H(s') - H(s))) exactly; exposed for detailed-balance tests.
    """
    chain = GibbsChain(spec, domain, 0)
    others = np.delete(points, idx, axis=0)
    delta = chain._point_energy(np.asarray(proposal, float), others) - chain._point_energy(
        points[idx], others
    )
    return min(1.0, math.exp(-spec.beta * delta))


def _gue_eigenvalues(n: int, rng) -> np.ndarray:
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    h = (real + 1j * imag) / math.sqrt(2.0)
    h = (h + h.conj().T) / math.sqrt(2.0)  # E|H_ij|^2 = 1 off-diagonal
    return np.linalg.eigvalsh(h)


def sine_bulk_radius(n_matrix: int) -> float:
    """Half-width of the rescaled (unit-intensity) GUE spectrum."""
    return 2.0 * n_matrix / math.pi


def sample_dyson_sine(spec: DPPSpec, seed: int) -> Configuration:
    """Unit-intensity sine-kernel statistics in a centered window (d = 1).

    GUE eigenvalues rescaled by sqrt(N)/pi so the bulk density at 0 is one,
    restricted to |x| < window_radius.
    """
    if spec.kernel != "sine":
        raise ConfigError("sample_dyson_sine needs kernel='sine'")
    if spec.window_radius > 0.5 * sine_bulk_radius(spec.n_matrix):
        raise WindowTooLarge("window exits the GUE bulk; shrink it or grow n_matrix")
    rng = np.random.default_rng(seed)
    eigs = _gue_eigenvalues(spec.n_matrix, rng) * (math.sqrt(spec.n_matrix) / math.pi)
    inside = eigs[np.abs(eigs) < spec.window_radius]
    domain = Domain(1, BALL, spec.window_radius)
    return Configuration(inside[:, None], domain, validate=False)


def ginibre_bulk_radius(n_matrix: int) -> float:
    return math.sqrt(n_matrix)


def sample_ginibre(spec: DPPSpec, seed: int) -> Configuration:
    """Ginibre field of intensity 1/pi in a centered disk window (d = 2)."""
    if spec.kernel != "ginibre":
        raise ConfigError("sample_ginibre needs kernel='ginibre'")
    if spec.window_radius > 0.5 * ginibre_bulk_radius(spec.n_matrix):
        raise WindowTooLarge("window exits the circular-law bulk")
    rng = np.random.default_rng(seed)
    n = spec.n_matrix
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    eigs = np.linalg.eigvals(g)
    pts = np.column_stack([eigs.real, eigs.imag])
    inside = pts[np.sum(pts * pts, axis=1) < spec.window_radius**2]
    domain = Domain(2, BALL, spec.window_radius)
    return Configuration(inside, domain, validate=False)


def palm_condition(sampler, x, delta: float, seed: int,
                   max_draws: int = 1_000_000) -> KLabeledState:
    """Palm conditioning by delta-rejection.

    Draws configurations from `sampler(draw_seed)`, accepts one that has a
    distinct point within delta of every x_i, removes those points and snaps
    the tagged tuple onto x. The bias of the rejection is O(delta).
    """
    if not delta > 0:
        raise ConfigError("delta must be positive")
    first = sampler(seed)
    domain = first.domain
    tags = np.atleast_2d(np.asarray(x, dtype=float))
    if tags.shape[1] != domain.dimension:
        tags = tags.reshape(-1, domain.dimension)

    def try_accept(config):
        taken: list[int] = []
        for xi in tags:
            dist = domain.distance(config.points, xi)
            if taken:
                dist = dist.copy()
                dist[taken] = math.inf
            j = int(np.argmin(dist)) if dist.size else -1
            if j < 0 or dist[j] > delta:
                return None
            taken.append(j)
        return KLabeledState(tags, config.without(taken), validate=False)

    config = first
    for draw in range(max_draws):
        if draw > 0:
            config = sampler(seed + draw)
        state = try_accept(config)
        if state is not None:
            return state
    raise AcceptanceTooLow(
        f"no acceptance in {max_draws} draws; delta too small or x atypical"
    )


def make_gibbs_sampler(spec: GibbsSpec, domain: Domain, seed: int):
    """Sampler callable backed by one thinned chain; the integer argument is
    only consumed to keep the call signature uniform with stateless samplers."""
    chain = GibbsChain(spec, domain, seed)

    def draw(_draw_seed: int) -> Configuration:
        return chain.sample()

    return draw


def make_poisson_sampler(domain: Domain, intensity: float, seed: int):
    def draw(draw_seed: int) -> Configuration:
        return sample_poisson(domain, intensity, seed * 1_000_003 + draw_seed)

    return draw
