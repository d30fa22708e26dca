"""Samplers for equilibrium point fields: Poisson reference, grand-canonical
Gibbs via birth/death/move Metropolis-Hastings, random-matrix determinantal
fields, and Palm conditioning by rejection.

The determinantal fields are the eigenvalues of an n_matrix x n_matrix random
matrix restricted to a centered window: GUE for the sine-kernel field and
complex Ginibre for the Ginibre field. n_matrix is the size of that finite-n
law; neither sampler forms the matrix. The sine field solves the
Dumitriu-Edelman tridiagonal model for the eigenvalues in the window only,
and the Ginibre field runs the Hough-Krishnapur-Peres-Virag projection
sampler on the kernel's restriction to the disk."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammainc, gammaincinv, gammaln, xlogy

from .configuration import BALL, TORUS, Configuration, Domain, KLabeledState
from .errors import AcceptanceTooLow, ConfigError, NonConvergenceWarning, WindowTooLarge
from .potentials import PotentialSpec

# move acceptance below this means the random-walk step overshoots
_ACCEPT_LO = 0.05
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
        # proposals and acceptances per move type
        self.proposed = dict.fromkeys(("move", "birth", "death"), 0)
        self.accepts = dict.fromkeys(("move", "birth", "death"), 0)
        self._burned = False

    @property
    def proposals(self) -> int:
        return sum(self.proposed.values())

    @property
    def accepted(self) -> int:
        return sum(self.accepts.values())

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _energies(self, ys: np.ndarray, pts: np.ndarray, skip: int | None = None) -> list:
        """phi(y) + sum_j psi(y, x_j) for each row y of ys, over the rows x_j of
        pts but slot skip, cut off at r_cut; inf on a hard-core overlap.

        The distances to every row are taken at once and the skipped slot's
        column dropped, which leaves each row's terms in slot order."""
        pot, dom = self.spec.potentials, self.domain
        phi = pot.phi_value(ys).tolist()
        if pts.shape[0] - (skip is not None) == 0:
            return [v + 0.0 for v in phi]
        dist = dom.distance(pts[None, :, :], ys[:, None, :])
        if skip is not None:
            dist = np.concatenate((dist[:, :skip], dist[:, skip + 1:]), axis=1)
        out = []
        for energy, row in zip(phi, dist):
            if pot.has_hard_core and (row < pot.hard_core_sigma).any():
                pair = math.inf
            elif pot.has_pair and (near := row[row <= pot.r_cut]).size:
                pair = float(pot.pair_value(near).sum())
            else:
                pair = 0.0
            out.append(energy + pair)
        return out

    def _move_delta(self, pts: np.ndarray, idx: int, move: np.ndarray) -> float:
        """Energy change of the move pts[idx] -> move[0]; move[1] is pts[idx]."""
        new, old = self._energies(move, pts, idx)
        return new - old

    def step(self) -> None:
        """One proposal: move with probability _MOVE_FRACTION, else birth/death."""
        spec, rng, dom = self.spec, self.rng, self.domain
        pts = self._points
        n = pts.shape[0]
        if n > 0 and rng.uniform() < _MOVE_FRACTION:
            self.proposed["move"] += 1
            idx = int(rng.integers(n))
            move = pts[[idx, idx]]  # the proposal, then the point it moves
            move[0] = dom.wrap(move[0] + spec.proposal_scale * rng.normal(size=dom.dimension))
            if not dom.contains(move[:1]):
                return
            delta = self._move_delta(pts, idx, move)
            if math.log(rng.uniform()) < -spec.beta * delta:
                new = pts.copy()
                new[idx] = move[0]
                self._points = new
                self.accepts["move"] += 1
            return
        if rng.uniform() < 0.5:
            self.proposed["birth"] += 1
            y = _uniform_points(rng, dom, 1)
            delta = self._energies(y, pts)[0]
            log_ratio = (
                math.log(spec.activity * dom.volume) - math.log(n + 1) - spec.beta * delta
            )
            if math.log(rng.uniform()) < log_ratio:
                self._points = np.concatenate((pts, y))
                self.accepts["birth"] += 1
            return
        self.proposed["death"] += 1
        if n > 0:
            idx = int(rng.integers(n))
            delta = -self._energies(pts[idx:idx + 1], pts, idx)[0]
            log_ratio = (
                math.log(n) - math.log(spec.activity * dom.volume) - spec.beta * delta
            )
            if math.log(rng.uniform()) < log_ratio:
                self._points = np.concatenate((pts[:idx], pts[idx + 1:]))
                self.accepts["death"] += 1

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def _check_health(self, moves: int, accepted: int) -> None:
        # births and deaths follow the activity, not a tunable step, so only
        # the random-walk moves are judged
        if moves < 200:
            return
        rate = accepted / moves
        if rate < _ACCEPT_LO:
            warnings.warn(
                f"Gibbs move acceptance {rate:.3f} below {_ACCEPT_LO} over the last "
                f"{moves} moves of the burn-in; try a proposal_scale below "
                f"{self.spec.proposal_scale}",
                NonConvergenceWarning,
            )

    def sample(self) -> Configuration:
        """Burn in on first use, then advance `thin` proposals per sample."""
        if not self._burned:
            # judge the burn-in's second half only: the fill-up from an empty
            # configuration says nothing of the equilibrium move acceptance
            half = self.spec.burn_in // 2
            self.run(half)
            moves, accepted = self.proposed["move"], self.accepts["move"]
            self.run(self.spec.burn_in - half)
            self._burned = True
            self._check_health(self.proposed["move"] - moves, self.accepts["move"] - accepted)
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
    points = np.asarray(points, float)
    move = np.stack((np.asarray(proposal, float), points[idx]))
    delta = GibbsChain(spec, domain, 0)._move_delta(points, idx, move)
    return min(1.0, math.exp(-spec.beta * delta))


def sine_bulk_radius(n_matrix: int) -> float:
    """Half-width of the rescaled (unit-intensity) GUE spectrum."""
    return 2.0 * n_matrix / math.pi


def _window_eigenvalues(diag: np.ndarray, off: np.ndarray, scale: float,
                        radius: float) -> np.ndarray:
    """Eigenvalues x of the symmetric tridiagonal (diag, off), scaled by
    `scale`, with |x| < radius, computed by bisection over the window only.

    Bisection places each eigenvalue to within about eps * |T|; the selection
    is widened well past that so the strict test, not the solver's rounding
    of the edge, decides which eigenvalues are in the window.
    """
    edge = radius / scale
    edge += 1e-9 * (edge + math.sqrt(diag.size))
    eigs = eigvalsh_tridiagonal(diag, off, select="v", select_range=(-edge, edge)) * scale
    return eigs[np.abs(eigs) < radius]


def sample_dyson_sine(spec: DPPSpec, seed: int) -> Configuration:
    """Unit-intensity sine-kernel statistics in a centered window (d = 1).

    The eigenvalues of an n_matrix x n_matrix GUE matrix (diagonal N(0, 1),
    E|H_ij|^2 = 1 off the diagonal), rescaled by sqrt(n_matrix)/pi so the
    bulk density at 0 is one, restricted to |x| < window_radius. They are
    drawn as the eigenvalues of the Dumitriu-Edelman tridiagonal beta = 2
    model, which has the same law: diagonal N(0, 1), off-diagonal
    sqrt(chi^2_{2k} / 2) for k = n_matrix - 1, ..., 1. Only the eigenvalues
    inside the window are computed.
    """
    if spec.kernel != "sine":
        raise ConfigError("sample_dyson_sine needs kernel='sine'")
    if spec.window_radius > 0.5 * sine_bulk_radius(spec.n_matrix):
        raise WindowTooLarge("window exits the GUE bulk; shrink it or grow n_matrix")
    rng = np.random.default_rng(seed)
    n = spec.n_matrix
    diag = rng.standard_normal(n)
    # chi^2_{2k} / 2 is Gamma(k, 1)
    off = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1.0)))
    inside = _window_eigenvalues(diag, off, math.sqrt(n) / math.pi, spec.window_radius)
    domain = Domain(1, BALL, spec.window_radius)
    return Configuration(inside[:, None], domain, validate=False)


def ginibre_bulk_radius(n_matrix: int) -> float:
    return math.sqrt(n_matrix)


def sample_ginibre(spec: DPPSpec, seed: int) -> Configuration:
    """Ginibre field of intensity 1/pi in a centered disk window (d = 2).

    The eigenvalues of an n_matrix x n_matrix complex Ginibre matrix
    (E|G_ij|^2 = 1) inside |z| < R = window_radius. They form the
    determinantal process with kernel
    K(z, w) = pi^-1 e^{-(|z|^2 + |w|^2)/2} sum_{k < n_matrix} (z conj(w))^k / k!,
    whose restriction to the disk has the orthogonal eigenfunctions
    z^k e^{-|z|^2/2} with eigenvalues p_k = P(Gamma(k + 1) < R^2). It is
    sampled exactly (Hough-Krishnapur-Peres-Virag): keep each k with
    probability p_k, then place one point per kept k from the projection
    kernel of the kept functions, each by rejection from the mixture of
    their radial densities.
    """
    if spec.kernel != "ginibre":
        raise ConfigError("sample_ginibre needs kernel='ginibre'")
    if spec.window_radius > 0.5 * ginibre_bulk_radius(spec.n_matrix):
        raise WindowTooLarge("window exits the circular-law bulk")
    rng = np.random.default_rng(seed)
    r2_max = spec.window_radius**2
    mass = gammainc(np.arange(1.0, spec.n_matrix + 1.0), r2_max)
    kept = np.flatnonzero(rng.uniform(size=spec.n_matrix) < mass)
    m = kept.size
    # log of sqrt(pi k! p_k), the disk norm of z^k e^{-|z|^2/2}
    log_norm = 0.5 * (math.log(math.pi) + gammaln(kept + 1.0) + np.log(mass[kept]))
    basis = np.empty((m, m), dtype=complex)  # orthonormal rows, one per placed point
    points = np.empty((m, 2))
    for i in range(m):
        placed = basis[:i]
        while True:
            k = kept[rng.integers(m)]
            r2 = gammaincinv(k + 1.0, rng.uniform() * mass[k])
            theta = 2.0 * math.pi * rng.uniform()
            radius = math.sqrt(r2)
            x, y = radius * math.cos(theta), radius * math.sin(theta)
            if r2 >= r2_max or x * x + y * y >= r2_max:
                continue  # rounded onto the edge of the open disk: redraw
            # the kept orthonormal functions at z = sqrt(r2) e^{i theta}
            row = np.exp(0.5 * xlogy(kept, r2) - 0.5 * r2 - log_norm + 1j * theta * kept)
            # Gram-Schmidt against the placed rows, twice to keep them orthonormal
            resid = row - (placed.conj() @ row) @ placed
            resid -= (placed.conj() @ resid) @ placed
            resid_sq = np.vdot(resid, resid).real
            if rng.uniform() * np.vdot(row, row).real < resid_sq:
                break
        basis[i] = resid / math.sqrt(resid_sq)
        points[i] = x, y
    domain = Domain(2, BALL, spec.window_radius)
    return Configuration(points, domain, validate=False)


def palm_condition(sampler, x, delta: float, seed: int,
                   max_draws: int = 1_000_000) -> KLabeledState:
    """Palm conditioning by delta-rejection.

    Draws configurations from `sampler(draw_seed)`, accepts one that has a
    distinct point within delta of every x_i, removes those points and snaps
    the tagged tuple onto x. The bias of the rejection is O(delta). Draw k
    is `sampler(seed * max_draws + k)`, so two seeds never share a draw.
    """
    if not delta > 0:
        raise ConfigError("delta must be positive")
    first = sampler(seed * max_draws)
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
            config = sampler(seed * max_draws + draw)
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
