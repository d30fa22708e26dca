"""Samplers for equilibrium point fields: Poisson reference, grand-canonical
Gibbs via birth/death/move Metropolis-Hastings, random-matrix determinantal
fields, and Palm conditioning by rejection.

Gibbs samples come from one serial chain (`GibbsChain`), or from many
independent chains stepped in lockstep (`LockstepChains`): R chains held as
one (R, cap, d) array with a live count per row, each drawing from its own
counter-based stream. A lockstep chain may carry a pinned point that is never
moved, born or killed and acts on the others as an external field; by the
GNZ equation such a chain samples the reduced Palm law at the pin exactly,
with no delta-window and no rejection loop.

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
from .dynamics import PURPOSES, _seed_words, child_seeds
from .errors import AcceptanceTooLow, ConfigError, NonConvergenceWarning, WindowTooLarge
from .potentials import PotentialSpec

# move acceptance below this means the random-walk step overshoots
_ACCEPT_LO = 0.05
# share of Gibbs proposals that move a point; the rest are births or deaths
_MOVE_FRACTION = 0.5
_PALM_BLOCK = 64  # palm_condition derives its draw seeds this many at a time


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


def _burn_in(chain) -> None:
    """Run a chain's spec.burn_in proposals; warn when the move acceptance of
    the second half is below _ACCEPT_LO."""
    # judge the burn-in's second half only: the fill-up from an empty
    # configuration says nothing of the equilibrium move acceptance
    half = chain.spec.burn_in // 2
    chain.run(half)
    moves, accepted = chain.proposed["move"], chain.accepts["move"]
    chain.run(chain.spec.burn_in - half)
    moves, accepted = chain.proposed["move"] - moves, chain.accepts["move"] - accepted
    # births and deaths follow the activity, not a tunable step, so only
    # the random-walk moves are judged
    if moves >= 200 and accepted / moves < _ACCEPT_LO:
        warnings.warn(
            f"Gibbs move acceptance {accepted / moves:.3f} below {_ACCEPT_LO} over the "
            f"last {moves} moves of the burn-in; try a proposal_scale below "
            f"{chain.spec.proposal_scale}",
            NonConvergenceWarning,
        )


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

    def sample(self) -> Configuration:
        """Burn in on first use, then advance `thin` proposals per sample."""
        if not self._burned:
            _burn_in(self)
            self._burned = True
        else:
            self.run(self.spec.thin)
        return Configuration(self._points.copy(), self.domain, validate=False)


def sample_gibbs(spec: GibbsSpec, domain: Domain, seed: int) -> Configuration:
    """One approximate Gibbs sample after the configured burn-in."""
    return GibbsChain(spec, domain, seed).sample()


class LockstepChains:
    """Independent birth/death/move chains for the Gibbs measure of `spec` on
    a torus, one per seed, stepped together: the points are one (R, cap, d)
    array with a live count per row, and one proposal is a handful of numpy
    calls for all R chains.

    Proposal t of a chain draws its uniforms and normals from the
    counter-based stream (seed, t), and its energies sum the pair terms in
    slot order, so each chain's path is bitwise the same in a batch of one as
    in any batch. A proposal moves a point with probability _MOVE_FRACTION,
    else adds or removes one with equal odds, whatever the count, so the
    birth/death ratio is exact at every count; a move or death proposed in
    an empty chain is a no-op and counts as no proposal.

    With a pin x, slot 0 of every row holds x. It is never moved, born or
    killed, and acts on the other points as the external field psi(. - x), so
    each chain samples the Gibbs law with a point pinned at x: by the GNZ
    equation, the reduced Palm law at x (Slivnyak's theorem is its Poisson
    case)."""

    # block sizes: at most this many stream numbers are drawn at once
    _BLOCK_NUMBERS = 1 << 16

    def __init__(self, spec: GibbsSpec, domain: Domain, seeds, pin=None):
        if domain.geometry != TORUS:
            raise ConfigError("lockstep Gibbs chains need a torus")
        if pin is not None and not domain.contains(pin):
            raise ConfigError(f"pin {pin} lies outside the torus [0, {domain.size})")
        self.spec = spec
        self.domain = domain
        self.seeds = _seed_words(seeds)
        d = domain.dimension
        self._pin = None if pin is None else np.asarray(pin, dtype=float).reshape(1, d)
        self._first = 0 if pin is None else 1
        self._points = np.zeros((self.seeds.size, self._first + 8, d))
        if pin is not None:
            self._points[:, 0] = self._pin
        self.counts = np.zeros(self.seeds.size, dtype=np.int64)
        self.steps = 0
        self.proposed = dict.fromkeys(("move", "birth", "death"), 0)
        self.accepts = dict.fromkeys(("move", "birth", "death"), 0)
        self._log_zv = np.log(spec.activity * domain.volume)

    def _energies(self, ys: np.ndarray, live: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """(R, 2) energies phi(y) + sum_j psi(y, x_j) of the two points ys[r]
        (R, 2, d) against the live slots of chain r but slot skip[r], cut off
        at r_cut and summed in slot order; inf on a hard-core overlap."""
        pot, pts = self.spec.potentials, self._points
        r, cap, d = pts.shape
        slots = np.arange(cap)
        mask = ((slots < live[:, None]) & (slots != skip[:, None]))[:, None, :]
        dist = self.domain.distance(pts[:, None], ys[:, :, None])
        energy = pot.phi_value(ys.reshape(-1, d)).reshape(r, 2)
        if pot.has_pair:
            terms = np.where(mask & (dist <= pot.r_cut), pot.pair_value(dist), 0.0)
            # a running sum adds in slot order, so the empty slots past a
            # row's live count add exact zeros whatever the batch's width
            energy = energy + np.cumsum(terms, axis=2)[:, :, -1]
        if pot.has_hard_core:
            energy[(mask & (dist < pot.hard_core_sigma)).any(axis=2)] = np.inf
        return energy

    def _step(self, kind, index_bits, log_u, place, normal) -> tuple:
        """One proposal in every chain; returns (move, birth, nonempty, accepted) masks."""
        spec, pts, n = self.spec, self._points, self.counts
        rows = np.arange(n.size)
        live = self._first + n
        move = kind <= _MOVE_FRACTION
        birth = ~move & (kind <= 0.5 + 0.5 * _MOVE_FRACTION)
        nonempty = n > 0
        # a uniform movable slot: the high 32 bits times n, over 2^32
        idx = self._first + ((index_bits * n.astype(np.uint64)) >> np.uint64(32)).astype(np.intp)
        old = pts[rows, idx]
        new = self.domain.wrap(np.where(move[:, None], old + spec.proposal_scale * normal, place))
        energy = self._energies(np.stack((new, old), axis=1), live,
                                np.where(birth, -1, idx))
        e_new, e_old = energy[:, 0], energy[:, 1]
        log_ratio = np.where(
            move, -spec.beta * (e_new - e_old),
            np.where(birth, self._log_zv - np.log(n + 1) - spec.beta * e_new,
                     np.log(np.maximum(n, 1)) - self._log_zv + spec.beta * e_old))
        accepted = (log_u < log_ratio) & (birth | nonempty)
        if accepted.any():
            grown = birth & accepted
            if (live[grown] == pts.shape[1]).any():
                pts = self._grow()
            # a death moves the last live point into the killed slot
            death = ~(move | birth)
            value = np.where(death[:, None], pts[rows, live - 1], new)
            slot = np.where(birth, live, idx)
            pts[rows[accepted], slot[accepted]] = value[accepted]
            n += grown
            n -= death & accepted
        return move, birth, nonempty, accepted

    def _grow(self) -> np.ndarray:
        r, cap, d = self._points.shape
        wider = np.zeros((r, cap + max(4, cap // 4), d))
        wider[:, :cap] = self._points
        self._points = wider
        return wider

    def run(self, n_steps: int) -> None:
        """Advance every chain by n_steps proposals."""
        from .dynamics import _counter_bits

        d, r = self.domain.dimension, self.seeds.size
        # per proposal: kind, slot and accept uniforms, then 2d uniforms whose
        # first d place a birth or, with the last d, make a move's normals
        lanes = 3 + 2 * d
        block = max(1, self._BLOCK_NUMBERS // max(1, r * lanes))
        done = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while done < n_steps:
                steps = min(block, n_steps - done)
                bits = _counter_bits(self.seeds, self.steps, steps, lanes)
                u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53  # in (0, 1]
                log_u = np.log(u[:, :, 2])
                place = self.domain.size * u[:, :, 3:3 + d]
                normal = (np.sqrt(-2.0 * np.log(u[:, :, 3:3 + d]))
                          * np.cos((2.0 * math.pi) * u[:, :, 3 + d:]))
                index_bits = bits[:, :, 1] >> np.uint64(32)
                flags = [self._step(u[t, :, 0], index_bits[t], log_u[t], place[t], normal[t])
                         for t in range(steps)]
                move, birth, nonempty, accepted = (np.array(f) for f in zip(*flags))
                self._tally(move, birth, nonempty, accepted)
                self.steps += steps
                done += steps

    def _tally(self, move, birth, nonempty, accepted) -> None:
        death = ~(move | birth)
        for name, proposed in (("move", move & nonempty), ("birth", birth),
                               ("death", death & nonempty)):
            self.proposed[name] += int(np.count_nonzero(proposed))
            self.accepts[name] += int(np.count_nonzero(proposed & accepted))

    def burn_in(self) -> None:
        """Run spec.burn_in proposals in every chain, warning as GibbsChain
        does when the pooled move acceptance is too low."""
        _burn_in(self)

    def acceptance(self) -> dict:
        """Accepted share of the proposals of each move type so far."""
        return {name: self.accepts[name] / self.proposed[name] if self.proposed[name] else 0.0
                for name in self.proposed}

    def configurations(self) -> list:
        """Each chain's unpinned points, in slot order."""
        first = self._first
        return [Configuration(self._points[r, first:first + n].copy(), self.domain,
                              validate=False)
                for r, n in enumerate(self.counts.tolist())]

    def palm_states(self) -> list:
        """Each pinned chain as a KLabeledState: the pin tagged, its points
        the background."""
        if self._pin is None:
            raise ConfigError("palm_states needs chains with a pin")
        return [KLabeledState(self._pin, config, validate=False)
                for config in self.configurations()]


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
    the tagged tuple onto x. The bias of the rejection is O(delta). The draw
    seeds are the palm children of seed, derived _PALM_BLOCK at a time,
    so two seeds share a draw only by a 64-bit hash collision.
    """
    if not delta > 0:
        raise ConfigError("delta must be positive")
    tags = np.atleast_2d(np.asarray(x, dtype=float))

    def try_accept(config):
        domain = config.domain
        xs = tags.reshape(-1, domain.dimension)
        taken: list[int] = []
        for xi in xs:
            dist = domain.distance(config.points, xi)
            if taken:
                dist = dist.copy()
                dist[taken] = math.inf
            j = int(np.argmin(dist)) if dist.size else -1
            if j < 0 or dist[j] > delta:
                return None
            taken.append(j)
        return KLabeledState(xs, config.without(taken), validate=False)

    for first in range(0, max_draws, _PALM_BLOCK):
        count = min(_PALM_BLOCK, max_draws - first)
        for draw_seed in child_seeds(seed, PURPOSES["palm"], count, first):
            state = try_accept(sampler(draw_seed))
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
    """Sampler: draw_seed -> the Poisson sample seeded with (seed, draw_seed)."""
    def draw(draw_seed: int) -> Configuration:
        return sample_poisson(domain, intensity, (seed, draw_seed))

    return draw
