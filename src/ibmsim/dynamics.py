"""Finite-N Euler-Maruyama integration of the interacting-diffusion system

    dX^i = dB^i - 1/2 grad Phi(X^i) dt - 1/2 sum_{j != i} grad Psi(X^i, X^j) dt

on periodic or reflecting domains, with the k-labeled (tagged + background)
view of the same dynamics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .configuration import (
    BALL,
    TORUS,
    Configuration,
    Domain,
    KLabeledState,
    LabeledState,
    kappa,
)
from .errors import ConfigError, Overlap, StepRejected
from .potentials import PotentialSpec

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_SALT_LABEL = _U64(0xD6E8FEB86659FD93)
_SALT_LANE = _U64(0xA0761D6478BD642F)
_SALT_ROUND = _U64(0xE7037ED1A0B428DB)
_SALT_U2 = _U64(0x8EBC6AF09C88C6E3)
_TWO_PI = 2.0 * math.pi


def _mix64(z: np.ndarray) -> np.ndarray:
    # modular uint64 arithmetic: overflow wrap is the point; callers hold
    # the errstate guard so the hot path pays for it once
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def label_noise(seed: int, step: int, labels, d: int, round_key: int = 0) -> np.ndarray:
    """Standard normals, one d-vector per label stream.

    labels is an integer array of stream ids (or an int n, meaning 0..n-1).
    The draw for a stream depends only on (seed, step, label id, round_key), so
    identically permuting initial labels and their streams permutes the path
    exactly, and retries redraw without disturbing other streams.
    """
    if np.isscalar(labels):
        labels = np.arange(labels)
    labels = np.asarray(labels, dtype=np.uint64)[:, None]
    lanes = np.arange(d, dtype=np.uint64)[None, :]
    counter = (seed + int(_GOLDEN) * (step + 1)) & 0xFFFFFFFFFFFFFFFF
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(counter))
        base = _mix64(base ^ (_SALT_ROUND * _U64(round_key + 1)))
        h = _mix64(base ^ (_SALT_LABEL * (labels + _U64(1))))
        h = _mix64(h ^ (_SALT_LANE * (lanes + _U64(1))))
        u1_bits = _mix64(h + _GOLDEN)
        u2_bits = _mix64(h ^ _SALT_U2)
    u1 = ((u1_bits >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u2_bits >> _U64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


@dataclass(frozen=True)
class SimParams:
    """Integrator parameters.

    cell_size is the neighbour-search radius for pair forces and must be
    >= r_cut; None sums over all pairs. Both give the same bits.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    seed: int = 0
    stride: int = 1
    cell_size: float | None = None
    hard_core_mode: str = "reject"
    max_retries: int = 20

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.t_end >= 0:
            raise ConfigError("t_end must be non-negative")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.hard_core_mode not in ("reject", "reflect"):
            raise ConfigError("hard_core_mode must be 'reject' or 'reflect'")


@dataclass
class Trajectory:
    """Snapshots of a labeled path, with non-explosion diagnostics.

    positions has shape (n_snapshots, N, d); running_max[t, i] is the running
    maximum of the unwrapped displacement |X_s^i - X_0^i| for s <= times[t].
    The first n_tagged labels form the tagged tuple of a k-labeled path.
    """

    times: np.ndarray
    positions: np.ndarray
    domain: Domain
    params: SimParams
    n_tagged: int = 0
    running_max: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_snapshots(self) -> int:
        return self.positions.shape[0]

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    def state(self, i: int) -> LabeledState:
        return LabeledState(self.positions[i], self.domain, validate=False)

    def configuration(self, i: int) -> Configuration:
        return Configuration(self.positions[i], self.domain, validate=False)

    def k_state(self, i: int) -> KLabeledState:
        if self.n_tagged < 1:
            raise ValueError("trajectory carries no tagged labels")
        background = Configuration(
            self.positions[i, self.n_tagged :], self.domain, validate=False
        )
        return KLabeledState(self.positions[i, : self.n_tagged], background, validate=False)


def _canonical_slot_order(points: np.ndarray) -> np.ndarray:
    """Label-free total order on slots (lexicographic in position)."""
    return np.lexsort(points.T[::-1])


_ALL_PAIRS_CACHE: dict[int, tuple] = {}


def _close_pairs(points: np.ndarray, domain: Domain, radius: float | None):
    """Ordered pairs (i, j), i != j, sorted by i then j, of every pair within
    radius; all pairs when radius is None.

    The search radius is padded so the tree's own rounding never drops a
    pair; callers apply their exact cutoff with Domain.displacement.
    """
    if radius is None:
        n = points.shape[0]
        pairs = _ALL_PAIRS_CACHE.get(n)
        if pairs is None:
            pairs = np.nonzero(~np.eye(n, dtype=bool))
            for index in pairs:
                index.setflags(write=False)
            _ALL_PAIRS_CACHE[n] = pairs
        return pairs
    box = domain.size if domain.geometry == TORUS else None
    half = cKDTree(points, boxsize=box).query_pairs(radius * (1 + 1e-9),
                                                    output_type="ndarray")
    i = np.concatenate([half[:, 0], half[:, 1]])
    j = np.concatenate([half[:, 1], half[:, 0]])
    order = np.lexsort((j, i))
    return i[order], j[order]


def _drift(points: np.ndarray, domain: Domain, potentials: PotentialSpec,
           cell_size: float | None):
    """Drift -1/2 grad Phi - 1/2 sum_j grad Psi, cutoff at r_cut, and the
    capped-force counter.

    Pairs are indexed by canonical (lexicographic) rank and sorted by (i, j),
    and bincount adds each particle's terms one at a time in that order, so
    every search radius >= r_cut gives the same bits and the sum is invariant
    under slot relabeling.
    """
    if cell_size is not None and potentials.has_pair and cell_size < potentials.r_cut:
        raise ConfigError("cell_size must be >= r_cut")
    drift = -0.5 * potentials.phi_gradient(points)
    n, d = points.shape
    if n < 2 or not potentials.has_pair:
        return drift, 0
    slots = _canonical_slot_order(points)
    canon = points[slots]
    i, j = _close_pairs(canon, domain, cell_size)
    diff = domain.displacement(canon[i], canon[j])
    dist = np.sqrt((diff * diff).sum(axis=-1))
    keep = (dist <= potentials.r_cut).nonzero()[0]
    if keep.size < dist.size:
        i, diff, dist = i[keep], diff[keep], dist[keep]
    factor, capped = potentials.pair_gradient_factor(dist)
    force = -0.5 * factor[:, None] * diff
    for a in range(d):
        drift[slots, a] += np.bincount(i, weights=force[:, a], minlength=n)
    return drift, capped


def compute_drift(state: LabeledState, potentials: PotentialSpec,
                  cell_size: float | None = None) -> np.ndarray:
    """Per-particle drift -1/2 grad Phi - 1/2 sum_j grad Psi, cutoff at r_cut.

    cell_size None sums over all pairs; a number is the neighbour-search
    radius and must be >= r_cut. Both give the same bits. Raises Overlap when
    hard-core particles already overlap on input.
    """
    if potentials.has_hard_core and len(state) > 1:
        if state.configuration().min_pair_distance() < potentials.hard_core_sigma:
            raise Overlap("hard-core particles overlap on input")
    drift, capped = _drift(state.points, state.domain, potentials, cell_size)
    if capped:
        warnings.warn(f"{capped} pair forces capped at the short-range floor")
    return drift


def _apply_boundary(points: np.ndarray, domain: Domain) -> np.ndarray:
    if domain.geometry == TORUS:
        return domain.wrap(points)
    if domain.geometry == BALL:
        out = points.copy()
        radius = np.sqrt(np.sum(out * out, axis=1))
        bad = radius > domain.size
        guard = 0
        while np.any(bad):
            out[bad] *= ((2.0 * domain.size - radius[bad]) / radius[bad])[:, None]
            radius = np.sqrt(np.sum(out * out, axis=1))
            bad = radius > domain.size
            guard += 1
            if guard > 100:
                raise StepRejected("reflection at the ball boundary did not settle")
        return out
    return points


def _reflect_hard_core(points: np.ndarray, domain: Domain, sigma: float):
    out = points.copy()
    # the first offending pair in (i, j) order always has i < j
    i, j = _close_pairs(out, domain, None)
    for _ in range(64):
        diff = domain.displacement(out[i], out[j])
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        bad = np.flatnonzero(dist < sigma)
        if not bad.size:
            return out
        k = bad[0]
        r = dist[k]
        unit = diff[k] / r if r > 0 else np.eye(out.shape[1])[0]
        push = 0.5 * (sigma - r)
        a, b = out[i[k]] + push * unit, out[j[k]] - push * unit
        if np.array_equal(a, out[i[k]]) and np.array_equal(b, out[j[k]]):
            # the push is below one ulp and would repeat forever: step each
            # point one ulp apart instead
            a, b = np.nextafter(a, a + unit), np.nextafter(b, b - unit)
        out[i[k]] = a
        out[j[k]] = b
        out = _apply_boundary(out, domain)
    raise StepRejected("pairwise reflection did not resolve hard-core overlaps")


class _Stepper:
    """One Euler-Maruyama update, tracking unwrapped displacement."""

    def __init__(self, domain: Domain, potentials: PotentialSpec, params: SimParams,
                 stream_labels=None):
        self.domain = domain
        self.potentials = potentials
        self.params = params
        self.stream_labels = stream_labels
        self.capped = 0
        self.halvings = 0
        self.min_gap = math.inf  # over every accepted update, not just snapshots

    def advance(self, points, unwrapped, step_index, dt=None, noise_key=0, depth=0):
        params = self.params
        dt = params.dt if dt is None else dt
        n, d = points.shape
        streams = self.stream_labels if self.stream_labels is not None else n
        sigma = self.potentials.hard_core_sigma
        drift, capped = _drift(points, self.domain, self.potentials, params.cell_size)
        self.capped += capped
        sqrt_dt = math.sqrt(dt)
        for attempt in range(max(1, params.max_retries)):
            key = noise_key * 131 + attempt
            incr = drift * dt + sqrt_dt * label_noise(params.seed, step_index, streams, d, key)
            proposal = _apply_boundary(points + incr, self.domain)
            if not self.potentials.has_hard_core or n < 2:
                return proposal, unwrapped + incr
            gap = Configuration(proposal, self.domain, validate=False).min_pair_distance()
            if gap >= sigma:
                self.min_gap = min(self.min_gap, gap)
                return proposal, unwrapped + incr
            if params.hard_core_mode == "reflect":
                resolved = _reflect_hard_core(proposal, self.domain, sigma)
                gap = Configuration(resolved, self.domain, validate=False).min_pair_distance()
                self.min_gap = min(self.min_gap, gap)
                return resolved, unwrapped + incr + (resolved - proposal)
        if depth >= 8:
            raise StepRejected("hard-core rejection exhausted retries and halvings")
        warnings.warn("hard-core retries exhausted; halving the local time step")
        self.halvings += 1
        half = dt / 2.0
        points, unwrapped = self.advance(points, unwrapped, step_index, half,
                                         noise_key * 131 + 101, depth + 1)
        return self.advance(points, unwrapped, step_index, half,
                            noise_key * 131 + 102, depth + 1)


def step(state: LabeledState, potentials: PotentialSpec, dt: float, seed: int,
         step_index: int = 1, hard_core_mode: str = "reject",
         max_retries: int = 20, cell_size: float | None = None) -> LabeledState:
    """One Euler-Maruyama update of the labeled state.

    X' = X + drift dt + sqrt(dt) xi with per-label standard normal xi drawn
    from the (seed, step_index, label) stream; boundary wrap or reflection is
    applied, and hard cores are handled per hard_core_mode.
    """
    params = SimParams(dt=dt, t_end=dt, seed=seed, hard_core_mode=hard_core_mode,
                       max_retries=max_retries, cell_size=cell_size)
    stepper = _Stepper(state.domain, potentials, params)
    pts, _ = stepper.advance(state.points.copy(), state.points.copy(), step_index)
    return LabeledState(pts, state.domain, validate=False)


def simulate(initial: LabeledState, potentials: PotentialSpec,
             params: SimParams, provenance: dict | None = None,
             stream_labels=None) -> Trajectory:
    """Integrate the labeled SDE; deterministic given (initial, params.seed).

    stream_labels optionally reassigns the per-slot noise streams (default is
    slot index), which makes label-permutation equivariance an exact identity.
    """
    domain = initial.domain
    stepper = _Stepper(domain, potentials, params, stream_labels)
    if potentials.has_hard_core and len(initial) > 1:
        if initial.configuration().min_pair_distance() < potentials.hard_core_sigma:
            raise Overlap("hard-core particles overlap in the initial state")

    n_steps = int(round(params.t_end / params.dt))
    points = initial.points.copy()
    unwrapped = points.copy()
    start = points.copy()

    run_max = np.zeros(points.shape[0])
    snap_times = [0.0]
    snap_pos = [points.copy()]
    snap_max = [run_max.copy()]

    for step_index in range(1, n_steps + 1):
        points, unwrapped = stepper.advance(points, unwrapped, step_index)
        disp = np.sqrt(np.sum((unwrapped - start) ** 2, axis=1))
        run_max = np.maximum(run_max, disp)
        if step_index % params.stride == 0 or step_index == n_steps:
            snap_times.append(step_index * params.dt)
            snap_pos.append(points.copy())
            snap_max.append(run_max.copy())

    diagnostics = {
        "capped_forces": stepper.capped,
        "step_halvings": stepper.halvings,
        "min_pair_gap": stepper.min_gap,
    }
    return Trajectory(
        times=np.asarray(snap_times),
        positions=np.asarray(snap_pos),
        domain=domain,
        params=params,
        n_tagged=0,
        running_max=np.asarray(snap_max),
        provenance=dict(provenance or {}),
        diagnostics=diagnostics,
    )


def simulate_k_labeled(initial: KLabeledState, potentials: PotentialSpec,
                       params: SimParams, provenance: dict | None = None) -> Trajectory:
    """Same dynamics as `simulate` on kappa(initial), tracking the first k
    labels as the tagged tuple; under a shared seed the unlabeled image of the
    output coincides pointwise with the plain simulation."""
    flat = LabeledState(kappa(initial).points, initial.domain, validate=False)
    traj = simulate(flat, potentials, params, provenance)
    traj.n_tagged = initial.k
    return traj
