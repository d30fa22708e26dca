"""Finite-N Euler-Maruyama integration of the interacting-diffusion system

    dX^i = dB^i - 1/2 grad Phi(X^i) dt - 1/2 sum_{j != i} grad Psi(X^i, X^j) dt

on periodic or reflecting domains, with the k-labeled (tagged + background)
view of the same dynamics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .configuration import (
    BALL,
    TORUS,
    Configuration,
    Domain,
    KLabeledState,
    LabeledState,
    _all_pairs,
    _close_pairs,
    _min_gap,
    kappa,
)
from .errors import ConfigError, Overlap, StepRejected
from .potentials import PotentialSpec

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15


def _word(value: int) -> np.ndarray:
    # a 0-d uint64 array, which numpy's operators take faster than a uint64
    # scalar
    return np.array(value, dtype=np.uint64)


_GOLDEN = _word(_GOLDEN_INT)
_MIX1 = _word(0xBF58476D1CE4E5B9)
_MIX2 = _word(0x94D049BB133111EB)
_SALT_LABEL = _word(0xD6E8FEB86659FD93)
_SALT_LANE = _word(0xA0761D6478BD642F)
_SALT_ROUND = _word(0xE7037ED1A0B428DB)
_SALT_U2 = _word(0x8EBC6AF09C88C6E3)
_ONE, _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(_word, (1, 11, 27, 30, 31))
_TWO_PI = 2.0 * math.pi
# round keys are base-_KEY_BASE digit strings of halving paths and attempts
_KEY_BASE = 131


def _mix64(z: np.ndarray) -> np.ndarray:
    # modular uint64 arithmetic: overflow wrap is the point; callers hold
    # the errstate guard so the hot path pays for it once
    z = (z ^ (z >> _SHIFT30)) * _MIX1
    z = (z ^ (z >> _SHIFT27)) * _MIX2
    return z ^ (z >> _SHIFT31)


def _seed_words(seeds) -> np.ndarray:
    """One uint64 word per int seed, each seed taken mod 2**64."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def _draws(seed, first: int, count: int, labels: np.ndarray, d: int,
           round_key) -> np.ndarray:
    """(count, n, d) standard normals of the steps first .. first + count - 1
    for the uint64 stream ids labels; seed is an int, or a uint64 array with
    one seed per stream. round_key is an int, or an array of K round keys for
    (K, count, n, d) normals."""
    words = seed if isinstance(seed, np.ndarray) else _seed_words([seed])
    lanes = np.arange(d, dtype=np.uint64)
    rounds = _SALT_ROUND * (np.asarray(round_key, dtype=np.uint64) + _ONE)
    with np.errstate(over="ignore"):
        # the counter of step s is golden * (s + 1) mod 2**64
        offsets = _GOLDEN * (np.arange(count, dtype=np.uint64) + _U64((first + 1) & _MASK64))
        base = _mix64(offsets[:, None] + words)  # (steps, 1), or (steps, n): seed per stream
        base = _mix64(base ^ rounds[..., None, None])[..., None]
        h = _mix64(base ^ (_SALT_LABEL * (labels + _ONE))[:, None])
        h = _mix64(h ^ (_SALT_LANE * (lanes + _ONE)))
        bits = _mix64(np.stack([h + _GOLDEN, h ^ _SALT_U2]))  # u1's bits, then u2's
    u = (bits >> _SHIFT11).astype(np.float64)
    u1 = (u[0] + 1.0) * 2.0**-53
    u2 = u[1] * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


# The one table of seed purposes: every child stream of a run's seed is
# child_seeds(seed, purpose, count) for a purpose here, or a tuple that starts
# with one; a sampler seeds each draw with the pair (seed, draw_seed).
PURPOSES = {
    "thm27-palm": 0, "thm27-chains": 1,  # thm27's free Palm starts and pinned chains
    "thm27-free": 2, "thm24": 3, "thm27-interacting": 4,  # integration; thm24 (3, n, arm)
    "dyson": 5, "ginibre": 6,  # samples
    "product-check": 7,  # child 0 the sampler seed, child 1 the check seed
    "product-pointwise": 8, "product-mc": 9, "pushforward": 10,  # draws
    "palm": 11,  # palm_condition's draws, derived in blocks through `first`
}


def child_seeds(seed: int, purpose, count: int, first: int = 0) -> np.ndarray:
    """uint64 seeds of children first .. first + count - 1, child i being one
    hash of (seed, purpose, i); purpose is an int or a tuple of ints, p and
    (p,) alike. The children of one (seed, purpose) never repeat, and two
    purposes share a child only by a 64-bit hash collision."""
    with np.errstate(over="ignore"):
        base = _mix64(_seed_words([seed]) + _GOLDEN)
        for p in purpose if isinstance(purpose, tuple) else (purpose,):
            base = _mix64(base ^ (_SALT_ROUND * _U64(p + 1)))
        return _mix64(base + _GOLDEN * np.arange(first + 1, first + count + 1, dtype=np.uint64))


def _counter_bits(words: np.ndarray, first: int, steps: int, lanes: int) -> np.ndarray:
    """(steps, len(words), lanes) uint64 hashes of (word, counter, lane) for
    the counters first .. first + steps - 1: each uint64 word's stream depends
    on nothing but that word."""
    counters = np.arange(first + 1, first + steps + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(words + _GOLDEN * counters[:, None])
        return _mix64(base[:, :, None] ^ (_SALT_LANE * np.arange(1, lanes + 1, dtype=np.uint64)))


# round-key-0 draws of one stream set for a block of consecutive steps:
# ((seed or seed bytes, d, stream id bytes), first step, (steps, n, d) draws)
_NO_BLOCK = (None, 0, np.empty((0, 0, 0)))
_NOISE_BLOCK: tuple = _NO_BLOCK
# the same for redraws, one entry per round key, the first-drawn dropped
# once _REDRAW_KEYS keys are held; a missing key is drawn with the next
# _REDRAW_BATCH - 1 keys, the further attempts of the same step
_REDRAW_BLOCKS: dict[int, tuple] = {}
_REDRAW_KEYS = 16
_REDRAW_BATCH = 4
_BLOCK_STEPS = 64
_BLOCK_DRAWS = 4096
# the integrator keeps the unwrapped positions of a block of steps for the
# running max: at most this many numbers, and at least one step
_TRACK_NUMBERS = 4096


def label_noise(seed, step: int, labels, d: int, round_key: int = 0) -> np.ndarray:
    """Standard normals, one d-vector per label stream.

    labels is an integer array of stream ids (or an int n, meaning 0..n-1);
    seed is one int for every stream, or a sequence of ints with one seed per
    stream. The draw for a stream depends only on (its seed, step, label id,
    round_key), so identically permuting initial labels and their streams
    permutes the path exactly, retries redraw without disturbing other
    streams, and one call draws for a batch of independent runs.

    Draws are computed a block of consecutive steps at a time (up to 64 steps
    and 4096 numbers) and served from a memo, bitwise equal to drawing each
    step alone: one entry for round key 0, and one per round key for redraws
    (round_key != 0), at most 16 of them, a missing key drawn together with
    the next three. The memo is single-threaded module
    state: entries are replaced whole, so concurrent callers still get the
    right bits but evict each other's blocks.
    """
    first, block = _noise_block(seed, step, labels, d, round_key)
    return block[step - first].copy()


def _noise_block(seed, step: int, labels, d: int, round_key: int = 0):
    """(first step, draws) of the memo block that holds step's label_noise
    draws; the block is read-only to callers."""
    global _NOISE_BLOCK
    if not (isinstance(labels, np.ndarray) and labels.dtype == np.uint64):
        labels = (np.arange(labels, dtype=np.uint64) if np.isscalar(labels)
                  else np.asarray(labels, dtype=np.uint64))
    if isinstance(seed, (int, np.integer)):
        seed_key = seed
    else:
        seed = _seed_words(seed)
        if seed.shape != labels.shape:
            raise ValueError(f"{seed.size} seeds for {labels.size} streams")
        seed_key = seed.tobytes()
    key = (seed_key, d, labels.tobytes())
    memo_key, first, block = (_NOISE_BLOCK if round_key == 0
                              else _REDRAW_BLOCKS.get(round_key, _NO_BLOCK))
    if memo_key != key or not first <= step < first + len(block):
        first = step
        keys = 1 if round_key == 0 else _REDRAW_BATCH
        n_steps = max(1, min(_BLOCK_STEPS, _BLOCK_DRAWS // max(1, labels.size * d * keys)))
        if round_key == 0:
            block = _draws(seed, step, n_steps, labels, d, 0)
            _NOISE_BLOCK = (key, first, block)
        else:
            blocks = _draws(seed, step, n_steps, labels, d,
                            np.arange(round_key, round_key + keys, dtype=np.uint64))
            # the asked key goes in last, so that it is the last of them dropped
            for held in range(round_key + keys - 1, round_key - 1, -1):
                if held not in _REDRAW_BLOCKS and len(_REDRAW_BLOCKS) >= _REDRAW_KEYS:
                    del _REDRAW_BLOCKS[next(iter(_REDRAW_BLOCKS))]
                block = blocks[held - round_key]
                _REDRAW_BLOCKS[held] = (key, first, block)
    return first, block


@dataclass(frozen=True)
class SimParams:
    """Integrator parameters."""

    dt: float = 1e-3
    t_end: float = 1.0
    seed: int = 0
    stride: int = 1
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
        if not 1 <= self.max_retries <= _KEY_BASE:
            # retry keys noise_key * _KEY_BASE + attempt stay distinct only
            # while attempt < _KEY_BASE
            raise ConfigError(f"max_retries must be in [1, {_KEY_BASE}]")


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

    def configuration(self, i: int) -> Configuration:
        return Configuration(self.positions[i], self.domain, validate=False)

    def k_state(self, i: int) -> KLabeledState:
        if self.n_tagged < 1:
            raise ValueError("trajectory carries no tagged labels")
        background = Configuration(
            self.positions[i, self.n_tagged :], self.domain, validate=False
        )
        return KLabeledState(self.positions[i, : self.n_tagged], background, validate=False)


# the integrator searches pairs with a cKDTree at radius r_cut from this many
# points on and over all pairs below, with the same bits either way; at
# density 1 and r_cut = 3 the tree is the faster from about N = 96 in d = 1
# and 2, and from about N = 384 in d = 3
_TREE_MIN_POINTS = 128


class _Segments(NamedTuple):
    """A flat batch of several labeled states: each point's segment id (the
    segments lie in order, one block of points each), the number of segments,
    and the ordered pairs of every segment, offset to the flat indices."""

    ids: np.ndarray
    count: int
    pairs: tuple


def _drift(points: np.ndarray, domain: Domain, potentials: PotentialSpec,
           radius: float | None, segments: _Segments | None = None):
    """Drift -1/2 grad Phi - 1/2 sum_j grad Psi, cutoff at r_cut, and the
    capped-force count; pairs are searched within radius (None: all pairs).

    Pairs are indexed by canonical (lexicographic) rank and sorted by (i, j),
    and bincount adds each particle's terms one at a time in that order, so
    every search radius >= r_cut gives the same bits and the sum is invariant
    under slot relabeling. With segments, the segment id is the primary key of
    the rank, pairs are the segments' own, and the capped count is an array
    with one entry per segment: each segment gets the bits it gets alone.
    """
    drift = -0.5 * potentials.phi_gradient(points)
    n, d = points.shape
    if n < 2 or not potentials.has_pair:
        return drift, 0
    keys = points.T[::-1] if segments is None else (*points.T[::-1], segments.ids)
    slots = np.lexsort(keys)  # canonical (lexicographic) rank, within its segment
    canon = points[slots]
    i, j = _close_pairs(canon, domain, radius) if segments is None else segments.pairs
    diff = domain.displacement(canon[i], canon[j])
    dist = np.sqrt((diff * diff).sum(axis=-1))
    keep = (dist <= potentials.r_cut).nonzero()[0]
    if keep.size < dist.size:
        i, diff, dist = i[keep], diff[keep], dist[keep]
    factor, capped = potentials.pair_gradient_factor(dist)
    if capped and segments is not None:
        # canonical ranks keep each segment's block, so ids index them too
        capped = np.bincount(segments.ids[i[dist < potentials.cap_radius]],
                             minlength=segments.count)
    force = -0.5 * factor[:, None] * diff
    for a in range(d):
        drift[slots, a] += np.bincount(i, weights=force[:, a], minlength=n)
    return drift, capped


def _check_overlap(state, pot: PotentialSpec) -> None:
    if pot.has_hard_core and _min_gap(state.points, state.domain) < pot.hard_core_sigma:
        raise Overlap("hard-core particles overlap in the input state")


def compute_drift(state: LabeledState, potentials: PotentialSpec,
                  cell_size: float | None = None) -> np.ndarray:
    """Per-particle drift -1/2 grad Phi - 1/2 sum_j grad Psi, cutoff at r_cut.

    cell_size None sums over all pairs; a number is the neighbour-search
    radius and must be >= r_cut. Both give the same bits, so this is the
    all-pairs-versus-tree reference that the exactness checks call; the
    integrator picks its own route from N and r_cut. Raises Overlap when
    hard-core particles already overlap on input.
    """
    if cell_size is not None and potentials.has_pair and cell_size < potentials.r_cut:
        raise ConfigError("cell_size must be >= r_cut")
    _check_overlap(state, potentials)
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


# a run is tried after an advance only when the gap it left exceeds sigma by
# this many noise scales sqrt(dt): from closer, a run is more likely to stop
# within a step or two than to pay for itself
_RUN_MARGIN = 2.0


# a push sets one pair to exactly sigma and closes its neighbours' gaps, so a
# cluster of three or four close rods can take hundreds of pushes (884 in one
# 10-rod run)
_REFLECT_PUSHES = 4096


def _reflect_hard_core(points: np.ndarray, domain: Domain, sigma: float):
    out = points.copy()
    # the first offending pair in (i, j) order always has i < j
    i, j = _all_pairs(out.shape[0])
    for _ in range(_REFLECT_PUSHES):
        diff = domain.displacement(out[i], out[j])
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        bad = np.flatnonzero(dist < sigma)
        if not bad.size:
            return out
        k = bad[0]
        r = dist[k]
        unit = diff[k] / r if r > 0 else np.pad([1.0], (0, out.shape[1] - 1))
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
    """One Euler-Maruyama update of a flat batch of labeled states, tracking
    unwrapped displacement.

    sizes, seeds and stream_labels hold one entry per state (segment); a
    stream_labels entry of None means slot index. One segment searches pairs
    with the tree from _TREE_MIN_POINTS points on and handles hard cores;
    several segments take their all-pairs lists, built once, and no hard core.
    """

    def __init__(self, domain: Domain, potentials: PotentialSpec, params: SimParams,
                 sizes, seeds, stream_labels):
        self.domain = domain
        self.potentials = potentials
        self.params = params
        n = sum(sizes)
        if len(sizes) == 1:
            self.seed = seeds[0]
            self.streams = (np.arange(n, dtype=np.uint64) if stream_labels[0] is None
                            else np.array(stream_labels[0], dtype=np.uint64))
            self.segments = None
            tree = math.isfinite(potentials.r_cut) and n >= _TREE_MIN_POINTS
            self.radius = potentials.r_cut if tree else None  # None: all pairs
        else:
            if potentials.has_hard_core:
                raise ConfigError("a hard core needs one state per run, not a batch")
            self.seed = np.repeat(_seed_words(seeds), sizes)
            self.streams = np.concatenate([
                np.arange(k, dtype=np.uint64) if labels is None
                else np.asarray(labels, dtype=np.uint64)
                for k, labels in zip(sizes, stream_labels)])
            offsets = np.cumsum(sizes) - sizes
            lists = [_all_pairs(k) for k in sizes]
            # offsets grow with the segment, so the concatenation is sorted by (i, j)
            pairs = tuple(np.concatenate([p[side] + o for p, o in zip(lists, offsets)])
                          for side in (0, 1))
            self.segments = _Segments(np.repeat(np.arange(len(sizes)), sizes), len(sizes),
                                      pairs)
            self.radius = None
        # no self potential and no pair force: the drift is -0.5 * zeros, all
        # -0.0, and -0.0 * dt + y is y for every y while dt is finite
        self.drift_free = (potentials.phi == "none" and not potentials.has_pair
                           and math.isfinite(params.dt))
        # the hard-core diameter, or None when no pair can overlap
        self.sigma = (potentials.hard_core_sigma if potentials.has_hard_core and n >= 2
                      else None)
        self.reflect = params.hard_core_mode == "reflect"
        # one state of drift-free 1-d hard rods steps in runs (see run); a
        # run is tried after an advance only from a gap this wide
        self.runs = (self.drift_free and self.sigma is not None and self.segments is None
                     and domain.dimension == 1)
        if self.runs:
            self.run_gap = self.sigma + _RUN_MARGIN * math.sqrt(params.dt)
        # capped forces: a count, or one count per segment
        self.capped = 0 if self.segments is None else np.zeros(len(sizes), dtype=np.int64)
        self.halvings = 0
        self.redraws = 0  # attempts drawn with a non-zero round key
        self.min_gap = math.inf  # over every accepted update, not just snapshots
        self.gap = math.inf  # of the last update advance accepted

    def advance(self, points, unwrapped, step_index, dt=None, noise_key=0, depth=0):
        params, domain, sigma = self.params, self.domain, self.sigma
        dt = params.dt if dt is None else dt
        d = points.shape[1]
        if not self.drift_free:
            drift, capped = _drift(points, domain, self.potentials, self.radius,
                                   self.segments)
            self.capped += capped
        sqrt_dt = math.sqrt(dt)
        for attempt in range(params.max_retries):
            key = noise_key * _KEY_BASE + attempt
            if key:
                self.redraws += 1
            incr = sqrt_dt * label_noise(self.seed, step_index, self.streams, d, key)
            if not self.drift_free:
                incr = drift * dt + incr
            proposal = _apply_boundary(points + incr, domain)
            if sigma is None:
                return proposal, unwrapped + incr
            gap = _min_gap(proposal, domain)
            if gap >= sigma:
                self.gap = gap
                self.min_gap = min(self.min_gap, gap)
                return proposal, unwrapped + incr
            if self.reflect:
                resolved = _reflect_hard_core(proposal, domain, sigma)
                self.gap = _min_gap(resolved, domain)
                self.min_gap = min(self.min_gap, self.gap)
                return resolved, unwrapped + incr + (resolved - proposal)
        if depth >= 8:
            raise StepRejected("hard-core rejection exhausted retries and halvings")
        warnings.warn("hard-core retries exhausted; halving the local time step")
        self.halvings += 1
        half = dt / 2.0
        points, unwrapped = self.advance(points, unwrapped, step_index, half,
                                         noise_key * _KEY_BASE + 101, depth + 1)
        return self.advance(points, unwrapped, step_index, half,
                            noise_key * _KEY_BASE + 102, depth + 1)

    def run(self, points, unwrapped, step_index, limit):
        """Take the longest run of round-key-0 updates that advance would
        accept at once, from step step_index on: at most limit steps and no
        further than the memo's noise block. Returns (order, path, track,
        failed): path and track are (n, k) arrays, k >= 0, of the points and
        the unwrapped positions after each step of the run, row i holding rod
        order[i]; failed tells that step step_index + k is one for advance.

        A step joins the run only if its first proposal needs no boundary
        change (on the torus every rod strictly inside (0, size), in the ball
        no radius above size) and keeps every gap >= sigma. The proposals and
        unwrapped positions are then partial sums of the increments, which
        add.accumulate forms one step after another, as advance does. Rods
        are taken in their starting order: while each gap in that order is
        >= sigma the order is the sorted one, so these gaps are _sorted_gap's
        operands; a step that changes the order ends the run. So every bit
        is advance's. For a stepper with runs only."""
        domain, n = self.domain, points.shape[0]
        first, block = _noise_block(self.seed, step_index, self.streams, 1)
        noise = block[step_index - first : step_index - first + limit, :, 0]
        order = np.argsort(points[:, 0])
        # the points' (top) and the unwrapped positions' (bottom) partial sums
        sums = np.empty((2 * n, len(noise) + 1))
        sums[:n, 0], sums[n:, 0] = points[order, 0], unwrapped[order, 0]
        np.multiply(noise[:, order].T, math.sqrt(self.params.dt), out=sums[:n, 1:])
        sums[n:, 1:] = sums[:n, 1:]
        np.add.accumulate(sums, axis=1, out=sums)
        x = sums[:n, 1:]
        low, high = x[0], x[-1]
        # (with no + 0.0 as in _sorted_gap: a zero gap ends the run either way)
        gap = np.minimum.reduce(x[1:] - x[:-1], axis=0)
        if domain.geometry == TORUS:
            ok = (low > 0.0) & (high < domain.size)
            gap = np.minimum(gap, domain.size - (high - low))
        elif domain.geometry == BALL:
            # a radius is monotone in |x|, so a row's ends hold its largest
            ok = ~((np.sqrt(low * low) > domain.size) | (np.sqrt(high * high) > domain.size))
        else:
            ok = True
        ok &= gap >= self.sigma
        k = int(ok.argmin())
        failed = not ok[k]
        if not failed:
            k = len(ok)
        if k:
            self.min_gap = min(self.min_gap, float(np.minimum.reduce(gap[:k])))
        return order, x[:, :k], sums[n:, 1 : k + 1], failed


def step(state: LabeledState, potentials: PotentialSpec, dt: float, seed: int,
         step_index: int = 1, hard_core_mode: str = "reject",
         max_retries: int = 20) -> LabeledState:
    """One Euler-Maruyama update of the labeled state.

    X' = X + drift dt + sqrt(dt) xi with per-label standard normal xi drawn
    from the (seed, step_index, label) stream; boundary wrap or reflection is
    applied, and hard cores are handled per hard_core_mode.
    """
    params = SimParams(dt=dt, t_end=dt, seed=seed, hard_core_mode=hard_core_mode,
                       max_retries=max_retries)
    stepper = _Stepper(state.domain, potentials, params, [len(state)], [seed], [None])
    pts, _ = stepper.advance(state.points.copy(), state.points.copy(), step_index)
    return LabeledState(pts, state.domain, validate=False)


def _simulate_batch(initials, potentials: PotentialSpec, params: SimParams, seeds,
                    stream_labels=None, provenance: dict | None = None) -> list[Trajectory]:
    """Integrate labeled or k-labeled states of one domain as one flat batch.

    Trajectory r is bitwise the one `simulate` (or `simulate_k_labeled`) gives
    for initials[r] under seed seeds[r] and stream_labels[r] (default: slot
    index), with its own diagnostics. The points of all states form one (M, d)
    array: one noise call, one drift and one boundary step per time step
    serve every state. Several states cannot have a hard core (ConfigError).

    One state of 1-d hard rods with no drift steps in runs (_Stepper.run):
    one pass of numpy calls takes every step up to the first that advance
    must take, a rejection or a wrap, and that step goes to advance. Such
    steps are rare for spaced rods, and a pass costs a few single steps.
    Batches, drifts, d >= 2 hard cores and free particles step one step per
    pass: a batch of free particles on a torus wraps a point almost every
    step, so runs would only add passes.
    """
    domain = initials[0].domain
    if any(state.domain != domain for state in initials):
        raise ConfigError("the states of a batch must share one domain")
    flat = [kappa(state) for state in initials]
    sizes = [len(config) for config in flat]
    if stream_labels is None:
        stream_labels = [None] * len(initials)
    stepper = _Stepper(domain, potentials, params, sizes, seeds, stream_labels)
    for config in flat:
        _check_overlap(config, potentials)

    n_steps = int(round(params.t_end / params.dt))
    points = np.concatenate([config.points for config in flat])
    m, d = points.shape
    unwrapped = start = points  # every step makes new arrays; none is written in place
    # snapshots at step 0, every stride-th step and the last step
    steps = np.unique(np.append(np.arange(0, n_steps + 1, params.stride), n_steps))
    times = steps * params.dt
    positions = np.empty((steps.size, m, d))
    running_max = np.empty((steps.size, m))
    positions[0], running_max[0] = points, 0.0

    # the unwrapped positions of a block of steps, reduced to the running max
    # once per block
    block = np.empty((max(1, min(n_steps, _TRACK_NUMBERS // max(1, m * d))), m, d))
    due = steps.tolist()
    snap, run_max = 1, running_max[0]
    use_run = stepper.runs
    for first in range(1, n_steps + 1, len(block)):
        stop, first_snap = min(first + len(block), n_steps + 1), snap
        step_index = first
        while step_index < stop:
            if use_run:
                order, path, track, failed = stepper.run(points, unwrapped, step_index,
                                                         stop - step_index)
                k = path.shape[1]
                if k:
                    row = step_index - first
                    block[row : row + k, order, 0] = track.T
                    last = snap + int(np.searchsorted(steps[snap:], step_index + k))
                    positions[snap:last, order, 0] = path[:, steps[snap:last] - step_index].T
                    points, unwrapped = np.empty_like(points), block[row + k - 1].copy()
                    points[order, 0] = path[:, -1]
                    snap = last
                    step_index += k
                use_run = not failed  # a failed step goes to advance
                continue
            redraws = stepper.redraws
            points, unwrapped = stepper.advance(points, unwrapped, step_index)
            block[step_index - first] = unwrapped
            if step_index == due[snap]:
                positions[snap] = points
                snap += 1
            step_index += 1
            # rejections come in bursts: the step after a redraw goes to
            # advance too, and so does one from a gap below run_gap
            use_run = (stepper.runs and stepper.redraws == redraws
                       and stepper.gap >= stepper.run_gap)
        moved = block[: stop - first]
        np.subtract(moved, start, out=moved)
        disp = np.sqrt(np.sum(np.square(moved, out=moved), axis=2))
        np.maximum(disp[0], run_max, out=disp[0])
        np.maximum.accumulate(disp, axis=0, out=disp)
        running_max[first_snap:snap] = disp[steps[first_snap:snap] - first]
        run_max = disp[-1]

    bounds = np.cumsum([0] + sizes)
    capped = np.broadcast_to(stepper.capped, len(initials))
    out = []
    for r, state in enumerate(initials):
        lo, hi = bounds[r], bounds[r + 1]
        out.append(Trajectory(
            times=times.copy(),
            positions=np.ascontiguousarray(positions[:, lo:hi]),
            domain=domain,
            params=params if seeds[r] == params.seed else replace(params, seed=seeds[r]),
            n_tagged=state.k if isinstance(state, KLabeledState) else 0,
            running_max=np.ascontiguousarray(running_max[:, lo:hi]),
            provenance=dict(provenance or {}),
            diagnostics={
                "capped_forces": int(capped[r]),
                "step_halvings": stepper.halvings,
                "noise_redraws": stepper.redraws,
                "min_pair_gap": stepper.min_gap,
            },
        ))
    return out


def simulate(initial: LabeledState, potentials: PotentialSpec,
             params: SimParams, provenance: dict | None = None,
             stream_labels=None) -> Trajectory:
    """Integrate the labeled SDE; deterministic given (initial, params.seed).

    stream_labels optionally reassigns the per-slot noise streams (default is
    slot index), which makes label-permutation equivariance an exact identity.
    This is the one-state batch of the integrator.
    """
    return _simulate_batch([initial], potentials, params, [params.seed], [stream_labels],
                           provenance)[0]


def simulate_k_labeled(initial: KLabeledState, potentials: PotentialSpec,
                       params: SimParams, provenance: dict | None = None) -> Trajectory:
    """Same dynamics as `simulate` on kappa(initial), tracking the first k
    labels as the tagged tuple; under a shared seed the unlabeled image of the
    output coincides pointwise with the plain simulation."""
    return _simulate_batch([initial], potentials, params, [params.seed],
                           provenance=provenance)[0]
