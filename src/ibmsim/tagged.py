"""Tagged-particle extraction and the environment seen from the tag.

Tracks are taken from simulation-native labels when a trajectory provides
them (exact); greedy nearest-neighbor matching covers externally supplied
configuration paths. Tracks born or dying mid-path get (a, b) intervals; no
bookkeeping beyond that is attempted for paths whose particles enter from
infinity, which has no finite-volume analog here."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration, KLabeledState, _close_pairs, iota, translate
from .dynamics import Trajectory
from .errors import AmbiguousMatching, NoSuchPoint, NotSingle


@dataclass
class Track:
    """One labeled sub-path with its maximal interval."""

    times: np.ndarray
    positions: np.ndarray  # (len(times), d)
    start_index: int

    @property
    def starts_at_zero(self) -> bool:
        return self.start_index == 0

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def default_matching_radius(d: int, dt: float, stride: int) -> float:
    """Displacement scale between snapshots: 4 sqrt(d dt stride)."""
    return 4.0 * math.sqrt(d * dt * stride)


def _match_frame(prev: np.ndarray, cur: np.ndarray, domain, radius: float) -> np.ndarray:
    """Greedy assignment of previous points to current points by distance: the
    pairs within radius, shortest first (ties by index), while both are free.
    Returns each current point's previous point, -1 where it has none.

    Raises AmbiguousMatching when two matched pairs could also be assigned
    crosswise within the matching radius: two complete assignments are then
    both within tolerance and the matching cannot be trusted (two particles
    swapping positions within one stride is the archetype).
    """
    n_prev, n_cur = prev.shape[0], cur.shape[0]
    i, j = _close_pairs(domain.wrap(np.concatenate([prev, cur])), domain, radius)
    keep = (i < n_prev) & (j >= n_prev)
    i, j = i[keep], j[keep] - n_prev
    dist = domain.distance(prev[i], cur[j])
    within = dist <= radius
    i, j, dist = i[within], j[within], dist[within]
    order = np.lexsort((j, i, dist))  # the order of a dense argmin's picks
    match, owner = [-1] * n_prev, [-1] * n_cur
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if match[a] < 0 and owner[b] < 0:
            match[a], owner[b] = b, a
    match, owner = np.array(match, dtype=int), np.array(owner, dtype=int)
    # a candidate (i1, j2) off the assignment whose crosswise partner (i2, j1) is one too
    i2, j1 = owner[j], match[i]
    cross = (j1 >= 0) & (i2 >= 0) & (i2 != i)
    hits = np.flatnonzero(cross)[np.isin(i2[cross] * n_cur + j1[cross], i * n_cur + j)]
    if hits.size:
        k = hits[0]
        raise AmbiguousMatching(f"assignments within tolerance at pairs "
                                f"{(int(i[k]), int(j1[k]))} / {(int(i2[k]), int(j[k]))}")
    return owner


def split_paths(configs, times=None, matching_radius: float | None = None) -> list[Track]:
    """Split a configuration path into continuous labeled tracks.

    configs is a time-ordered sequence of single configurations; matching is
    greedy nearest-neighbor between consecutive snapshots within
    matching_radius. Unmatched new points open (a, b)-interval tracks.
    """
    configs = list(configs)
    if not configs:
        return []
    domain = configs[0].domain
    times = np.arange(len(configs), dtype=float) if times is None else np.asarray(times, float)
    if times.shape != (len(configs),):
        raise ValueError(f"times of shape {times.shape} for {len(configs)} snapshots")
    if matching_radius is None:
        dt = float(times[1] - times[0]) if times.size > 1 else 1.0
        matching_radius = default_matching_radius(domain.dimension, dt, 1)

    for i, c in enumerate(configs):
        if not c.is_single():
            raise NotSingle(f"snapshot {i} is not a single configuration")

    # a point's track id is its predecessor's, or else its own row in the stacked path
    ids, row = [np.arange(len(configs[0]))], len(configs[0])
    for prev, cur in zip(configs, configs[1:]):
        owner = _match_frame(prev.points, cur.points, domain, matching_radius)
        inherited = np.append(ids[-1], -1)[owner]  # owner -1 reads the appended -1
        ids.append(np.where(owner < 0, row + np.arange(owner.size), inherited))
        row += owner.size
    ids = np.concatenate(ids)
    points = np.concatenate([c.points for c in configs])
    frames = np.repeat(np.arange(len(configs)), [len(c) for c in configs])
    order = np.argsort(ids, kind="stable")  # each track's rows in time order
    tracks = []
    for rows in np.split(order, np.flatnonzero(np.diff(ids[order])) + 1) if order.size else []:
        start = int(frames[rows[0]])
        tracks.append(Track(times[start : start + rows.size].copy(), points[rows], start))
    tracks.sort(key=lambda tr: (tr.start_index, tuple(tr.positions[0])))
    return tracks


def _locate_tag(traj: Trajectory, x) -> int:
    domain = traj.domain
    x = np.asarray(x, dtype=float).reshape(domain.dimension)
    start = traj.positions[0]
    dist = domain.distance(start, x)
    eps = domain.coincidence_tol
    hits = np.nonzero(dist <= eps)[0]
    if hits.size == 0:
        raise NoSuchPoint(f"no particle starts within {eps:g} of {x}")
    if hits.size > 1:
        raise NotSingle("several particles start at the tagged position")
    return int(hits[0])


def tag_particle(traj: Trajectory, x) -> Track:
    """The track of the particle starting at x (native labels, exact)."""
    idx = _locate_tag(traj, x)
    return Track(
        times=traj.times.copy(),
        positions=traj.positions[:, idx, :].copy(),
        start_index=0,
    )


def environment_process(traj: Trajectory, x) -> list[Configuration]:
    """The configuration of the other particles viewed from the tagged one:
    at each time, every other position shifted by the tag. Equivalently the
    background of the frame change applied along the 1-labeled path."""
    idx = _locate_tag(traj, x)
    keep = np.ones(traj.n_particles, dtype=bool)
    keep[idx] = False
    out = []
    for t in range(traj.n_snapshots):
        others = Configuration(traj.positions[t, keep], traj.domain, validate=False)
        out.append(translate(others, traj.positions[t, idx],
                             unbounded=traj.domain.geometry == "ball"))
    return out


def environment_via_iota(traj: Trajectory, x) -> list[Configuration]:
    """Independent route to the same object through the frame-change map of
    the 1-labeled states; used to cross-check environment_process pathwise."""
    idx = _locate_tag(traj, x)
    keep = np.ones(traj.n_particles, dtype=bool)
    keep[idx] = False
    out = []
    for t in range(traj.n_snapshots):
        background = Configuration(traj.positions[t, keep], traj.domain, validate=False)
        state = KLabeledState(traj.positions[t, idx][None, :], background, validate=False)
        out.append(iota(state).background)
    return out
