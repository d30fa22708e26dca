"""Configuration-space data model and the structural maps between labeled and
unlabeled states: unlabeling (kappa), labeling rules, translations and the
tagged-frame change of coordinates (iota)."""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError, KMismatch, NotSingle

TORUS = "torus"
BALL = "ball"
FREE = "free"
_GEOMETRIES = (TORUS, BALL, FREE)

# Coincidence tolerance, relative to the domain diameter.
COINCIDENCE_REL_TOL = 1e-9

LABEL_RULES = ("lexicographic", "distance-from-origin", "stored-order")


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


class Domain:
    """Domain the points live in.

    geometry 'torus': periodic cube [0, size)^d with the minimum-image metric.
    geometry 'ball': centered ball |x| <= size (reflecting boundary in dynamics).
    geometry 'free': all of R^d; size is only a nominal scale for tolerances.
    """

    __slots__ = ("dimension", "geometry", "size", "diameter", "coincidence_tol")

    def __init__(self, dimension: int, geometry: str = TORUS, size: float = 1.0):
        if int(dimension) < 1:
            raise DomainError(f"dimension must be >= 1, got {dimension}")
        if geometry not in _GEOMETRIES:
            raise DomainError(f"unknown geometry {geometry!r}")
        if not size > 0:
            raise DomainError(f"size must be positive, got {size}")
        self.dimension = int(dimension)
        self.geometry = geometry
        self.size = float(size)
        if geometry == TORUS:
            self.diameter = 0.5 * self.size * math.sqrt(self.dimension)
        else:
            self.diameter = 2.0 * self.size
        self.coincidence_tol = COINCIDENCE_REL_TOL * self.diameter

    def __repr__(self):
        return f"Domain(d={self.dimension}, {self.geometry}, size={self.size})"

    def __eq__(self, other):
        return (
            isinstance(other, Domain)
            and self.dimension == other.dimension
            and self.geometry == other.geometry
            and self.size == other.size
        )

    def __hash__(self):
        return hash((self.dimension, self.geometry, self.size))

    @property
    def volume(self) -> float:
        if self.geometry == TORUS:
            return self.size ** self.dimension
        if self.geometry == BALL:
            return _unit_ball_volume(self.dimension) * self.size ** self.dimension
        return math.inf

    def contains(self, points) -> bool:
        pts = as_points(points, self.dimension)
        if pts.size == 0:
            return True
        # one reduction per bound; a NaN coordinate fails every comparison
        if self.geometry == TORUS:
            return bool(pts.min() >= 0.0 and pts.max() < self.size)
        if self.geometry == BALL:
            # tiny slack so reflected / round-tripped boundary points survive
            return bool(np.sum(pts * pts, axis=1).max() <= self.size**2 * (1 + 1e-12))
        return True

    def wrap(self, points):
        pts = np.asarray(points, dtype=float)
        if self.geometry == TORUS:
            # np.mod rounds a tiny negative coordinate up to size itself
            out = np.mod(pts, self.size)
            out[out == self.size] = 0.0
            return out
        return pts

    def displacement(self, a, b):
        """a - b, minimum-image on the torus."""
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.geometry == TORUS:
            diff = diff - self.size * np.rint(diff / self.size)
        return diff

    def distance(self, a, b):
        diff = self.displacement(a, b)
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def as_free(self) -> "Domain":
        return Domain(self.dimension, FREE, self.size)


def as_points(points, d: int) -> np.ndarray:
    """Coerce scalars / lists / arrays to a float (n, d) array; a float
    (n, d) array is returned as it is."""
    if (isinstance(points, np.ndarray) and points.dtype == np.float64
            and points.ndim == 2 and points.shape[1] == d):
        return points
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, d)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DomainError(f"expected points of dimension {d}, got shape {pts.shape}")
    return pts


def _private(pts: np.ndarray) -> np.ndarray:
    """Read-only copy, so that no caller's array is frozen or can change a state."""
    out = np.array(pts, order="C")
    out.setflags(write=False)
    return out


# the pair search: every pair loop of the package goes through these helpers

# _all_pairs keeps the lists of this many most recent n; batches of ragged
# sizes ask for many n, and one list for n = 1000 holds 16 MB
_ALL_PAIRS_CACHED = 32


@functools.lru_cache(maxsize=_ALL_PAIRS_CACHED)
def _all_pairs(n: int):
    """Ordered pairs (i, j), i != j, of n points, sorted by i then j (its i < j
    rows are the upper triangle in row order); cached per recent n, read-only."""
    pairs = np.nonzero(~np.eye(n, dtype=bool))
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _tree(points: np.ndarray, domain: Domain) -> cKDTree:
    """KD-tree of (n, d) points inside the domain, periodic on the torus."""
    return cKDTree(points, boxsize=domain.size if domain.geometry == TORUS else None)


def _tree_pairs(tree: cKDTree, radius: float) -> np.ndarray:
    """(m, 2) pairs i < j within radius, padded so the tree's rounding never
    drops a pair; callers apply their exact cutoff with Domain.displacement."""
    return tree.query_pairs(radius * (1 + 1e-9), output_type="ndarray")


def _close_pairs(points: np.ndarray, domain: Domain, radius: float | None):
    """Ordered pairs (i, j), i != j, sorted by i then j, within radius (all
    pairs when None)."""
    if radius is None:
        return _all_pairs(points.shape[0])
    n = points.shape[0]
    i, j = _tree_pairs(_tree(points, domain), radius).T
    # the pairs are distinct, so one sort of the keys i * n + j orders them
    keys = np.concatenate([i * n + j, j * n + i])
    keys.sort()
    return np.divmod(keys, n)


def _min_gap(points: np.ndarray, domain: Domain) -> float:
    """Smallest pair distance of the (n, d) points (inf below two points), with
    the bits of the all-pairs minimum: in one dimension the smallest gap of the
    sorted points (and the torus wrap-around gap), else _tree_gap."""
    if points.shape[0] < 2:
        return math.inf
    if domain.dimension == 1:
        return _sorted_gap(np.sort(points[:, 0]), domain)
    return _tree_gap(points, domain)


def _tree_gap(points: np.ndarray, domain: Domain) -> float:
    """_min_gap from one tree of the wrapped points: the exact distances of the
    raw points' pairs within the tree's nearest-neighbour distance."""
    wrapped = domain.wrap(points)
    tree = _tree(wrapped, domain)
    nearest = float(tree.query(wrapped, k=2)[0][:, 1].min())
    i, j = _tree_pairs(tree, nearest).T  # coincident pairs too, at radius 0
    return float(domain.distance(points[i], points[j]).min())


def _sorted_gap(flat: np.ndarray, domain: Domain) -> float:
    """_min_gap of n >= 2 sorted 1-d coordinates, the torus wrap-around gap
    included; unvalidated torus coordinates outside [0, size) take _tree_gap."""
    # + 0.0: a sort may put 0.0 before -0.0, and the all-pairs minimum is +0.0
    gap = float((flat[1:] - flat[:-1]).min()) + 0.0
    if domain.geometry != TORUS:
        return gap
    low, high = float(flat[0]), float(flat[-1])
    if low < 0.0 or high >= domain.size:
        return _tree_gap(flat[:, None], domain)
    return min(gap, domain.size - (high - low))


class Configuration:
    """Finite unordered point pattern in a domain.

    Multiplicity > 1 is represented by repeated rows; such patterns are valid
    configurations but fail `is_single`.
    """

    __slots__ = ("points", "domain", "_canonical")

    def __init__(self, points, domain: Domain, validate: bool = True):
        pts = as_points(points, domain.dimension)
        if validate and not domain.contains(pts):
            raise DomainError("configuration points outside the domain")
        object.__setattr__(self, "points", _private(pts))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_canonical", None)

    @classmethod
    def _of(cls, pts: np.ndarray, domain: Domain) -> "Configuration":
        """Configuration on a float (n, d) array no caller holds (computed in
        this module, or the frozen points of another state): no copy, no check."""
        pts.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_canonical", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"Configuration(n={len(self)}, {self.domain!r})"

    def canonical(self) -> np.ndarray:
        """Points sorted lexicographically (order-free representative)."""
        if self._canonical is None:
            if len(self) == 0:
                canon = self.points
            elif self.domain.dimension == 1:
                canon = self.points.copy()
                canon.sort(axis=0)
            else:
                canon = self.points[np.lexsort(self.points.T[::-1])]
            canon.setflags(write=False)
            object.__setattr__(self, "_canonical", canon)
        return self._canonical

    def same_points(self, other: "Configuration", tol: float = 0.0) -> bool:
        """Multiset equality of point patterns within per-coordinate tol."""
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        a, b = self.canonical(), other.canonical()
        if a.shape != b.shape:
            return False
        if tol == 0.0:
            return bool((a == b).all())
        return bool(np.max(np.abs(a - b)) <= tol)

    def min_pair_distance(self) -> float:
        if self.domain.dimension == 1 and len(self) > 1:  # the cached sorted copy
            return _sorted_gap(self.canonical()[:, 0], self.domain)
        return _min_gap(self.points, self.domain)

    def is_single(self, eps: float | None = None) -> bool:
        """True when no two points coincide within eps (default: domain tol)."""
        if eps is None:
            eps = self.domain.coincidence_tol
        return self.min_pair_distance() > eps

    def without(self, indices) -> "Configuration":
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(indices, dtype=int)] = False
        return Configuration._of(self.points[keep], self.domain)


class LabeledState:
    """Ordered tuple of particle positions; order is significant."""

    __slots__ = ("points", "domain")

    def __init__(self, points, domain: Domain, validate: bool = True):
        pts = as_points(points, domain.dimension)
        if validate and not domain.contains(pts):
            raise DomainError("labeled state points outside the domain")
        object.__setattr__(self, "points", _private(pts))
        object.__setattr__(self, "domain", domain)

    @classmethod
    def _of(cls, pts: np.ndarray, domain: Domain) -> "LabeledState":
        """As Configuration._of."""
        pts.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", domain)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LabeledState is immutable")

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"LabeledState(n={len(self)}, {self.domain!r})"

    def configuration(self) -> Configuration:
        return Configuration._of(self.points, self.domain)


class KLabeledState:
    """Tagged tuple x in S^k together with a background configuration."""

    __slots__ = ("tagged", "background")

    def __init__(self, tagged, background: Configuration, validate: bool = True):
        dom = background.domain
        tag = as_points(tagged, dom.dimension)
        if validate and not dom.contains(tag):
            raise DomainError("tagged points outside the domain")
        object.__setattr__(self, "tagged", _private(tag))
        object.__setattr__(self, "background", background)

    @classmethod
    def _of(cls, tag: np.ndarray, background: Configuration) -> "KLabeledState":
        """As Configuration._of, for the tagged array."""
        tag.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "tagged", tag)
        object.__setattr__(self, "background", background)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("KLabeledState is immutable")

    @property
    def k(self) -> int:
        return self.tagged.shape[0]

    @property
    def domain(self) -> Domain:
        return self.background.domain

    def __repr__(self):
        return f"KLabeledState(k={self.k}, n_bg={len(self.background)})"


def kappa(state) -> Configuration:
    """Forget labels: sum the tagged points and the background into one pattern."""
    if isinstance(state, LabeledState):
        return state.configuration()
    if isinstance(state, KLabeledState):
        pts = np.concatenate([state.tagged, state.background.points], axis=0)
        return Configuration._of(pts, state.domain)
    raise TypeError(f"kappa expects a LabeledState or KLabeledState, got {type(state)!r}")


def _label_order(config: Configuration, rule: str) -> np.ndarray:
    pts = config.points
    if rule == "stored-order":
        return np.arange(len(config))
    if rule == "distance-from-origin":
        dist = config.domain.distance(pts, np.zeros(config.domain.dimension))
        return np.lexsort(tuple(pts.T[::-1]) + (dist,))
    raise ValueError(f"unknown label rule {rule!r}; choose from {LABEL_RULES}")


def label(config: Configuration, rule: str = "lexicographic") -> LabeledState:
    """Assign labels to a single configuration; deterministic for a fixed rule.

    Raises NotSingle when two points coincide within the domain tolerance.
    """
    if not config.is_single():
        raise NotSingle("cannot label a configuration with coincident points")
    if rule == "lexicographic":  # a single configuration has no ties to break
        return LabeledState._of(config.canonical(), config.domain)
    order = _label_order(config, rule)
    return LabeledState._of(config.points[order], config.domain)


def translate(config: Configuration, a, unbounded: bool = False) -> Configuration:
    """Shift every point by -a (the translation convention theta_a).

    On a torus the shift wraps. On a ball domain the result leaves the domain,
    so the unbounded interpretation must be requested explicitly; the result
    then lives in the free domain of the same dimension.
    """
    dom = config.domain
    a = np.asarray(a, dtype=float).reshape(dom.dimension)
    if dom.geometry == TORUS:
        return Configuration._of(dom.wrap(config.points - a), dom)
    if dom.geometry == BALL and not unbounded:
        raise DomainError("translation leaves a ball domain; pass unbounded=True")
    out_dom = dom if dom.geometry == FREE else dom.as_free()
    return Configuration._of(config.points - a, out_dom)


def iota(state: KLabeledState) -> KLabeledState:
    """Move to the frame of the tagged particle: (x, s) -> (x, theta_x(s))."""
    if state.k != 1:
        raise KMismatch(f"iota is defined for k = 1, got k = {state.k}")
    shifted = translate(state.background, state.tagged[0], unbounded=True)
    return KLabeledState._of(state.tagged, shifted)


def iota_inverse(state: KLabeledState) -> KLabeledState:
    """Inverse frame change: (x, s) -> (x, theta_{-x}(s))."""
    if state.k != 1:
        raise KMismatch(f"iota_inverse is defined for k = 1, got k = {state.k}")
    shifted = translate(state.background, -state.tagged[0], unbounded=True)
    return KLabeledState._of(state.tagged, shifted)


def falling_factorial(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1); 1 for k = 0, 0 when k > m."""
    if m < 0 or k < 0:
        raise ValueError("falling_factorial needs non-negative arguments")
    out = 1
    for j in range(k):
        out *= m - j
        if out == 0:
            return 0
    return out
