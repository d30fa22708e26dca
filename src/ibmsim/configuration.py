"""Configuration-space data model and the structural maps between labeled and
unlabeled states: unlabeling (kappa), labeling rules, translations and the
tagged-frame change of coordinates (iota)."""

from __future__ import annotations

import math

import numpy as np

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
        if self.geometry == TORUS:
            return bool(np.all(pts >= 0.0) and np.all(pts < self.size))
        if self.geometry == BALL:
            # tiny slack so reflected / round-tripped boundary points survive
            return bool(np.all(np.sum(pts * pts, axis=1) <= self.size**2 * (1 + 1e-12)))
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
            diff = diff - self.size * np.round(diff / self.size)
        return diff

    def distance(self, a, b):
        diff = self.displacement(a, b)
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def as_free(self) -> "Domain":
        return Domain(self.dimension, FREE, self.size)


def as_points(points, d: int) -> np.ndarray:
    """Coerce scalars / lists / arrays to a float (n, d) array."""
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
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_canonical", None)

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
                canon = np.sort(self.points, axis=0)
            else:
                canon = self.points[np.lexsort(self.points.T[::-1])]
            object.__setattr__(self, "_canonical", canon)
        return self._canonical

    def same_points(self, other: "Configuration", tol: float = 0.0) -> bool:
        """Multiset equality of point patterns within per-coordinate tol."""
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        a, b = self.canonical(), other.canonical()
        if tol == 0.0:
            return bool(np.array_equal(a, b))
        return bool(np.max(np.abs(a - b)) <= tol)

    def min_pair_distance(self) -> float:
        n = len(self)
        if n < 2:
            return math.inf
        if self.domain.dimension == 1:
            # sorted gaps suffice in one dimension (plus the wrap-around gap)
            flat = np.sort(self.points[:, 0])
            gap = float((flat[1:] - flat[:-1]).min())
            if self.domain.geometry == TORUS:
                gap = min(gap, self.domain.size - float(flat[-1] - flat[0]))
            return gap
        diff = self.domain.displacement(self.points[:, None, :], self.points[None, :, :])
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        # dist is bitwise symmetric, so its off-diagonal minimum is the upper triangle's
        np.fill_diagonal(dist, math.inf)
        return float(dist.min())

    def is_single(self, eps: float | None = None) -> bool:
        """True when no two points coincide within eps (default: domain tol)."""
        if eps is None:
            eps = self.domain.coincidence_tol
        return self.min_pair_distance() > eps

    def without(self, indices) -> "Configuration":
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(indices, dtype=int)] = False
        return Configuration(self.points[keep], self.domain, validate=False)


class LabeledState:
    """Ordered tuple of particle positions; order is significant."""

    __slots__ = ("points", "domain")

    def __init__(self, points, domain: Domain, validate: bool = True):
        pts = as_points(points, domain.dimension)
        if validate and not domain.contains(pts):
            raise DomainError("labeled state points outside the domain")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledState is immutable")

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"LabeledState(n={len(self)}, {self.domain!r})"

    def configuration(self) -> Configuration:
        return Configuration(self.points, self.domain, validate=False)


class KLabeledState:
    """Tagged tuple x in S^k together with a background configuration."""

    __slots__ = ("tagged", "background")

    def __init__(self, tagged, background: Configuration, validate: bool = True):
        dom = background.domain
        tag = as_points(tagged, dom.dimension)
        if validate and not dom.contains(tag):
            raise DomainError("tagged points outside the domain")
        tag = np.ascontiguousarray(tag)
        tag.setflags(write=False)
        object.__setattr__(self, "tagged", tag)
        object.__setattr__(self, "background", background)

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
        return Configuration(pts, state.domain, validate=False)
    raise TypeError(f"kappa expects a LabeledState or KLabeledState, got {type(state)!r}")


def _label_order(config: Configuration, rule: str) -> np.ndarray:
    pts = config.points
    if rule == "stored-order":
        return np.arange(len(config))
    if rule == "lexicographic":
        return np.lexsort(pts.T[::-1])
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
    order = _label_order(config, rule)
    return LabeledState(config.points[order], config.domain, validate=False)


def translate(config: Configuration, a, unbounded: bool = False) -> Configuration:
    """Shift every point by -a (the translation convention theta_a).

    On a torus the shift wraps. On a ball domain the result leaves the domain,
    so the unbounded interpretation must be requested explicitly; the result
    then lives in the free domain of the same dimension.
    """
    dom = config.domain
    a = np.asarray(a, dtype=float).reshape(dom.dimension)
    if dom.geometry == TORUS:
        return Configuration(dom.wrap(config.points - a), dom, validate=False)
    if dom.geometry == BALL and not unbounded:
        raise DomainError("translation leaves a ball domain; pass unbounded=True")
    out_dom = dom if dom.geometry == FREE else dom.as_free()
    return Configuration(config.points - a, out_dom, validate=False)


def iota(state: KLabeledState) -> KLabeledState:
    """Move to the frame of the tagged particle: (x, s) -> (x, theta_x(s))."""
    if state.k != 1:
        raise KMismatch(f"iota is defined for k = 1, got k = {state.k}")
    shifted = translate(state.background, state.tagged[0], unbounded=True)
    return KLabeledState(state.tagged, shifted, validate=False)


def iota_inverse(state: KLabeledState) -> KLabeledState:
    """Inverse frame change: (x, s) -> (x, theta_{-x}(s))."""
    if state.k != 1:
        raise KMismatch(f"iota_inverse is defined for k = 1, got k = {state.k}")
    shifted = translate(state.background, -state.tagged[0], unbounded=True)
    return KLabeledState(state.tagged, shifted, validate=False)


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
