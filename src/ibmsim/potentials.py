"""Self and pair potentials with analytic gradients, shared by the SDE
integrator and the Gibbs sampler."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHI_KINDS = ("none", "harmonic")
PSI_KINDS = ("none", "harmonic_pair", "lennard_jones", "soft_core", "hard_core")

# Lennard-Jones forces are capped below this multiple of sigma; capped
# evaluations are counted and surfaced, never silently dropped.
LJ_CAP_FACTOR = 0.3


@dataclass(frozen=True)
class PotentialSpec:
    """Self potential Phi and symmetric pair potential Psi(x, y) = psi(|x - y|).

    phi 'harmonic' is phi_strength * |x|^2.
    psi kinds: harmonic_pair  psi_strength * r^2
               lennard_jones  4 eps ((sigma/r)^12 - (sigma/r)^6), eps = psi_strength,
                              sigma = psi_range
               soft_core      psi_strength * exp(-r^2 / (2 psi_range^2))
               hard_core      +inf inside hard_core_diameter, 0 outside
    """

    phi: str = "none"
    phi_strength: float = 1.0
    psi: str = "none"
    psi_strength: float = 1.0
    psi_range: float = 1.0
    hard_core_diameter: float = 0.0
    r_cut: float = math.inf

    def __post_init__(self):
        if self.phi not in PHI_KINDS:
            raise ValueError(f"unknown phi kind {self.phi!r}")
        if self.psi not in PSI_KINDS:
            raise ValueError(f"unknown psi kind {self.psi!r}")
        if not self.psi_range > 0:
            raise ValueError("psi_range must be positive")
        if not self.hard_core_diameter >= 0:
            raise ValueError("hard_core_diameter must be non-negative")
        if self.psi == "hard_core" and not self.hard_core_diameter > 0:
            raise ValueError("hard_core psi needs hard_core_diameter > 0")
        if not self.r_cut > 0:
            raise ValueError("r_cut must be positive")

    # -- self potential -----------------------------------------------------

    def phi_value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.phi == "none":
            return np.zeros(pts.shape[0])
        return self.phi_strength * np.sum(pts * pts, axis=1)

    def phi_gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.phi == "none":
            return np.zeros_like(pts)
        return 2.0 * self.phi_strength * pts

    # -- pair potential -----------------------------------------------------

    def pair_value(self, r: np.ndarray) -> np.ndarray:
        """psi at scalar separations r (array); +inf inside a hard core."""
        r = np.asarray(r, dtype=float)
        if self.psi == "none":
            return np.zeros_like(r)
        if self.psi == "harmonic_pair":
            return self.psi_strength * r * r
        if self.psi == "soft_core":
            s2 = self.psi_range**2
            return self.psi_strength * np.exp(-r * r / (2.0 * s2))
        if self.psi == "hard_core":
            return np.where(r < self.hard_core_diameter, np.inf, 0.0)
        # lennard_jones, with the short-range cap
        rc = LJ_CAP_FACTOR * self.psi_range
        rr = np.maximum(r, rc)
        x6 = (self.psi_range / rr) ** 6
        return 4.0 * self.psi_strength * (x6 * x6 - x6)

    def pair_gradient_factor(self, r: np.ndarray):
        """(psi'(r) / r, capped-evaluation count); grad_x psi(x-y) = factor * (x-y)."""
        r = np.asarray(r, dtype=float)
        if self.psi in ("none", "hard_core"):
            return np.zeros_like(r), 0
        if self.psi == "harmonic_pair":
            return np.full_like(r, 2.0 * self.psi_strength), 0
        if self.psi == "soft_core":
            s2 = self.psi_range**2
            return -(self.psi_strength / s2) * np.exp(-r * r / (2.0 * s2)), 0
        rc = self.cap_radius
        capped = int(np.count_nonzero(r < rc))
        rr = np.maximum(r, rc)
        x6 = (self.psi_range / rr) ** 6
        factor = 24.0 * self.psi_strength * (x6 - 2.0 * x6 * x6) / (rr * rr)
        return factor, capped

    @property
    def cap_radius(self) -> float:
        """Separation below which pair forces are capped (0: never)."""
        return LJ_CAP_FACTOR * self.psi_range if self.psi == "lennard_jones" else 0.0

    @property
    def has_pair(self) -> bool:
        return self.psi not in ("none", "hard_core")

    @property
    def has_hard_core(self) -> bool:
        return self.psi == "hard_core" or self.hard_core_diameter > 0

    @property
    def hard_core_sigma(self) -> float:
        return self.hard_core_diameter
