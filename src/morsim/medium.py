"""The magneto-optically active medium as a polarization-rotation channel.

The medium is parameterized directly by the rotation angle theta and the
global phase angle theta_plus (derivable from susceptibilities chi_+/- and
the geometric factor k*l); the evolution time never appears.  In the
non-collinear geometry the b beam counter-propagates and sees the opposite
sign of both angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .fock import KetState, rotate_rows


class Geometry(str, Enum):
    COLLINEAR = "collinear"
    NONCOLLINEAR = "noncollinear"


@dataclass(frozen=True)
class MediumSpec:
    """Rotation angle theta = k*l*(chi_+ - chi_-) and phase theta_plus = k*l*chi_+."""

    theta: float
    theta_plus: float = 0.0

    def __post_init__(self):
        for name in ("theta", "theta_plus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def from_susceptibilities(cls, chi_plus: float, chi_minus: float,
                              k: float, l: float) -> "MediumSpec":
        if l < 0:
            raise ValueError("medium length must be nonnegative")
        return cls(theta=k * l * (chi_plus - chi_minus), theta_plus=k * l * chi_plus)


def apply_mor(state: KetState, medium: MediumSpec, geometry) -> KetState:
    """Evolve a state through the medium.

    Rotates the aH/aV pair by e^{i theta_plus} e^{i theta/2} R(theta/2),
    R(x) = [[cos x, -sin x], [sin x, cos x]] acting on the creation
    operators; in the non-collinear geometry additionally rotates the bH/bV
    pair by (-theta, -theta_plus).  Photon numbers are conserved per spatial
    pair, so the state is evolved sector by (n_a, n_b) sector.
    """
    geometry = Geometry(geometry)
    theta, theta_plus = medium.theta, medium.theta_plus
    # e^{i(theta_plus + theta/2)} per photon in a, conjugate per photon in b
    unit_phase = cmath.exp(1j * (theta_plus + theta / 2.0))
    sectors = {}
    for (n_a, n_b), x in state.sectors.items():
        if geometry is Geometry.COLLINEAR and n_b:
            raise ValueError("collinear geometry requires empty b modes; "
                             f"found {n_b} photons in the b beam")
        y = rotate_rows(x, theta)
        if geometry is Geometry.NONCOLLINEAR:
            y = rotate_rows(y.T, -theta).T
        sectors[(n_a, n_b)] = y * (unit_phase ** n_a * unit_phase.conjugate() ** n_b)
    return KetState(sectors=sectors, truncation_tail=state.truncation_tail)
