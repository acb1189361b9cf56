"""The magneto-optically active medium as a polarization-rotation channel.

The medium is parameterized directly by the rotation angle theta and the
global phase angle theta_plus (derivable from susceptibilities chi_+/- and
the geometric factor k*l); the evolution time never appears.  The b beam
counter-propagates and sees the opposite sign of both angles.  The source
decides the geometry: collinear PDC leaves the b beam empty, non-collinear PDC
fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import KetState, rotate_sectors


@dataclass(frozen=True)
class MediumSpec:
    """Rotation angle theta = k*l*(chi_+ - chi_-) and phase theta_plus = k*l*chi_+."""

    theta: float
    theta_plus: float = 0.0

    def __post_init__(self):
        for name in ("theta", "theta_plus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def apply_mor(state: KetState, medium: MediumSpec) -> KetState:
    """Evolve a state through the medium.

    Rotates the aH/aV pair by e^{i theta_plus} e^{i theta/2} R(theta/2),
    R(x) = [[cos x, -sin x], [sin x, cos x]] acting on the creation
    operators, and the counter-propagating bH/bV pair by (-theta,
    -theta_plus); a state with an empty b beam sees the a rotation alone.
    Photon numbers are conserved per spatial pair: in each (n_a, n_b)
    sector's J_y eigenbasis the channel is one phase per entry
    (``SectorLayout.phases``), applied to the state's cached
    eigen-coefficients before rotating back.
    """
    layout = state.layout
    (a, i_a), (b, i_b), post_phase = layout.phases
    phase = np.exp(1j * (medium.theta * a))[i_a] * np.exp(1j * (medium.theta_plus * b))[i_b]
    out = rotate_sectors(layout, state.eigen_coefficients * phase)
    out *= post_phase
    return KetState(layout.occupations, out, state.truncation_tail)
