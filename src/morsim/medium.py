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

import numpy as np

from .fock import (
    KetState,
    Occupation,
    _prune,
    _ry_lift_columns,
)


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

    sectors: dict[tuple[int, int], dict] = {}
    for occ, amp in state.amplitudes.items():
        sectors.setdefault((occ[0] + occ[1], occ[2] + occ[3]), {})[(occ[1], occ[3])] = amp

    # e^{i(theta_plus + theta/2)} per photon in a, conjugate per photon in b
    unit_phase = cmath.exp(1j * (theta_plus + theta / 2.0))
    out: dict[Occupation, complex] = {}
    for (n_a, n_b) in sorted(sectors):
        if geometry is Geometry.COLLINEAR and n_b:
            raise ValueError("collinear geometry requires empty b modes; "
                             f"found {n_b} photons in the b beam")
        entries = sectors[(n_a, n_b)]
        a_idx = sorted({ka for ka, _ in entries})
        b_idx = sorted({kb for _, kb in entries})
        x = np.zeros((len(a_idx), len(b_idx)), dtype=complex)
        a_pos = {k: i for i, k in enumerate(a_idx)}
        b_pos = {k: i for i, k in enumerate(b_idx)}
        for (ka, kb), amp in entries.items():
            x[a_pos[ka], b_pos[kb]] = amp

        y = _ry_lift_columns(theta, n_a, np.asarray(a_idx)) @ x
        if geometry is Geometry.NONCOLLINEAR and n_b:
            z = y @ _ry_lift_columns(-theta, n_b, np.asarray(b_idx)).T
            b_out = range(n_b + 1)
        else:
            z = y
            b_out = b_idx
        z = z * (unit_phase ** n_a * unit_phase.conjugate() ** n_b)

        for j, kb in enumerate(b_out):
            col = z[:, j]
            for ka in range(n_a + 1):
                out[(n_a - ka, ka, n_b - kb, kb)] = complex(col[ka])
    return _prune(out, state.truncation_tail)
