"""Input states: coherent light and collinear / non-collinear type-II PDC.

PDC states are built directly from their closed-form Fock expansions with
the discarded weight tracked analytically, so stored norm plus tail is one
to machine precision at any truncation depth.  Coherent sources are handled
in closed form only (intensities and number-difference variance); they are
never expanded in the Fock basis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .fock import KetState, Occupation

DEFAULT_EPSILON = 1e-10
DEFAULT_N_MAX_CAP = 64


class TruncationError(ValueError):
    """Raised when the truncation cap cannot meet the requested tail target."""


class SourceKind(str, Enum):
    COHERENT = "coherent"
    COLLINEAR_PDC = "collinear_pdc"
    NONCOLLINEAR_PDC = "noncollinear_pdc"


@dataclass(frozen=True)
class SourceSpec:
    """Which input state to prepare and how deep to truncate it.

    ``n_max`` is the maximum retained number of photon pairs per spatial
    arm; when None it is chosen automatically so that the fourth-moment
    truncation bound stays below ``epsilon`` (see ``select_n_max``).
    """

    kind: SourceKind
    alpha: complex = 0j
    r: float = 0.0
    phi: float = 0.0
    n_max: int | None = None
    epsilon: float = DEFAULT_EPSILON
    n_max_cap: int = DEFAULT_N_MAX_CAP

    def __post_init__(self):
        object.__setattr__(self, "kind", SourceKind(self.kind))
        for name in ("alpha", "r", "phi", "epsilon"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.r < 0:
            raise ValueError("interaction parameter r must be nonnegative")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("n_max must be a positive integer")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def is_pdc(self) -> bool:
        return self.kind is not SourceKind.COHERENT

    def resolve_n_max(self) -> int:
        if not self.is_pdc:
            raise ValueError("coherent sources have no Fock truncation")
        if self.n_max is not None:
            return self.n_max
        return select_n_max(self.kind, self.r, self.epsilon, self.n_max_cap)


def truncation_tail(kind, r: float, n_max: int) -> float:
    """Analytic squared weight of the components beyond n_max pairs."""
    kind = SourceKind(kind)
    if r < 0:
        raise ValueError("interaction parameter r must be nonnegative")
    if kind is SourceKind.COHERENT:
        return 0.0
    t = math.tanh(r) ** 2
    if kind is SourceKind.COLLINEAR_PDC:
        return t ** (n_max + 1)
    # differentiated geometric series: sum_{n>N} (n+1) t^n (1-t)^2
    return t ** (n_max + 1) * ((n_max + 1) * (1.0 - t) + 1.0)


def select_n_max(kind, r: float, epsilon: float = DEFAULT_EPSILON,
                 cap: int = DEFAULT_N_MAX_CAP) -> int:
    """Smallest power-of-two-ish n_max whose fourth-moment bound beats epsilon.

    The bound tail(n_max) * (n_max + 4)^4 is conservative for every moment
    measured here (weights grow at most like n^4).  Doubles from 8 up to the
    cap and raises TruncationError if even the cap cannot meet the target.
    """
    kind = SourceKind(kind)
    if kind is SourceKind.COHERENT:
        return 1
    n = min(8, cap)
    while True:
        if truncation_tail(kind, r, n) * (n + 4) ** 4 < epsilon:
            return n
        if n >= cap:
            raise TruncationError(
                f"truncation cap n_max={cap} cannot reach tail target "
                f"epsilon={epsilon:g} at r={r:g}; pass an explicit n_max"
            )
        n = min(2 * n, cap)


def collinear_state(r: float, phi: float = 0.0, n_max: int = DEFAULT_N_MAX_CAP) -> KetState:
    """Two-mode squeezed vacuum in the aH/aV pair.

    Amplitude on |n, n, 0, 0> is (-e^{i phi} tanh r)^n / cosh r for
    n <= n_max; the dropped weight tanh^{2(n_max+1)} r goes into the tail.
    """
    if r < 0:
        raise ValueError("interaction parameter r must be nonnegative")
    ratio = -cmath.exp(1j * phi) * math.tanh(r)
    norm = 1.0 / math.cosh(r)
    amps: dict[Occupation, complex] = {}
    term = complex(norm)
    for n in range(n_max + 1):
        if term != 0:
            amps[(n, n, 0, 0)] = term
        term = term * ratio
    return KetState(amplitudes=amps,
                    truncation_tail=truncation_tail(SourceKind.COLLINEAR_PDC, r, n_max))


def noncollinear_state(r: float, n_max: int = DEFAULT_N_MAX_CAP) -> KetState:
    """Four-mode PDC state with counter-propagating arms.

    Amplitude on |n-m, m, m, n-m> is (-1)^m tanh^n r / cosh^2 r for
    0 <= m <= n <= n_max.
    """
    if r < 0:
        raise ValueError("interaction parameter r must be nonnegative")
    t = math.tanh(r)
    norm = 1.0 / math.cosh(r) ** 2
    amps: dict[Occupation, complex] = {}
    weight = norm
    for n in range(n_max + 1):
        if weight != 0:
            for m in range(n + 1):
                amps[(n - m, m, m, n - m)] = complex(-weight if m % 2 else weight)
        weight *= t
    return KetState(amplitudes=amps,
                    truncation_tail=truncation_tail(SourceKind.NONCOLLINEAR_PDC, r, n_max))


def build_state(spec: SourceSpec) -> KetState:
    """Construct the truncated Fock state for a PDC source spec."""
    if spec.kind is SourceKind.COHERENT:
        raise ValueError("coherent sources are handled analytically; no Fock state")
    n_max = spec.resolve_n_max()
    if spec.kind is SourceKind.COLLINEAR_PDC:
        return collinear_state(spec.r, spec.phi, n_max)
    return noncollinear_state(spec.r, n_max)


def coherent_intensity_pair(alpha: complex, theta: float) -> tuple[float, float]:
    """(I_x, I_y) after rotation by theta; the pair sums to |alpha|^2 exactly.

    The larger component is computed directly and the smaller one by
    subtraction, which is exact by the Sterbenz lemma, so the sum never
    loses a photon to rounding.
    """
    total = abs(alpha) ** 2
    c2 = math.cos(theta / 2.0) ** 2
    if c2 >= 0.5:
        ix = total * c2
        return ix, total - ix
    iy = total * math.sin(theta / 2.0) ** 2
    return total - iy, iy


def mean_photon_number(spec: SourceSpec) -> float:
    if spec.kind is SourceKind.COHERENT:
        return abs(spec.alpha) ** 2
    s2 = math.sinh(spec.r) ** 2
    return 2.0 * s2 if spec.kind is SourceKind.COLLINEAR_PDC else 4.0 * s2
