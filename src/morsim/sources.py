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

import numpy as np

from .fock import KetState, require_memory

DEFAULT_EPSILON = 1e-10
# A state is its nonzero amplitudes: build_state counts 48 bytes for each, its
# occupations and the amplitude, against fock.MEMORY_BUDGET_BYTES (n_max 44739241
# collinear / 9457 non-collinear).  Each Gram kernel of a moment sweep counts its sparse
# vectors, at most 35 per amplitude, beside the state.  Only the channel lays a state out
# in sector blocks, for far more (fock.CHANNEL_BYTES_PER_AMPLITUDE and the rotation
# bases); it checks that when a whole state first enters it (n_max 581 / 367).
STATE_BYTES_PER_AMPLITUDE = 32 + 16


class TruncationError(ValueError):
    """Raised when no truncation within the memory budget meets the tail target."""


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
        return select_n_max(self.kind, self.r, self.epsilon)


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


def truncation_bound(kind, r: float, n_max: int) -> float:
    """tail(n_max) * (n_max + 4)^4: bounds the truncation error of every moment
    measured here (weights grow at most like n^4)."""
    return truncation_tail(kind, r, n_max) * (n_max + 4) ** 4


def select_n_max(kind, r: float, epsilon: float = DEFAULT_EPSILON) -> int:
    """Smallest n_max = 8 * 2^k whose ``truncation_bound`` beats epsilon.

    Raises TruncationError once the state ``build_state`` would build no longer fits the
    memory budget, as at r = 25, where tanh r rounds to 1 and the tail never shrinks.
    """
    kind = SourceKind(kind)
    if kind is SourceKind.COHERENT:
        return 1
    n = 8
    while truncation_bound(kind, r, n) >= epsilon:
        n *= 2
        try:
            _require_state_memory(kind, n)
        except ValueError as refused:
            raise TruncationError(f"no n_max reaches tail target epsilon={epsilon:g} at r={r:g} "
                                  f"within the memory budget: {refused}; pass an explicit "
                                  "n_max") from None
    return n


def _require_state_memory(kind: SourceKind, n_max: int) -> None:
    """Refuse n_max pairs over the budget: pair n has n + 1 amplitudes, 1 if collinear."""
    pairs = n_max + 1
    amplitudes = pairs if kind is SourceKind.COLLINEAR_PDC else pairs * (pairs + 1) // 2
    require_memory(f"n_max={n_max}", STATE_BYTES_PER_AMPLITUDE * amplitudes, "the state")


def build_state(spec: SourceSpec) -> KetState:
    """The truncated Fock state of a PDC source spec.

    Pair n of collinear PDC has amplitude (-e^{i phi} tanh r)^n / cosh r on
    |n, n, 0, 0>; pair n of non-collinear PDC has (-1)^m tanh^n r / cosh^2 r on
    |n-m, m, m, n-m>, 0 <= m <= n, in increasing m.  Pairs n <= n_max are kept,
    up to the first whose amplitude underflows to 0; the weight beyond n_max
    goes into the analytic tail.
    """
    if spec.kind is SourceKind.COHERENT:
        raise ValueError("coherent sources are handled analytically; no Fock state")
    n_max = spec.resolve_n_max()
    collinear = spec.kind is SourceKind.COLLINEAR_PDC
    _require_state_memory(spec.kind, n_max)
    t = math.tanh(spec.r)
    if collinear:
        term, ratio = complex(1.0 / math.cosh(spec.r)), -cmath.exp(1j * spec.phi) * t
    else:
        term, ratio = 1.0 / math.cosh(spec.r) ** 2, t
    # the running product goes straight into the array it ends in, so nothing that grows
    # with n_max lies beside the counted arrays
    terms = np.empty(n_max + 1, dtype=complex if collinear else float)
    pairs = 0
    while pairs <= n_max and term != 0:
        terms[pairs] = term
        term *= ratio
        pairs += 1
    terms.resize(pairs, refcheck=False)  # gives back what an underflow left unused
    if collinear:
        occupations = np.zeros((4, pairs), dtype=np.int64)
        n = occupations[0]
        n[1:] = 1
        np.cumsum(n, out=n)  # n = 0, 1, 2, ... in place, with no temporary
        occupations[1] = n
        amplitudes = terms
    else:
        # row by row in place: (n - m, m, m, n - m), m = 0..n within pair n
        n = np.arange(pairs)
        occupations = np.empty((4, pairs * (pairs + 1) // 2), dtype=np.int64)
        pair, m = occupations[:2]
        pair[:] = np.repeat(n, n + 1)
        m[:] = np.arange(len(m))
        m -= np.repeat(n * (n + 1) // 2, n + 1)
        pair -= m
        occupations[2], occupations[3] = m, pair
        amplitudes = np.repeat(terms, n + 1)
        amplitudes[m % 2 == 1] *= -1.0
        amplitudes = amplitudes.astype(complex)
    return KetState(occupations, amplitudes, truncation_tail(spec.kind, spec.r, n_max))


def mean_photon_number(spec: SourceSpec) -> float:
    if spec.kind is SourceKind.COHERENT:
        return abs(spec.alpha) ** 2
    s2 = math.sinh(spec.r) ** 2
    return 2.0 * s2 if spec.kind is SourceKind.COLLINEAR_PDC else 4.0 * s2
