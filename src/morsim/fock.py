"""Exact algebra on truncated multimode bosonic Fock states.

Four physical modes (two spatial beams a, b; two polarizations H, V) in the
fixed canonical order aH < aV < bH < bV.  States are sparse maps from
occupation tuples to complex amplitudes.  Detector observables are diagonal
in this basis: normally ordered moments and projections onto one occupation.

The polarization rotation of one spatial pair conserves its photon number n,
so it acts on the n-photon pair subspace, indexed by k <-> |n-k, k> (k
photons in the V mode).  There it is generated by the tridiagonal J_y
operator, whose angle-independent eigenbasis is computed once per n and
cached; ``_ry_lift_columns`` evaluates the rotation in that basis, which is
backward stable and accurate to ~1e-14 even at 256 photons.  A
one-photon-at-a-time recurrence would not do: its rounding errors grow like
sqrt(C(n, n/2)), fatal beyond n ~ 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

PRUNE_TOL = 1e-15

Occupation = tuple[int, int, int, int]


class Mode(IntEnum):
    """The four optical modes, totally ordered for canonical layouts."""

    AH = 0
    AV = 1
    BH = 2
    BV = 3

    @property
    def spatial(self) -> str:
        return "a" if self < Mode.BH else "b"

    @property
    def polarization(self) -> str:
        return "H" if self in (Mode.AH, Mode.BH) else "V"


A_MODES = (Mode.AH, Mode.AV)


@dataclass(frozen=True)
class KetState:
    """Sparse pure state over occupation tuples plus analytic truncation tail.

    ``amplitudes`` maps (n_aH, n_aV, n_bH, n_bV) to a complex amplitude;
    ``truncation_tail`` is the squared weight of components discarded
    analytically at construction (plus anything pruned during evolution), so
    norm_squared() + truncation_tail == 1 for source states.  Instances are
    treated as immutable values; never mutate the dict after construction.
    """

    amplitudes: dict[Occupation, complex]
    truncation_tail: float = 0.0

    def amplitude(self, occ: Occupation) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def norm_squared(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag) for a in self.amplitudes.values())


def _check_occupation(occ) -> Occupation:
    occ = tuple(int(n) for n in occ)
    if len(occ) != 4:
        raise ValueError(f"occupation must have 4 entries, got {len(occ)}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation counts must be nonnegative, got {occ}")
    return occ


def make_basis_state(occ) -> KetState:
    """Single-component normalized Fock state |occ>."""
    return KetState(amplitudes={_check_occupation(occ): 1.0 + 0j})


def normally_ordered_moment(state: KetState, powers) -> float:
    """<prod_m a_m^dag^p a_m^p> for per-mode powers p.

    Diagonal in the Fock basis: sum over components of |amp|^2 times the
    falling factorials n_m! / (n_m - p_m)!.
    """
    powers = tuple(int(p) for p in powers)
    if len(powers) != 4 or any(p < 0 for p in powers):
        raise ValueError(f"powers must be 4 nonnegative integers, got {powers}")
    total = 0.0
    for occ, amp in state.amplitudes.items():
        w = 1.0
        for n, p in zip(occ, powers):
            if p == 0:
                continue
            if p > n:
                w = 0.0
                break
            w *= math.perm(n, p)
        if w:
            total += (amp.real * amp.real + amp.imag * amp.imag) * w
    return total


def projection_probability(state: KetState, occ) -> float:
    """|<occ|state>|^2 for a Fock basis target."""
    a = state.amplitude(_check_occupation(occ))
    return a.real * a.real + a.imag * a.imag


_ROT_BASIS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rotation_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of the lifted J_y generator on the n-photon subspace.

    Returns (lam, V) with exact integer spectrum lam = (-n, -n+2, ..., n) and
    unitary V such that the lift of Ry(beta) equals V diag(e^{i beta lam / 2}) V^dag.
    """
    cached = _ROT_BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    k = np.arange(n + 1)
    T = np.zeros((n + 1, n + 1))
    t = np.sqrt((n - k[1:] + 1.0) * k[1:])
    T[k[1:], k[1:] - 1] = t
    T[k[1:] - 1, k[1:]] = t
    _, W = np.linalg.eigh(T)
    lam = np.arange(-n, n + 1, 2, dtype=float)
    V = np.ascontiguousarray((1j ** (k % 4))[:, None] * W)
    _ROT_BASIS_CACHE[n] = (lam, V)
    return lam, V


def _ry_lift_columns(beta: float, n: int, columns: np.ndarray) -> np.ndarray:
    """Selected columns of the Ry(beta) lift, shape (n+1, len(columns))."""
    lam, V = _rotation_basis(n)
    rows = np.exp(1j * (beta / 2.0) * lam)[None, :] * V[columns, :].conj()
    return V @ rows.T


def _prune(amps: dict, tail: float) -> KetState:
    kept: dict[Occupation, complex] = {}
    for occ, amp in amps.items():
        mag = abs(amp)
        if mag < PRUNE_TOL:
            tail += mag * mag
        else:
            kept[occ] = amp
    return KetState(amplitudes=kept, truncation_tail=tail)
