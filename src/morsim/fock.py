"""Exact algebra on truncated multimode bosonic Fock states.

Four physical modes (two spatial beams a, b; two polarizations H, V) in the
fixed canonical order aH < aV < bH < bV.  The medium conserves the photon
number of each beam, so a state is one complex array per sector (n_a, n_b),
of shape (n_a+1, n_b+1): entry [k_a, k_b] is the amplitude of
|n_a-k_a, k_a, n_b-k_b, k_b>.  Detector observables are diagonal in this
basis: normally ordered moments and projections onto one occupation.

The polarization rotation of one spatial pair acts on the rows (beam a) or
columns (beam b) of a sector.  It is generated by the tridiagonal J_y
operator, whose angle-independent real eigenbasis is computed once per
photon number and cached; evaluating the rotation in that basis is
backward stable and accurate to ~1e-14 even at 256 photons.  A
one-photon-at-a-time recurrence would not do: its rounding errors grow like
sqrt(C(n, n/2)), fatal beyond n ~ 50.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

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


def sector_occupations(n_a: int, n_b: int) -> tuple[np.ndarray, ...]:
    """Photon numbers (n_aH, n_aV, n_bH, n_bV) over sector (n_a, n_b): the
    a-beam grids have shape (n_a+1, 1), the b-beam ones (1, n_b+1), so all
    four broadcast against the sector's amplitude array."""
    k_a = np.arange(n_a + 1.0)[:, None]
    k_b = np.arange(n_b + 1.0)[None, :]
    return n_a - k_a, k_a, n_b - k_b, k_b


@dataclass(frozen=True)
class KetState:
    """Pure state as per-sector amplitude arrays plus analytic truncation tail.

    ``sectors`` maps (n_a, n_b) to the sector's (n_a+1, n_b+1) complex
    array (layout in the module docstring); absent sectors are empty.
    ``truncation_tail`` is the squared weight of the components discarded
    analytically at construction, so norm_squared() + truncation_tail == 1
    for source states; the channel keeps every amplitude and never changes
    it.  Instances are treated as immutable values; never mutate the arrays.
    """

    sectors: dict[tuple[int, int], np.ndarray]
    truncation_tail: float = 0.0

    @property
    def amplitudes(self) -> dict[Occupation, complex]:
        """The nonzero amplitudes keyed by occupation tuple, as a new dict."""
        out: dict[Occupation, complex] = {}
        for (n_a, n_b), x in self.sectors.items():
            k_a, k_b = np.nonzero(x)
            occs = zip((n_a - k_a).tolist(), k_a.tolist(), (n_b - k_b).tolist(), k_b.tolist())
            out.update(zip(occs, x[k_a, k_b].tolist()))
        return out

    def amplitude(self, occ: Occupation) -> complex:
        n_ah, n_av, n_bh, n_bv = _check_occupation(occ)
        x = self.sectors.get((n_ah + n_av, n_bh + n_bv))
        return 0j if x is None else complex(x[n_av, n_bv])

    def norm_squared(self) -> float:
        return float(sum(np.vdot(x, x).real for x in self.sectors.values()))


def _check_occupation(occ) -> Occupation:
    occ = tuple(int(n) for n in occ)
    if len(occ) != 4:
        raise ValueError(f"occupation must have 4 entries, got {len(occ)}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation counts must be nonnegative, got {occ}")
    return occ


def make_basis_state(occ) -> KetState:
    """Single-component normalized Fock state |occ>."""
    n_ah, n_av, n_bh, n_bv = _check_occupation(occ)
    x = np.zeros((n_ah + n_av + 1, n_bh + n_bv + 1), dtype=complex)
    x[n_av, n_bv] = 1.0
    return KetState(sectors={(n_ah + n_av, n_bh + n_bv): x})


def normally_ordered_moment(state: KetState, powers) -> float:
    """<prod_m a_m^dag^p a_m^p> for per-mode powers p.

    Diagonal in the Fock basis: each sector adds sum(w * |x|^2), where the
    weight grid w = w_a w_b is the product of the falling factorials
    n_m! / (n_m - p_m)! over the sector's occupation grids (zero where
    p_m > n_m), so the sum is w_a @ |x|^2 @ w_b.
    """
    powers = tuple(int(p) for p in powers)
    if len(powers) != 4 or any(p < 0 for p in powers):
        raise ValueError(f"powers must be 4 nonnegative integers, got {powers}")
    total = 0.0
    for (n_a, n_b), x in state.sectors.items():
        w = 1.0
        for n, p in zip(sector_occupations(n_a, n_b), powers):
            for j in range(p):
                w = w * (n - j)
        total += np.sum(w * (x.real ** 2 + x.imag ** 2))
    return float(total)


def projection_probability(state: KetState, occ) -> float:
    """|<occ|state>|^2 for a Fock basis target."""
    a = state.amplitude(occ)
    return a.real * a.real + a.imag * a.imag


_ROT_BASIS_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _rotation_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-decomposition of the lifted J_y generator on the n-photon subspace.

    Returns (lam, W, d) with exact integer spectrum lam = (-n, -n+2, ..., n),
    real orthogonal W and phases d = i^k, such that the lift of Ry(beta) is
    V diag(e^{i beta lam / 2}) V^dag with V = diag(d) W.
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
    _ROT_BASIS_CACHE[n] = (lam, W, 1j ** (k % 4))
    return _ROT_BASIS_CACHE[n]


def rotate_rows(x: np.ndarray, beta: float) -> np.ndarray:
    """Ry(beta) lifted to the pair subspace indexed by the rows of x:
    V (e^{i beta lam / 2} * V^dag x)."""
    lam, W, d = _rotation_basis(x.shape[0] - 1)
    # W is real: it multiplies the interleaved (re, im) floats of C-ordered
    # complex rows, so no complex copy of W is made
    y = (W.T @ np.multiply(d.conj()[:, None], x, order="C").view(np.float64)).view(complex)
    y *= np.exp(1j * (beta / 2.0) * lam)[:, None]
    return d[:, None] * (W @ y.view(np.float64)).view(complex)
