"""Measured quantities: coincidences, projections, fringes, visibility,
number-difference variance and the minimum detectable rotation angle.

Moments and projections are read in the Heisenberg picture.  The channel is passive linear
optics, so it turns each annihilator into U^dag a_k U = sum_i T[k, i] a_i with
T the 4 x 4 matrix of its one-photon sector, which is read off the channel
itself, two channel calls per angle.  A normally ordered moment of K
annihilators is then v^dag G v: G[S, S'] = <a_S psi | a_S' psi> over the
multisets S of K modes is built once per source, and v holds the coefficients
of the expanded product of K rows of T.  The number-difference variance is
m^dag H m with H the Gram matrix of the centred bilinears
(a_i^dag a_j - <a_i^dag a_j>) psi and m the entries of T^dag Z T.  U leaves the
vacuum alone, so a projection onto |t> is
|<0|prod_k (U^dag a_k U)^t_k psi>|^2 / t! = |v . g|^2 / t!, g_S = <0|a_S psi>.

``_sample`` takes a batch of sources and media: it reads the stack of T for all
the media once, then evaluates each observable on each source over the whole
stack in one vectorised pass, with the bits each T gets alone.  Every sweep reads
the engine through it, and a ``verify`` check through it or its ``_read``,
sharing one stack among the sources it compares at the same angles.  A fringe of
degree K is fixed by its samples at 2K + 2 nodes: ``node_samples`` takes them for
a batch of sources, and ``fringe_scan``, ``dominant_frequency`` and ``visibility``
read every fringe off them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from . import oracles
from .fock import (
    A_MODES,
    KetState,
    Mode,
    Occupation,
    annihilator_coefficients,
    centred_bilinear_gram,
    lowered_gram,
    vacuum_overlaps,
)
from .medium import MediumSpec, apply_mor
from .sources import (
    SourceKind,
    SourceSpec,
    build_state,
    mean_photon_number,
)


class ObservableKind(str, Enum):
    INTENSITY = "intensity"
    TWO_PHOTON_COINCIDENCE = "two_photon_coincidence"
    FOUR_PHOTON_GLAUBER = "four_photon_glauber"
    FOUR_PHOTON_PROJECTION = "four_photon_projection"
    ND_VARIANCE = "nd_variance"


@dataclass(frozen=True)
class ObservableSpec:
    """Which detector quantity to compute.

    ``mode`` selects the mode for intensities, ``pair`` the detector pair for
    coincidence/variance kinds, ``target`` the Fock occupation (total photon
    number 4) for projection probabilities.
    """

    kind: ObservableKind
    mode: Mode | None = None
    pair: tuple[Mode, Mode] = A_MODES
    target: Occupation | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ObservableKind(self.kind))
        m1, m2 = self.pair
        if m1 == m2:
            raise ValueError("observable pair must use two distinct modes")
        if self.kind is ObservableKind.INTENSITY and self.mode is None:
            raise ValueError("intensity observable needs a mode")
        if self.mode is not None:
            object.__setattr__(self, "mode", Mode(self.mode))
        if self.kind is ObservableKind.FOUR_PHOTON_PROJECTION:
            if self.target is None:
                raise ValueError("projection observable needs a target occupation")
            target = tuple(int(n) for n in self.target)
            if len(target) != 4 or any(n < 0 for n in target):
                raise ValueError(f"invalid projection target {self.target}")
            if sum(target) != 4:
                raise ValueError("projection target must contain 4 photons total")
            object.__setattr__(self, "target", target)


# photons each detector of a moment observable absorbs: the intensity's one
# mode, or both modes of the pair
_MOMENT_POWERS = {
    ObservableKind.INTENSITY: 1,
    ObservableKind.TWO_PHOTON_COINCIDENCE: 1,
    ObservableKind.FOUR_PHOTON_GLAUBER: 2,
}


def _detector_powers(obs: ObservableSpec) -> list[int] | None:
    """Per-mode powers of a moment observable; None for the other kinds."""
    power = _MOMENT_POWERS.get(obs.kind)
    if power is None:
        return None
    modes = (obs.mode,) if obs.kind is ObservableKind.INTENSITY else obs.pair
    return [power if m in modes else 0 for m in Mode]


def _fringe_degree(obs: ObservableSpec) -> int:
    """Highest harmonic of theta in the observable's fringe: the number of
    photons its detectors absorb.  The channel conserves photon number per
    beam, so in the Heisenberg picture each mode operator is a combination
    of cos(theta/2) and sin(theta/2) and the global phases cancel: a moment
    or a projection of K annihilators has degree K, and the number-difference
    variance 2, whatever the truncation, theta_plus or pump phase."""
    if obs.kind is ObservableKind.ND_VARIANCE:
        return 2
    return len(_annihilated_modes(obs))


def _projection_depth(kind: SourceKind, target: Occupation) -> int:
    """Photon pairs a PDC source must keep to reach the target's (n_a, n_b)
    sector: a collinear pair puts both photons in beam a, a non-collinear
    pair one in each beam."""
    n_a, n_b = target[0] + target[1], target[2] + target[3]
    return max(n_a // 2 if kind is SourceKind.COLLINEAR_PDC else max(n_a, n_b), 1)


@cache
def _one_photon_probes() -> tuple[KetState, KetState]:
    """Probe j holds one photon in mode j of beam a and one in mode j of beam b,
    so that the channel's image of probe j holds column j of T on beam a and
    column j + 2 on beam b.  The pair serves every source: where a source leaves
    the b beam empty, T's b block meets only zero Gram entries."""
    return tuple(KetState(np.eye(4, dtype=np.int64)[:, [j, j + 2]], np.ones(2, dtype=complex))
                 for j in (0, 1))


def _one_photon_matrices(media) -> np.ndarray:
    """The (len(media), 4, 4) stack of T with U^dag a_k U = sum_i T[k, i] a_i, one per
    medium: T[k, i] = <1_k|U|1_i>, read off the channel's images of the one-photon
    probes, each amplitude by the mode its occupation holds.  Each medium, in order,
    costs one channel call per probe."""
    ts = np.zeros((len(media), 4, 4), dtype=complex)
    probes = _one_photon_probes()
    for t, medium in zip(ts, media):
        for j, probe in enumerate(probes):
            image = apply_mor(probe, medium)
            modes = image.occupations.argmax(axis=0)
            t[modes, modes & 2 | j] = image.amplitudes
    return ts


def _annihilated_modes(obs: ObservableSpec) -> list[int]:
    """The modes of a moment's or projection's annihilators, each as often as its power."""
    return [m for m, p in enumerate(_detector_powers(obs) or obs.target) for _ in range(p)]


def _nd_variance(ts: np.ndarray, pair, expectations: np.ndarray, centred: np.ndarray,
                 norm: float) -> np.ndarray:
    """<D^2> - <D>^2 of D = N_{pair[1]} - N_{pair[0]} on the evolved state, per T of the
    stack, from U^dag D U = sum_ij M_ij a_i^dag a_j, M = T^dag Z T: the squared norm of
    (U^dag D U - <D>) psi is m^dag H m, and (1 - |psi|^2) <D>^2 completes it for a
    truncated state."""
    z = np.zeros(4)
    z[pair[0]], z[pair[1]] = -1.0, 1.0
    m = (ts.conj().transpose(0, 2, 1) @ (z[:, None] * ts)).reshape(-1, 1, 16)
    mean = (m @ expectations.reshape(16, 1)).real
    variance = (m.conj() @ centred @ m.transpose(0, 2, 1)).real + (1.0 - norm) * mean * mean
    return variance.ravel()


def _read(state: KetState, observables, ts: np.ndarray) -> np.ndarray:
    """(len(ts), len(observables)): the value of each observable on the state passed
    through the channel whose one-photon matrix is T, for every T of the (M, 4, 4)
    stack ts at once.  The Gram matrices and vacuum overlaps the observables need are
    built once.  Each value is a stacked (1, S) @ (S, S) @ (S, 1) product, which gives
    every T the bits it gets alone."""
    # the variance centres its bilinears on the one-photon Gram matrix <a_i^dag a_j>
    sizes = {1 if obs.kind is ObservableKind.ND_VARIANCE else len(_annihilated_modes(obs))
             for obs in observables if obs.kind is not ObservableKind.FOUR_PHOTON_PROJECTION}
    grams = {size: lowered_gram(state, size) for size in sizes}
    if any(obs.kind is ObservableKind.ND_VARIANCE for obs in observables):
        centred, norm = centred_bilinear_gram(state, grams[1]), state.norm_squared()
    if any(obs.kind is ObservableKind.FOUR_PHOTON_PROJECTION for obs in observables):
        overlaps = vacuum_overlaps(state, 4)[:, None]
    values = np.empty((len(ts), len(observables)))
    for k, obs in enumerate(observables):
        if obs.kind is ObservableKind.ND_VARIANCE:
            values[:, k] = _nd_variance(ts, obs.pair, grams[1], centred, norm)
            continue
        modes = _annihilated_modes(obs)
        v = annihilator_coefficients(ts[:, modes])[:, None, :]
        if obs.kind is ObservableKind.FOUR_PHOTON_PROJECTION:
            a = (v @ overlaps)[:, 0, 0] / math.sqrt(math.prod(map(math.factorial, obs.target)))
            values[:, k] = a.real * a.real + a.imag * a.imag
        else:
            values[:, k] = (v.conj() @ grams[len(modes)] @ v.transpose(0, 2, 1))[:, 0, 0].real
    return values


def _sample(sources, observables, media) -> np.ndarray:
    """(len(sources), len(media), len(observables)): the observables on each source
    passed through each medium.

    Coherent light is read off its closed forms, one call per observable.  The
    channel's one-photon matrices are read once per medium, in order, and serve every
    PDC source.  Each PDC source's state is then built and read in turn, so a batch
    holds one state at a time; projections alone build it only to the deepest target's
    depth, so they are exact at any r.  ``_read`` evaluates every observable over the
    whole stack in one vectorised pass.
    Tests substitute the channel at ``apply_mor``, which every read looks up at the call."""
    only_projections = all(obs.kind is ObservableKind.FOUR_PHOTON_PROJECTION
                           for obs in observables)

    def built(source):
        if only_projections:
            depth = max(_projection_depth(source.kind, obs.target) for obs in observables)
            source = dataclasses.replace(source, n_max=min(source.n_max or depth, depth))
        return build_state(source)

    if any(source.is_pdc for source in sources):
        ts = _one_photon_matrices(media)
    thetas = [medium.theta for medium in media]
    return np.stack([
        _read(built(source), observables, ts) if source.is_pdc
        else np.array([closed_form_scan(source, thetas, obs) for obs in observables]).T
        for source in sources])


def _nodes(degree: int) -> list[float]:
    """The N = 2K + 2 nodes pi j / (K + 1) whose samples fix a fringe of degree K."""
    return (np.pi * np.arange(2 * degree + 2) / (degree + 1)).tolist()


def node_samples(sources, obs: ObservableSpec, theta_plus: float = 0.0,
                 exact: bool = False) -> np.ndarray:
    """(len(sources), 2K + 2): the observable's fringe on each source at the nodes of its
    degree K, which fix it.  Numeric samples come from one ``_sample`` call, which reads
    the channel once per node for the whole batch; ``exact`` takes the closed forms at
    the same nodes, which do not see theta_plus."""
    nodes = _nodes(_fringe_degree(obs))
    if exact:
        return np.array([closed_form_scan(source, nodes, obs) for source in sources])
    media = [MediumSpec(theta=t, theta_plus=theta_plus) for t in nodes]
    return _sample(sources, [obs], media)[:, :, 0]


def _fourier(samples: np.ndarray) -> np.ndarray:
    """The exact Fourier coefficients c_0..c_K of a fringe of degree K from its 2K + 2
    samples at ``_nodes(K)``, along the last axis: the fringe is
    c_0 + 2 Re sum_m c_m e^{i m theta}."""
    return np.fft.rfft(samples)[..., :-1] / samples.shape[-1]


def _finite_grid(thetas, theta_plus: float) -> tuple[float, ...]:
    """The grid as floats, refused with ``MediumSpec``'s message where a pass point by
    point would refuse it: theta at the first point, then theta_plus, then theta."""
    grid = tuple(map(float, thetas))
    if grid:
        MediumSpec(theta=grid[0], theta_plus=theta_plus)
    if not all(map(math.isfinite, grid)):
        MediumSpec(theta=next(t for t in grid if not math.isfinite(t)))
    return grid


def fringe_scan(source: SourceSpec, thetas, obs: ObservableSpec,
                theta_plus: float = 0.0) -> np.ndarray:
    """The observable's values over a nonempty theta grid.

    Coherent sources are evaluated in closed form.  PDC sources use the
    truncated Fock state through ``_sample``: moments carry the source's
    documented truncation error, projections are exact because only the
    source's four-photon amplitudes contribute.

    A PDC fringe is a trigonometric polynomial in theta of degree
    K = ``_fringe_degree(obs)`` (at most 4), so a grid longer than
    N = 2K + 2 points costs N samples: the ``node_samples`` at the
    caller's ``theta_plus``, and the polynomial through them, whose
    coefficients the DFT of the samples gives exactly, is evaluated on the
    grid.  N is even so that 0 and pi are nodes; a grid angle equal to a
    node takes that node's sample.  Shorter grids are evaluated point by
    point.  Either way ``_sample`` is called once.
    """
    grid = _finite_grid(thetas, theta_plus)
    if not grid:
        raise ValueError("theta grid must be nonempty")
    nodes = _nodes(_fringe_degree(obs))
    if source.kind is SourceKind.COHERENT or len(grid) <= len(nodes):
        media = [MediumSpec(theta=t, theta_plus=theta_plus) for t in grid]
        return _sample([source], [obs], media)[0, :, 0]
    samples = node_samples([source], obs, theta_plus)[0]
    coefficients = _fourier(samples)
    harmonics = np.exp(1j * np.outer(grid, np.arange(1, len(coefficients))))
    values = coefficients[0].real + 2.0 * (harmonics @ coefficients[1:]).real
    at_node = dict(zip(nodes, samples.tolist()))
    return np.array([at_node.get(t, v) for t, v in zip(grid, values.tolist())])


def dominant_frequency(source: SourceSpec, obs: ObservableSpec) -> int:
    """Dominant integer frequency (cycles per 2 pi) of the observable's fringe:
    the harmonic m >= 1 with the largest exact Fourier coefficient |c_m|, or 0
    for a fringe that does not oscillate, where no |c_m| with m >= 1 exceeds
    1e-13 of the largest |c_m|, the rounding scale the band-limit tests allow.
    The global phase theta_plus does not move the spectrum.  Raises ValueError
    where a coefficient is not finite."""
    magnitudes = np.abs(_fourier(node_samples([source], obs)[0]))
    if not np.isfinite(magnitudes).all():
        raise ValueError("the fringe's Fourier coefficients are not finite")
    if magnitudes[1:].max() <= 1e-13 * magnitudes.max():
        return 0
    return int(np.argmax(magnitudes[1:]) + 1)


def closed_form_scan(source: SourceSpec, thetas, obs: ObservableSpec) -> np.ndarray:
    """The observable's closed form from ``oracles`` over a theta grid; raises
    ValueError where the table has none, and for a pair observable on any
    detector pair but aH/aV, the one pair the table's forms describe."""
    if obs.kind not in (ObservableKind.INTENSITY, ObservableKind.FOUR_PHOTON_PROJECTION) \
            and set(obs.pair) != set(A_MODES):
        raise ValueError(f"closed forms describe the AH/AV detector pair, not "
                         f"{'/'.join(Mode(m).name for m in obs.pair)}")
    grid = tuple(map(float, thetas))
    detail = obs.mode.name if obs.kind is ObservableKind.INTENSITY else obs.target
    # only coherent forms take alpha; squaring it for PDC could overflow for nothing
    alpha_sq = abs(source.alpha) ** 2 if source.kind is SourceKind.COHERENT else None
    return np.array(oracles.closed_form(source.kind.value, obs.kind.value, detail, grid,
                                        r=source.r, alpha_sq=alpha_sq), dtype=float)


def visibility(samples) -> float:
    """(max - min) / (max + min) of a nonnegative fringe over all theta, from its 2K + 2
    ``node_samples``; NaN where a sample is.  A fringe is even, so it is
    p(cos theta) with p = sum_m a_m T_m: its extremes lie at the nodes 0 and pi or at
    roots of p'.  Each root enters by its real part, clipped to [-1, 1]: a spare candidate
    lies between the extremes, and a multiple root that rounding splits off the real axis
    still counts.  A minimum below 0 is rounding and reads as 0.  Raises ValueError for a
    fringe that is identically zero or whose largest sample is subnormal, as such samples
    have lost their digits."""
    samples = np.asarray(samples, dtype=float)
    degree = len(samples) // 2 - 1
    if samples.shape != (2 * degree + 2,) or degree < 1:
        raise ValueError(f"visibility needs the 2K + 2 node samples of a fringe of degree "
                         f"K >= 1, got {samples.size}")
    if not np.isfinite(samples).all():
        return math.nan
    peak = np.abs(samples).max()
    if 0.0 < peak < np.finfo(float).tiny:
        raise ValueError(f"visibility undefined: the fringe's largest sample {peak:.3g} "
                         "is subnormal")
    # scaled to 1, a fringe of tiny samples keeps the digits of its roots
    samples = samples / (peak or 1.0)
    a = _fourier(samples).real
    a[1:] *= 2.0
    # T_0 .. T_K in ascending powers of x, from T_{m+1} = 2x T_m - T_{m-1}
    chebyshev = list(np.eye(degree + 1)[:2])
    while len(chebyshev) <= degree:
        chebyshev.append(2.0 * np.roll(chebyshev[-1], 1) - chebyshev[-2])
    p = (a @ chebyshev)[::-1]
    x = np.clip(np.roots(np.polyder(p)).real, -1.0, 1.0)
    candidates = np.concatenate([samples[[0, degree + 1]], np.polyval(p, x)])
    top, bottom = float(candidates.max()), max(float(candidates.min()), 0.0)
    if top + bottom == 0.0:
        raise ValueError("visibility undefined: fringe is identically zero")
    return (top - bottom) / (top + bottom)


def min_detectable_angle(source: SourceSpec) -> float:
    """Smallest theta > 0 with unit number-difference fluctuation.

    Coherent: arcsin(1/|alpha|).  Collinear PDC: arcsin(1/sinh 2r).  Requires
    a mean photon number above one.  The variance, not the error propagated
    through the mean, sets theta_m: collinear PDC's mean number difference
    does not depend on theta.
    """
    if source.kind is SourceKind.NONCOLLINEAR_PDC:
        raise ValueError("minimum detectable angle is defined for coherent and "
                         "collinear PDC sources")
    n_mean = mean_photon_number(source)
    if n_mean <= 1.0:
        raise ValueError("no solution: the number-difference fluctuation never "
                         f"reaches 1 for mean photon number {n_mean:g} <= 1")
    if source.kind is SourceKind.COHERENT:
        return math.asin(1.0 / abs(source.alpha))
    return math.asin(1.0 / math.sinh(2.0 * source.r))


def sensitivity_curve(kind, mean_n) -> tuple[list[float], float]:
    """theta_m of a coherent or collinear PDC source at each mean photon number,
    and the log-log slope of theta_m against the mean photon number."""
    kind = SourceKind(kind)
    if kind is SourceKind.NONCOLLINEAR_PDC:
        raise ValueError("sensitivity sweep supports coherent and collinear sources")
    theta_m = []
    for n in map(float, mean_n):
        if kind is SourceKind.COHERENT:
            source = SourceSpec(kind=kind, alpha=math.sqrt(n))
        else:
            source = SourceSpec(kind=kind, r=math.asinh(math.sqrt(n / 2.0)))
        theta_m.append(min_detectable_angle(source))
    coefficients, _, rank, _, _ = np.polyfit(np.log(mean_n), np.log(theta_m), 1, full=True)
    if rank < 2:
        raise ValueError("the mean photon numbers lie too close together to fit a log-log slope")
    return theta_m, float(coefficients[0])
