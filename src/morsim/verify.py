"""Self-verification suite: oracle equivalence and model invariants.

Each check reads the numeric Fock engine through the sampler every CLI sweep
prints from (``detection._shared_sampler``, behind ``_sampler`` and
``fringe_scan``), and the reference values through the closed-form table
(``detection.closed_form_scan``), the code behind the CLI's exact mode; it
compares the two (or asserts an invariant) and reports its worst observed
error.  A check that reads several sources in one geometry reads the channel's
one-photon matrices once per angle for all of them, and compares whole arrays.
The channel implementation is injectable so that tests can demonstrate the
suite actually catches a miswired medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .detection import (
    ObservableKind,
    ObservableSpec,
    _shared_sampler,
    closed_form_scan,
    dominant_frequency,
    fringe_scan,
    sensitivity_curve,
    visibility,
)
from .fock import Mode, make_basis_state
from .medium import Geometry, MediumSpec, apply_mor
from .sources import SourceKind, SourceSpec, build_state

COLLINEAR, NONCOLLINEAR = SourceKind.COLLINEAR_PDC, SourceKind.NONCOLLINEAR_PDC
# truncation depths with fourth-moment tail bounds far below the 1e-8
# relative target of the oracle-equivalence criterion
ORACLE_N_MAX = {0.01: 8, 0.1: 24, 0.5: 48, 1.0: 96, 1.3: 128}
ORACLE_R_VALUES = (0.1, 0.5, 1.0, 1.3)
REL_TOL = 1e-8
ABS_TOL = 1e-12
TWO_PHOTON = ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE)
GLAUBER = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_GLAUBER)
ND_VARIANCE = ObservableSpec(kind=ObservableKind.ND_VARIANCE)
PROJECTION = {kind: ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=target)
              for kind, target in ((COLLINEAR, (2, 2, 0, 0)), (NONCOLLINEAR, (1, 1, 1, 1)))}
# check name, source kind, observable, relative allowance against the closed form
ORACLE_ROWS = (
    ("oracle_two_photon_coincidence", COLLINEAR, TWO_PHOTON, REL_TOL),
    ("oracle_noncollinear_projection", NONCOLLINEAR, PROJECTION[NONCOLLINEAR], REL_TOL),
    ("oracle_collinear_projection", COLLINEAR, PROJECTION[COLLINEAR], REL_TOL),
    ("oracle_four_photon_counts", COLLINEAR, GLAUBER, REL_TOL),
    ("variance_cross_check", COLLINEAR, ND_VARIANCE, 1e-6),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _tolerance_ratio(engine, reference, rel: float = REL_TOL, abs_tol: float = ABS_TOL):
    """|engine - reference| divided by the allowed error at each point."""
    return np.abs(np.subtract(engine, reference)) / np.maximum(abs_tol, rel * np.abs(reference))


def _engine_values(apply_mor_fn, sources, media, observables) -> np.ndarray:
    """(len(sources), len(media), len(observables)): each observable on each source,
    all of one geometry, passed through each medium, read through
    ``_shared_sampler`` with the channel ``apply_mor_fn``: each source's Gram
    matrices and vacuum overlaps are built once, and each medium costs the channel
    on the one-photon probes once for all the sources."""
    geometry = Geometry.NONCOLLINEAR if sources[0].kind is NONCOLLINEAR else Geometry.COLLINEAR
    return _shared_sampler(sources, geometry, observables, apply_mor_fn)(media).transpose(1, 0, 2)


def check_oracle_equivalence(apply_mor_fn=apply_mor) -> list[CheckResult]:
    """Every ORACLE_ROWS observable on the engine against its closed form, on 33
    angles per interaction strength; the channel is read once per angle for each
    source kind, and serves all of its strengths and rows."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)
    media = [MediumSpec(theta=float(t)) for t in thetas]
    worst = dict.fromkeys((name for name, *_ in ORACLE_ROWS), 0.0)
    for kind in (COLLINEAR, NONCOLLINEAR):
        rows = [row for row in ORACLE_ROWS if row[1] is kind]
        # the non-collinear source is checked on its projection only, whose
        # four-photon sector n_max = 2 holds exactly
        sources = [SourceSpec(kind=kind, r=r, n_max=ORACLE_N_MAX[r] if kind is COLLINEAR else 2)
                   for r in ORACLE_R_VALUES]
        engine = _engine_values(apply_mor_fn, sources, media, [row[2] for row in rows])
        for source, values in zip(sources, engine):
            for (name, _, obs, rel), column in zip(rows, values.T):
                exact = closed_form_scan(source, thetas, obs).values
                worst[name] = max(worst[name], float(_tolerance_ratio(column, exact, rel).max()))
    return [
        CheckResult(name=name, passed=worst[name] <= 1.0, max_error=worst[name], tolerance=1.0,
                    detail=f"error / allowance; relative 1e{round(math.log10(rel))}, "
                           "absolute 1e-12 at zeros")
        for name, _, _, rel in ORACLE_ROWS
    ]


def check_two_photon_closed_form(apply_mor_fn=apply_mor) -> CheckResult:
    """Evolved |1,1> pair against the closed two-photon solution after
    removing the global phase."""
    pair_in = make_basis_state((1, 1, 0, 0))
    worst = 0.0
    for theta in map(float, np.linspace(0.0, 2.0 * math.pi, 100)):
        out = apply_mor_fn(pair_in, MediumSpec(theta=theta, theta_plus=0.37),
                           Geometry.COLLINEAR)
        got = [out.amplitude((2, 0, 0, 0)), out.amplitude((0, 2, 0, 0)),
               out.amplitude((1, 1, 0, 0))]
        expected = oracles.two_photon_pair_amplitudes(theta)
        overlap = sum(e * g for e, g in zip(expected, got))
        phase = overlap / abs(overlap)
        worst = max(worst, max(abs(g / phase - e) for g, e in zip(got, expected)))
    return CheckResult(name="two_photon_closed_form_oracle", passed=worst < 1e-12,
                       max_error=worst, tolerance=1e-12,
                       detail="max amplitude error over 100 angles, phase stripped")


def check_fringe_frequencies() -> CheckResult:
    """The factor-of-four: dominant fringe frequencies 1 : 2 : 4 for coherent
    intensity, two-photon coincidence and the four-photon projection, read
    off each fringe's exact Fourier coefficients."""
    coherent = SourceSpec(kind=SourceKind.COHERENT, alpha=1.0)
    intensity = ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH)
    f_coh = dominant_frequency(coherent, Geometry.COLLINEAR, intensity)
    f_two = dominant_frequency(SourceSpec(kind=COLLINEAR, r=0.5, n_max=48),
                               Geometry.COLLINEAR, TWO_PHOTON)
    f_four = dominant_frequency(SourceSpec(kind=NONCOLLINEAR, r=0.5, n_max=8),
                                Geometry.NONCOLLINEAR, PROJECTION[NONCOLLINEAR])
    mismatches = int(f_coh != 1) + int(f_two != 2 * f_coh) + int(f_four != 4 * f_coh)
    return CheckResult(name="fringe_frequency_factor_of_four", passed=mismatches == 0,
                       max_error=float(mismatches), tolerance=0.0,
                       detail=f"frequencies {f_coh}:{f_two}:{f_four}, expected 1:2:4")


def check_visibility_curve() -> list[CheckResult]:
    """Two-photon visibility, of the closed-form fringe and of the engine's,
    against its closed form, the closed-form curve's monotonicity, and the
    weak-pumping limit of the four-photon visibility."""
    # Python floats once, for the 64 scans of this grid
    thetas = tuple(np.linspace(0.0, math.pi, 513).tolist())
    r_grid = np.linspace(0.01, 3.0, 60)
    worst_dev = 0.0
    monotone_violations = 0
    previous = None
    for r in map(float, r_grid):
        v = visibility(closed_form_scan(SourceSpec(kind=COLLINEAR, r=r), thetas, TWO_PHOTON)).v
        worst_dev = max(worst_dev, abs(v - oracles.two_photon_visibility_closed(r)))
        if previous is not None and v >= previous:
            monotone_violations += 1
        previous = v
    for r in ORACLE_R_VALUES:
        source = SourceSpec(kind=COLLINEAR, r=r, n_max=ORACLE_N_MAX[r])
        v = visibility(fringe_scan(source, thetas, Geometry.COLLINEAR, TWO_PHOTON)).v
        worst_dev = max(worst_dev, abs(v - oracles.two_photon_visibility_closed(r)))
    v4 = visibility(closed_form_scan(SourceSpec(kind=COLLINEAR, r=0.01), thetas, GLAUBER)).v
    return [
        CheckResult(name="visibility_two_photon_closed_form", passed=worst_dev < 1e-6,
                    max_error=worst_dev, tolerance=1e-6,
                    detail="max |v - 1/(1+2 tanh^2 r)|, closed form on r in [0.01, 3], "
                           "engine at r = 0.1 to 1.3"),
        CheckResult(name="visibility_two_photon_monotone", passed=monotone_violations == 0,
                    max_error=float(monotone_violations), tolerance=0.0,
                    detail="count of non-decreasing steps in r"),
        CheckResult(name="visibility_four_photon_weak_pumping", passed=v4 > 0.999,
                    max_error=1.0 - v4, tolerance=1e-3,
                    detail="1 - v at r = 0.01"),
    ]


def check_sensitivity_scaling() -> list[CheckResult]:
    """Log-log slope of the minimum detectable angle against the mean photon
    number: -1/2 for coherent light, -1 for collinear PDC."""
    mean_n = np.geomspace(10.0, 1.0e4, 25)
    slope_coh = sensitivity_curve(SourceKind.COHERENT, mean_n)[1]
    slope_col = sensitivity_curve(COLLINEAR, mean_n)[1]
    return [
        CheckResult(name="sensitivity_slope_coherent", passed=abs(slope_coh + 0.5) <= 0.02,
                    max_error=abs(slope_coh + 0.5), tolerance=0.02,
                    detail=f"slope {slope_coh:.4f}, shot-noise target -0.5"),
        CheckResult(name="sensitivity_slope_collinear", passed=abs(slope_col + 1.0) <= 0.02,
                    max_error=abs(slope_col + 1.0), tolerance=0.02,
                    detail=f"slope {slope_col:.4f}, Heisenberg target -1.0"),
    ]


def check_glauber_vs_projection(apply_mor_fn=apply_mor) -> list[CheckResult]:
    """Four-photon counting dominates the post-selected projection, and the
    two coincide at weak pumping; both are read off one reading of the channel
    per angle, which serves every strength."""
    thetas = np.linspace(0.0, math.pi, 17)
    media = [MediumSpec(theta=float(t)) for t in thetas]
    sources = [SourceSpec(kind=COLLINEAR, r=r, n_max=ORACLE_N_MAX[r])
               for r in (0.01, 0.1, 0.5, 1.0, 1.3)]
    glauber, proj = _engine_values(apply_mor_fn, sources, media,
                                   (GLAUBER, PROJECTION[COLLINEAR])).transpose(2, 0, 1)
    gap = 4.0 * proj - glauber
    worst_gap = max(0.0, float(gap.max()))
    violations = np.count_nonzero(gap > 1e-12)
    # the ratio is 0/0 where (3 cos^2 theta - 1) vanishes; stay clear of it, at r = 0.01
    clear = [abs(3.0 * math.cos(medium.theta) ** 2 - 1.0) >= 0.4 for medium in media]
    worst_ratio = max(0.0, float(np.abs(glauber[0, clear] / (4.0 * proj[0, clear]) - 1.0).max()))
    return [
        CheckResult(name="glauber_dominates_projection", passed=violations == 0,
                    max_error=worst_gap, tolerance=1e-12,
                    detail="max of 4 P(|2,2>) - I_HHVV over the grid"),
        CheckResult(name="glauber_projection_ratio_weak_pumping", passed=worst_ratio < 0.01,
                    max_error=worst_ratio, tolerance=0.01,
                    detail="max |I_HHVV / 4 P - 1| at r = 0.01"),
    ]


def check_normalization_and_invariance(apply_mor_fn=apply_mor) -> list[CheckResult]:
    """Source norm + tail = 1, channel unitarity, and invariance of the
    observables under the global phase angle and the pump phase."""
    # the pump phase enters the collinear amplitudes only
    sources = [SourceSpec(kind=kind, r=r, phi=0.4, n_max=n_max)
               for kind in (COLLINEAR, NONCOLLINEAR)
               for r in (0.0, 0.35, 0.8, 1.2, 1.6, 2.0) for n_max in (1, 4, 12, 40)]
    worst_norm = max(abs(state.norm_squared() + state.truncation_tail - 1.0)
                     for state in map(build_state, sources))

    worst_unitary = 0.0
    for state, geometry in (
        (build_state(SourceSpec(kind=COLLINEAR, r=1.0, n_max=48)), Geometry.COLLINEAR),
        (build_state(SourceSpec(kind=NONCOLLINEAR, r=0.9, n_max=10)), Geometry.NONCOLLINEAR),
        (make_basis_state((1, 1, 1, 1)), Geometry.NONCOLLINEAR),
    ):
        out = apply_mor_fn(state, MediumSpec(theta=0.9, theta_plus=0.5), geometry)
        worst_unitary = max(worst_unitary, abs(
            (out.norm_squared() + out.truncation_tail)
            - (state.norm_squared() + state.truncation_tail)))

    def probe(sources, media) -> np.ndarray:
        """The observables on each source at each medium, one row per run entry."""
        values = _engine_values(apply_mor_fn, sources, media,
                                (TWO_PHOTON, GLAUBER, PROJECTION[sources[0].kind]))
        return values.reshape(-1, values.shape[2])

    # each run varies only theta_plus, or only the pump phase
    runs = (probe([SourceSpec(kind=NONCOLLINEAR, r=0.9, n_max=8)],
                  [MediumSpec(theta=0.8, theta_plus=p) for p in (0.0, 0.7, math.pi)]),
            probe([SourceSpec(kind=COLLINEAR, r=0.9, phi=phi, n_max=48) for phi in (0.0, 1.3)],
                  [MediumSpec(theta=0.8)]))
    worst_phase = max(float(np.abs(run[1:] - run[0]).max()) for run in runs)

    return [
        CheckResult(name="source_norm_plus_tail", passed=worst_norm < 1e-12,
                    max_error=worst_norm, tolerance=1e-12,
                    detail="max |norm^2 + tail - 1| over sources"),
        CheckResult(name="channel_norm_preservation", passed=worst_unitary < 1e-12,
                    max_error=worst_unitary, tolerance=1e-12,
                    detail="max norm drift through the medium"),
        CheckResult(name="phase_invariance", passed=worst_phase < 1e-12,
                    max_error=worst_phase, tolerance=1e-12,
                    detail="max observable change under theta_plus / pump phase"),
    ]


def run_all(apply_mor_fn=apply_mor) -> list[CheckResult]:
    results = []
    results.extend(check_oracle_equivalence(apply_mor_fn))
    results.append(check_two_photon_closed_form(apply_mor_fn))
    results.append(check_fringe_frequencies())
    results.extend(check_visibility_curve())
    results.extend(check_sensitivity_scaling())
    results.extend(check_glauber_vs_projection(apply_mor_fn))
    results.extend(check_normalization_and_invariance(apply_mor_fn))
    return results
