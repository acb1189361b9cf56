"""Self-verification suite: oracle equivalence and model invariants.

Each check compares the numeric Fock engine against the independent closed
forms (or asserts an invariant) and reports its worst observed error.  The
channel implementation is injectable so that tests can demonstrate the suite
actually catches a miswired medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .detection import (
    FringeSeries,
    ObservableKind,
    ObservableSpec,
    _measure,
    dominant_frequency,
    fringe_scan,
    min_detectable_angle,
    visibility,
)
from .fock import (
    make_basis_state,
    normally_ordered_moment,
    projection_probability,
)
from .medium import Geometry, MediumSpec, apply_mor
from .sources import SourceKind, SourceSpec, collinear_state, noncollinear_state

# truncation depths with fourth-moment tail bounds far below the 1e-8
# relative target of the oracle-equivalence criterion
ORACLE_N_MAX = {0.01: 8, 0.1: 24, 0.5: 48, 1.0: 96, 1.3: 128}
ORACLE_R_VALUES = (0.1, 0.5, 1.0, 1.3)
REL_TOL = 1e-8
ABS_TOL = 1e-12
ND_VARIANCE = ObservableSpec(kind=ObservableKind.ND_VARIANCE)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _tolerance_ratio(engine: float, reference: float,
                     rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> float:
    """|engine - reference| divided by the allowed error at this point."""
    return abs(engine - reference) / max(abs_tol, rel * abs(reference))


def check_oracle_equivalence(apply_mor_fn=apply_mor) -> list[CheckResult]:
    """Numeric fringes against the four closed-form curves plus the variance
    identity, on 33 angles per interaction strength."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)
    worst = {"two": 0.0, "non_proj": 0.0, "col_proj": 0.0, "four": 0.0, "var": 0.0}

    for r in ORACLE_R_VALUES:
        n_max = ORACLE_N_MAX[r]
        col = collinear_state(r, n_max=n_max)
        col4 = collinear_state(r, n_max=2)   # the |2,2> sector is exact
        non4 = noncollinear_state(r, n_max=2)
        for theta in map(float, thetas):
            medium = MediumSpec(theta=theta)
            evolved = apply_mor_fn(col, medium, Geometry.COLLINEAR)
            ihv = normally_ordered_moment(evolved, (1, 1, 0, 0))
            ihhvv = normally_ordered_moment(evolved, (2, 2, 0, 0))
            worst["two"] = max(worst["two"], _tolerance_ratio(
                ihv, oracles.collinear_two_photon(r, theta)))
            worst["four"] = max(worst["four"], _tolerance_ratio(
                ihhvv, oracles.collinear_four_photon_counts(r, theta)))

            worst["var"] = max(worst["var"], _tolerance_ratio(
                _measure(evolved, ND_VARIANCE), oracles.collinear_nd_variance(r, theta),
                rel=1e-6))

            p_col = projection_probability(
                apply_mor_fn(col4, medium, Geometry.COLLINEAR), (2, 2, 0, 0))
            worst["col_proj"] = max(worst["col_proj"], _tolerance_ratio(
                p_col, oracles.collinear_four_photon_probability(r, theta)))
            p_non = projection_probability(
                apply_mor_fn(non4, medium, Geometry.NONCOLLINEAR), (1, 1, 1, 1))
            worst["non_proj"] = max(worst["non_proj"], _tolerance_ratio(
                p_non, oracles.noncollinear_four_photon_probability(r, theta)))

    names = {
        "two": ("oracle_two_photon_coincidence", "relative 1e-8, absolute 1e-12 at zeros"),
        "non_proj": ("oracle_noncollinear_projection", "relative 1e-8, absolute 1e-12 at zeros"),
        "col_proj": ("oracle_collinear_projection", "relative 1e-8, absolute 1e-12 at zeros"),
        "four": ("oracle_four_photon_counts", "relative 1e-8, absolute 1e-12 at zeros"),
        "var": ("variance_cross_check", "relative 1e-6, absolute 1e-12 at zeros"),
    }
    return [
        CheckResult(name=name, passed=worst[key] <= 1.0, max_error=worst[key],
                    tolerance=1.0, detail=f"error / allowance; {detail}")
        for key, (name, detail) in names.items()
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
    intensity, two-photon coincidence and the four-photon projection."""
    grid = 2.0 * math.pi * np.arange(256) / 256.0
    coherent = SourceSpec(kind=SourceKind.COHERENT, alpha=1.0)
    intensity = ObservableSpec(kind=ObservableKind.INTENSITY, mode=0)
    f_coh = dominant_frequency(fringe_scan(coherent, grid, Geometry.COLLINEAR, intensity))
    two = ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE)
    f_two = dominant_frequency(fringe_scan(
        SourceSpec(kind=SourceKind.COLLINEAR_PDC, r=0.5, n_max=48),
        grid, Geometry.COLLINEAR, two))
    proj = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=(1, 1, 1, 1))
    f_four = dominant_frequency(fringe_scan(
        SourceSpec(kind=SourceKind.NONCOLLINEAR_PDC, r=0.5, n_max=8),
        grid, Geometry.NONCOLLINEAR, proj))
    mismatches = int(f_coh != 1) + int(f_two != 2 * f_coh) + int(f_four != 4 * f_coh)
    return CheckResult(name="fringe_frequency_factor_of_four", passed=mismatches == 0,
                       max_error=float(mismatches), tolerance=0.0,
                       detail=f"frequencies {f_coh}:{f_two}:{f_four}, expected 1:2:4")


def _exact_fringe(values, thetas) -> FringeSeries:
    return FringeSeries(theta_grid=tuple(map(float, thetas)),
                        values=tuple(map(float, values)))


def check_visibility_curve() -> list[CheckResult]:
    """Two-photon visibility against its closed form and monotonicity,
    plus the weak-pumping limit of the four-photon visibility."""
    thetas = np.linspace(0.0, math.pi, 513)
    r_grid = np.linspace(0.01, 3.0, 60)
    worst_dev = 0.0
    monotone_violations = 0
    previous = None
    for r in map(float, r_grid):
        series = _exact_fringe([oracles.collinear_two_photon(r, t) for t in thetas], thetas)
        v = visibility(series).v
        worst_dev = max(worst_dev, abs(v - oracles.two_photon_visibility_closed(r)))
        if previous is not None and v >= previous:
            monotone_violations += 1
        previous = v
    series4 = _exact_fringe(
        [oracles.collinear_four_photon_counts(0.01, t) for t in thetas], thetas)
    v4 = visibility(series4).v
    return [
        CheckResult(name="visibility_two_photon_closed_form", passed=worst_dev < 1e-6,
                    max_error=worst_dev, tolerance=1e-6,
                    detail="max |v - 1/(1+2 tanh^2 r)| on r in [0.01, 3]"),
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
    coh = [min_detectable_angle(SourceSpec(kind=SourceKind.COHERENT, alpha=math.sqrt(n)))
           for n in mean_n]
    col = [min_detectable_angle(SourceSpec(kind=SourceKind.COLLINEAR_PDC,
                                           r=math.asinh(math.sqrt(n / 2.0))))
           for n in mean_n]
    slope_coh = float(np.polyfit(np.log(mean_n), np.log(coh), 1)[0])
    slope_col = float(np.polyfit(np.log(mean_n), np.log(col), 1)[0])
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
    two coincide at weak pumping."""
    thetas = np.linspace(0.0, math.pi, 17)
    violations = 0
    worst_gap = 0.0
    for r in (0.01, 0.1, 0.5, 1.0, 1.3):
        col = collinear_state(r, n_max=ORACLE_N_MAX[r])
        col4 = collinear_state(r, n_max=2)
        for theta in map(float, thetas):
            medium = MediumSpec(theta=theta)
            glauber = normally_ordered_moment(
                apply_mor_fn(col, medium, Geometry.COLLINEAR), (2, 2, 0, 0))
            proj = projection_probability(
                apply_mor_fn(col4, medium, Geometry.COLLINEAR), (2, 2, 0, 0))
            gap = 4.0 * proj - glauber
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                violations += 1

    worst_ratio = 0.0
    col = collinear_state(0.01, n_max=ORACLE_N_MAX[0.01])
    col4 = collinear_state(0.01, n_max=2)
    for theta in map(float, thetas):
        # the ratio is 0/0 where (3 cos^2 theta - 1) vanishes; stay clear of it
        if abs(3.0 * math.cos(theta) ** 2 - 1.0) < 0.4:
            continue
        medium = MediumSpec(theta=theta)
        glauber = normally_ordered_moment(
            apply_mor_fn(col, medium, Geometry.COLLINEAR), (2, 2, 0, 0))
        proj = projection_probability(
            apply_mor_fn(col4, medium, Geometry.COLLINEAR), (2, 2, 0, 0))
        worst_ratio = max(worst_ratio, abs(glauber / (4.0 * proj) - 1.0))
    return [
        CheckResult(name="glauber_dominates_projection", passed=violations == 0,
                    max_error=max(worst_gap, 0.0), tolerance=1e-12,
                    detail="max of 4 P(|2,2>) - I_HHVV over the grid"),
        CheckResult(name="glauber_projection_ratio_weak_pumping", passed=worst_ratio < 0.01,
                    max_error=worst_ratio, tolerance=0.01,
                    detail="max |I_HHVV / 4 P - 1| at r = 0.01"),
    ]


def check_normalization_and_invariance(apply_mor_fn=apply_mor) -> list[CheckResult]:
    """Source norm + tail = 1, channel unitarity, and invariance of the
    observables under the global phase angle and the pump phase."""
    worst_norm = 0.0
    for r in (0.0, 0.35, 0.8, 1.2, 1.6, 2.0):
        for n_max in (1, 4, 12, 40):
            col = collinear_state(r, phi=0.4, n_max=n_max)
            worst_norm = max(worst_norm, abs(col.norm_squared() + col.truncation_tail - 1.0))
            non = noncollinear_state(r, n_max=n_max)
            worst_norm = max(worst_norm, abs(non.norm_squared() + non.truncation_tail - 1.0))

    worst_unitary = 0.0
    for state, geometry in (
        (collinear_state(1.0, n_max=48), Geometry.COLLINEAR),
        (noncollinear_state(0.9, n_max=10), Geometry.NONCOLLINEAR),
        (make_basis_state((1, 1, 1, 1)), Geometry.NONCOLLINEAR),
    ):
        out = apply_mor_fn(state, MediumSpec(theta=0.9, theta_plus=0.5), geometry)
        worst_unitary = max(worst_unitary, abs(
            (out.norm_squared() + out.truncation_tail)
            - (state.norm_squared() + state.truncation_tail)))

    worst_phase = 0.0
    non = noncollinear_state(0.9, n_max=8)
    reference = None
    for theta_plus in (0.0, 0.7, math.pi):
        out = apply_mor_fn(non, MediumSpec(theta=0.8, theta_plus=theta_plus),
                           Geometry.NONCOLLINEAR)
        probe = (projection_probability(out, (1, 1, 1, 1)),
                 normally_ordered_moment(out, (1, 1, 0, 0)),
                 normally_ordered_moment(out, (2, 2, 0, 0)))
        if reference is None:
            reference = probe
        else:
            worst_phase = max(worst_phase,
                              max(abs(a - b) for a, b in zip(probe, reference)))
    reference = None
    for phi in (0.0, 1.3):
        col = collinear_state(0.9, phi=phi, n_max=48)
        out = apply_mor_fn(col, MediumSpec(theta=0.8), Geometry.COLLINEAR)
        probe = (normally_ordered_moment(out, (1, 1, 0, 0)),
                 normally_ordered_moment(out, (2, 2, 0, 0)),
                 projection_probability(out, (2, 2, 0, 0)))
        if reference is None:
            reference = probe
        else:
            worst_phase = max(worst_phase,
                              max(abs(a - b) for a, b in zip(probe, reference)))

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
