"""Self-verification suite: oracle equivalence and model invariants.

Each check reads the numeric Fock engine through the function every CLI sweep
prints from (``detection._sample``, behind ``fringe_scan`` and ``node_samples``,
or its ``_read`` of one built source over a stack of one-photon matrices),
and the reference values through the closed-form table
(``detection.closed_form_scan``), the code behind the CLI's exact mode; it
compares the two (or asserts an invariant) and reports its worst observed
error.  A check passes iff the max_error it prints is at most the tolerance it
prints; its errors reduce through one maximum in which NaN wins, so NaN fails.
A check that reads several sources reads the channel's one-photon matrices
once per medium for all of them, and compares whole arrays.
Tests substitute the channel at ``detection.apply_mor``, which every read looks
up at the call, to show that the suite catches a miswired medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detection, oracles
from .detection import (
    ObservableKind,
    ObservableSpec,
    _sample,
    closed_form_scan,
    dominant_frequency,
    node_samples,
    sensitivity_curve,
    visibility,
)
from .fock import Mode, make_basis_state
from .medium import MediumSpec
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
    max_error: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _worst(*errors) -> float:
    """The largest of the errors, numbers or arrays; NaN wins, where max() keeps the first."""
    return float(np.max(np.concatenate([np.ravel(error) for error in errors])))


def _tolerance_ratio(engine, reference, rel: float = REL_TOL):
    """|engine - reference| divided by the allowed error at each point."""
    return np.abs(np.subtract(engine, reference)) / np.maximum(ABS_TOL, rel * np.abs(reference))


def check_oracle_equivalence() -> list[CheckResult]:
    """Every ORACLE_ROWS observable on the engine against its closed form, on 33
    angles per interaction strength; the channel is read once per angle, and
    serves every source.  Each source is read on the rows of its kind only."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)
    ts = detection._one_photon_matrices([MediumSpec(theta=float(t)) for t in thetas])
    errors = {name: [] for name, *_ in ORACLE_ROWS}
    for kind in (COLLINEAR, NONCOLLINEAR):
        rows = [row for row in ORACLE_ROWS if row[1] is kind]
        for r in ORACLE_R_VALUES:
            # the non-collinear source is checked on its projection only, whose
            # four-photon sector n_max = 2 holds exactly
            source = SourceSpec(kind=kind, r=r, n_max=ORACLE_N_MAX[r] if kind is COLLINEAR else 2)
            engine = detection._read(build_state(source), [row[2] for row in rows], ts)
            for (name, _, obs, rel), column in zip(rows, engine.T):
                exact = closed_form_scan(source, thetas, obs)
                errors[name].append(_tolerance_ratio(column, exact, rel))
    return [
        CheckResult(name=name, max_error=_worst(*errors[name]), tolerance=1.0,
                    detail=f"error / allowance; relative 1e{round(math.log10(rel))}, "
                           "absolute 1e-12 at zeros")
        for name, _, _, rel in ORACLE_ROWS
    ]


def check_two_photon_closed_form() -> CheckResult:
    """Evolved |1,1> pair against the closed two-photon solution after
    removing the global phase."""
    pair_in = make_basis_state((1, 1, 0, 0))
    errors = []
    for theta in map(float, np.linspace(0.0, 2.0 * math.pi, 100)):
        out = detection.apply_mor(pair_in, MediumSpec(theta=theta, theta_plus=0.37))
        got = [out.amplitude((2, 0, 0, 0)), out.amplitude((0, 2, 0, 0)),
               out.amplitude((1, 1, 0, 0))]
        expected = oracles.two_photon_pair_amplitudes(theta)
        overlap = sum(e * g for e, g in zip(expected, got))
        phase = overlap / abs(overlap)
        errors.append([abs(g / phase - e) for g, e in zip(got, expected)])
    return CheckResult(name="two_photon_closed_form_oracle", max_error=_worst(errors),
                       tolerance=1e-12,
                       detail="max amplitude error over 100 angles, phase stripped")


def check_fringe_frequencies() -> CheckResult:
    """The factor-of-four: dominant fringe frequencies 1 : 2 : 4 for coherent
    intensity, two-photon coincidence and the four-photon projection, read
    off each fringe's exact Fourier coefficients."""
    def frequency(source, obs):
        # a fringe with a non-finite coefficient has no frequency, and fails the check
        try:
            return dominant_frequency(source, obs)
        except ValueError:
            return math.nan

    f_coh = frequency(SourceSpec(kind=SourceKind.COHERENT, alpha=1.0),
                      ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH))
    f_two = frequency(SourceSpec(kind=COLLINEAR, r=0.5, n_max=48), TWO_PHOTON)
    f_four = frequency(SourceSpec(kind=NONCOLLINEAR, r=0.5, n_max=8), PROJECTION[NONCOLLINEAR])
    return CheckResult(name="fringe_frequency_factor_of_four",
                       max_error=_worst(abs(f_coh - 1), abs(f_two - 2), abs(f_four - 4)),
                       tolerance=0.0,
                       detail=f"frequencies {f_coh}:{f_two}:{f_four}, expected 1:2:4")


def check_visibility_curve() -> list[CheckResult]:
    """Two-photon visibility, of the closed-form fringe and of the engine's,
    against its closed form, the closed-form curve's monotonicity, and the
    engine's four-photon visibility against its closed form.  Each sweep reads its
    fringes at their nodes, which fix their exact extremes, in one batch."""
    r_grid = np.linspace(0.01, 3.0, 60).tolist()
    closed = [visibility(fringe) for fringe in node_samples(
        [SourceSpec(kind=COLLINEAR, r=r) for r in r_grid], TWO_PHOTON, exact=True)]
    # a NaN visibility counts as a step that does not decrease
    monotone_violations = sum(not later < earlier for earlier, later in zip(closed, closed[1:]))
    sources = [SourceSpec(kind=COLLINEAR, r=r, n_max=ORACLE_N_MAX[r]) for r in ORACLE_R_VALUES]
    engine = [visibility(fringe) for fringe in node_samples(sources, TWO_PHOTON)]
    deviations = [abs(v - oracles.two_photon_visibility_closed(r))
                  for r, v in zip(r_grid + list(ORACLE_R_VALUES), closed + engine)]
    # v4 where tanh^2 r < 1/2 and its minimum is a real critical point between the nodes;
    # past that the critical points are complex, and np.roots would page LAPACK's
    # complex-eigenvalue code into the process, 0.125 MB of resident memory with
    # OpenBLAS 0.3.31 that no other check pays (the tests cover r up to 1.3)
    weak = [source for source in sources if math.tanh(source.r) ** 2 < 0.5]
    four_photon = [abs(visibility(fringe) - oracles.four_photon_visibility_closed(source.r))
                   for source, fringe in zip(weak, node_samples(weak, GLAUBER))]
    return [
        CheckResult(name="visibility_two_photon_closed_form", max_error=_worst(deviations),
                    tolerance=1e-6,
                    detail="max |v - 1/(1+2 tanh^2 r)|, closed form on r in [0.01, 3], "
                           "engine at r = 0.1 to 1.3"),
        CheckResult(name="visibility_two_photon_monotone", max_error=float(monotone_violations),
                    tolerance=0.0, detail="count of non-decreasing steps in r"),
        CheckResult(name="visibility_four_photon_closed_form", max_error=_worst(four_photon),
                    tolerance=1e-9, detail="max |v - v4(r)|, engine at r = 0.1 and 0.5"),
    ]


def check_sensitivity_scaling() -> list[CheckResult]:
    """Log-log slope of the minimum detectable angle against the mean photon
    number: -1/2 for coherent light, -1 for collinear PDC."""
    mean_n = np.geomspace(10.0, 1.0e4, 25)
    slope_coh = sensitivity_curve(SourceKind.COHERENT, mean_n)[1]
    slope_col = sensitivity_curve(COLLINEAR, mean_n)[1]
    return [
        CheckResult(name="sensitivity_slope_coherent", max_error=abs(slope_coh + 0.5),
                    tolerance=0.02, detail=f"slope {slope_coh:.4f}, shot-noise target -0.5"),
        CheckResult(name="sensitivity_slope_collinear", max_error=abs(slope_col + 1.0),
                    tolerance=0.02, detail=f"slope {slope_col:.4f}, Heisenberg target -1.0"),
    ]


def check_glauber_vs_projection() -> list[CheckResult]:
    """Four-photon counting dominates the post-selected projection, and the
    two coincide at weak pumping; both are read off one reading of the channel
    per angle, which serves every strength."""
    thetas = np.linspace(0.0, math.pi, 17)
    media = [MediumSpec(theta=float(t)) for t in thetas]
    sources = [SourceSpec(kind=COLLINEAR, r=r, n_max=ORACLE_N_MAX[r])
               for r in (0.01, 0.1, 0.5, 1.0, 1.3)]
    glauber, proj = _sample(sources, (GLAUBER, PROJECTION[COLLINEAR]), media).transpose(2, 0, 1)
    # the gap is signed: a negative one is no error, so the floor is 0
    worst_gap = _worst(0.0, 4.0 * proj - glauber)
    # the ratio is 0/0 where (3 cos^2 theta - 1) vanishes; stay clear of it, at r = 0.01
    clear = [abs(3.0 * math.cos(medium.theta) ** 2 - 1.0) >= 0.4 for medium in media]
    worst_ratio = _worst(np.abs(glauber[0, clear] / (4.0 * proj[0, clear]) - 1.0))
    return [
        CheckResult(name="glauber_dominates_projection", max_error=worst_gap, tolerance=1e-12,
                    detail="max of 4 P(|2,2>) - I_HHVV over the grid"),
        CheckResult(name="glauber_projection_ratio_weak_pumping", max_error=worst_ratio,
                    tolerance=0.01, detail="max |I_HHVV / 4 P - 1| at r = 0.01"),
    ]


def check_normalization_and_invariance() -> list[CheckResult]:
    """Source norm + tail = 1, channel unitarity, and invariance of the
    observables under the global phase angle and the pump phase."""
    # the pump phase enters the collinear amplitudes only
    sources = [SourceSpec(kind=kind, r=r, phi=0.4, n_max=n_max)
               for kind in (COLLINEAR, NONCOLLINEAR)
               for r in (0.0, 0.35, 0.8, 1.2, 1.6, 2.0) for n_max in (1, 4, 12, 40)]
    norm_errors = [abs(state.norm_squared() + state.truncation_tail - 1.0)
                   for state in map(build_state, sources)]

    drifts = []
    for state in (build_state(SourceSpec(kind=COLLINEAR, r=1.0, n_max=48)),
                  build_state(SourceSpec(kind=NONCOLLINEAR, r=0.9, n_max=10)),
                  make_basis_state((1, 1, 1, 1))):
        out = detection.apply_mor(state, MediumSpec(theta=0.9, theta_plus=0.5))
        drifts.append(abs((out.norm_squared() + out.truncation_tail)
                          - (state.norm_squared() + state.truncation_tail)))

    # one read for both runs: the non-collinear source under three theta_plus, and the
    # collinear one under two pump phases at theta_plus = 0
    sources = [SourceSpec(kind=NONCOLLINEAR, r=0.9, n_max=8)] + [
        SourceSpec(kind=COLLINEAR, r=0.9, phi=phi, n_max=48) for phi in (0.0, 1.3)]
    engine = _sample(sources, (TWO_PHOTON, GLAUBER, *PROJECTION.values()),
                     [MediumSpec(theta=0.8, theta_plus=p) for p in (0.0, 0.7, math.pi)])
    # each run varies only theta_plus, or only the pump phase: one row per run entry
    runs = (engine[0], engine[1:, 0])
    worst_phase = _worst(*(np.abs(run[1:] - run[0]) for run in runs))

    return [
        CheckResult(name="source_norm_plus_tail", max_error=_worst(norm_errors), tolerance=1e-12,
                    detail="max |norm^2 + tail - 1| over sources"),
        CheckResult(name="channel_norm_preservation", max_error=_worst(drifts), tolerance=1e-12,
                    detail="max norm drift through the medium"),
        CheckResult(name="phase_invariance", max_error=worst_phase, tolerance=1e-12,
                    detail="max observable change under theta_plus / pump phase"),
    ]


def run_all() -> list[CheckResult]:
    results = []
    results.extend(check_oracle_equivalence())
    results.append(check_two_photon_closed_form())
    results.append(check_fringe_frequencies())
    results.extend(check_visibility_curve())
    results.extend(check_sensitivity_scaling())
    results.extend(check_glauber_vs_projection())
    results.extend(check_normalization_and_invariance())
    return results
