import math

import numpy as np
import pytest

from morsim import MediumSpec, apply_mor, detection, oracles, verify
from morsim.detection import ObservableKind
from morsim.fock import KetState, annihilator_coefficients
from morsim.sources import SourceSpec, build_state
from morsim.verify import (
    check_two_photon_closed_form,
    check_normalization_and_invariance,
    check_oracle_equivalence,
    run_all,
)
from reference_channel import measure, reference_channel


def broken_apply_mor(state, medium):
    """Channel with the counter-propagation sign error: the b beam sees
    +theta instead of -theta.  Built from the reference channel; on a state
    with an empty b beam the mutant equals the engine, so apply_mor stands in
    there for the costly large-n reference."""
    if not state.occupations[2:].any():
        return apply_mor(state, medium)
    angles = (medium.theta, medium.theta_plus)
    return reference_channel(state, angles, angles)


def test_default_oracle_equivalence_passes():
    results = check_oracle_equivalence()
    assert all(r.passed for r in results)


def test_two_photon_closed_form_check_passes():
    assert check_two_photon_closed_form().passed


def test_mutated_b_rotation_is_caught_by_projection_oracle(monkeypatch):
    import morsim.verify as verify_mod

    monkeypatch.setattr(verify_mod, "ORACLE_R_VALUES", (0.5,))
    monkeypatch.setattr(detection, "apply_mor", broken_apply_mor)
    results = {r.name: r for r in check_oracle_equivalence()}
    assert not results["oracle_noncollinear_projection"].passed
    # the sign error does not touch the single-beam observables
    assert results["oracle_two_photon_coincidence"].passed
    assert results["oracle_collinear_projection"].passed
    assert results["oracle_four_photon_counts"].passed


# oracle check -> the closed-form table entry it compares the engine against
ENTRY_CHECKED_BY = {
    "oracle_two_photon_coincidence": ("collinear_pdc", "two_photon_coincidence", None),
    "oracle_noncollinear_projection": ("noncollinear_pdc", "four_photon_projection",
                                       (1, 1, 1, 1)),
    "oracle_collinear_projection": ("collinear_pdc", "four_photon_projection", (2, 2, 0, 0)),
    "oracle_four_photon_counts": ("collinear_pdc", "four_photon_glauber", None),
    "variance_cross_check": ("collinear_pdc", "nd_variance", None),
}


def test_every_pdc_closed_form_is_checked_against_the_engine():
    checked = {name: (kind.value, obs.kind.value, obs.target)
               for name, kind, obs, _ in verify.ORACLE_ROWS}
    assert checked == ENTRY_CHECKED_BY
    assert set(checked.values()) == {key for key in oracles._CLOSED_FORMS
                                     if key[0] != "coherent"}


def _passed_at_one_strength(monkeypatch):
    monkeypatch.setattr(verify, "ORACLE_R_VALUES", (0.5,))
    return {r.name: r.passed for r in check_oracle_equivalence()}


@pytest.mark.parametrize("name", ENTRY_CHECKED_BY)
def test_a_wrong_closed_form_entry_fails_its_check_only(monkeypatch, name):
    key = ENTRY_CHECKED_BY[name]
    fn, parameter = oracles._CLOSED_FORMS[key]
    monkeypatch.setitem(oracles._CLOSED_FORMS, key,
                        (lambda p, thetas: [v * (1.0 + 1e-5) for v in fn(p, thetas)], parameter))
    passed = _passed_at_one_strength(monkeypatch)
    assert passed == {n: n != name for n in ENTRY_CHECKED_BY}


def test_a_wrong_glauber_power_fails_the_four_photon_check_only(monkeypatch):
    monkeypatch.setitem(detection._MOMENT_POWERS, ObservableKind.FOUR_PHOTON_GLAUBER, 1)
    passed = _passed_at_one_strength(monkeypatch)
    assert passed == {n: n != "oracle_four_photon_counts" for n in ENTRY_CHECKED_BY}


def test_a_wrong_engine_visibility_fails_the_visibility_checks_only(monkeypatch):
    # lift every engine fringe that verify samples at its nodes by the constant that
    # scales its visibility by about 1 + 1e-5; the closed-form fringes stay as they
    # are, and the 1:2:4 check reads Fourier coefficients, not node samples
    def lifted(sources, obs, exact=False):
        samples = detection.node_samples(sources, obs, exact=exact)
        if exact:
            return samples
        top, bottom = samples.max(axis=1), samples.min(axis=1)
        return samples + ((top + bottom) / 2.0 * (1.0 / (1.0 + 1e-5) - 1.0))[:, None]

    monkeypatch.setattr(verify, "node_samples", lifted)
    failed = [r.name for r in run_all() if not r.passed]
    assert failed == ["visibility_two_photon_closed_form", "visibility_four_photon_closed_form"]


def test_oracle_equivalence_reads_each_source_on_its_own_rows(monkeypatch):
    # four collinear sources on three coefficient rows (the variance reads none) and
    # four non-collinear ones on their projection; 32 when every source read all rows
    calls = []

    def counted(rows):
        calls.append(rows.shape)
        return annihilator_coefficients(rows)

    monkeypatch.setattr(detection, "annihilator_coefficients", counted)
    assert all(r.passed for r in check_oracle_equivalence())
    assert len(calls) == 3 * 4 + 4


def test_collinear_projection_off_the_deep_state_has_the_shallow_state_bits():
    # verify reads P(|2,2>) off the four-photon amplitudes of a two-pair state; the
    # channel acts per sector, so the Schroedinger reading off the whole state,
    # deep or shallow, has the same bits, and the engine's is that to rounding
    source = SourceSpec(kind="collinear_pdc", r=1.3, n_max=128)
    deep, shallow = (build_state(SourceSpec(kind="collinear_pdc", r=1.3, n_max=n_max))
                     for n_max in (128, 2))
    media = [MediumSpec(theta=float(theta)) for theta in np.linspace(0.0, 2.0 * math.pi, 25)]
    engine = detection._sample([source], [verify.PROJECTION[verify.COLLINEAR]], media)[0]
    reference = []
    for medium in media:
        reference.append(measure(apply_mor(deep, medium), verify.PROJECTION[verify.COLLINEAR]))
        assert reference[-1] == measure(apply_mor(shallow, medium),
                                        verify.PROJECTION[verify.COLLINEAR])
    assert np.abs(np.subtract([value for value, in engine], reference)).max() \
        <= 1e-15 * max(reference)


def test_run_all_reads_each_probe_once_per_check(monkeypatch):
    # a check reads each probe once per (theta, theta_plus) for all of its sources;
    # counted through the one channel detection holds
    calls = []
    running = [None]

    def counted(state, medium):
        calls.append((running[0], medium.theta, medium.theta_plus, state.occupations.tobytes()))
        return apply_mor(state, medium)

    for name, check in list(vars(verify).items()):
        if name.startswith("check_"):
            def labelled(*args, _check=check, _name=name, **kwargs):
                running[0] = _name
                return _check(*args, **kwargs)
            monkeypatch.setattr(verify, name, labelled)
    monkeypatch.setattr(detection, "apply_mor", counted)
    assert all(r.passed for r in run_all())
    # 891 when each source read its own one-photon matrices, 357 with one probe set
    # per geometry, 289 when each visibility r read its own nodes
    assert len(calls) <= 273
    assert {call[0] for call in calls} == {
        "check_oracle_equivalence", "check_two_photon_closed_form", "check_fringe_frequencies",
        "check_visibility_curve", "check_glauber_vs_projection",
        "check_normalization_and_invariance"}
    # two checks read through the public sweeps, the CLI's path
    swept = {"check_visibility_curve", "check_fringe_frequencies"}
    # every other check reads each probe at each medium once
    others = [call for call in calls if call[0] not in swept]
    assert len(set(others)) == len(others)
    # the visibility check samples its engine fringes in two batches, the two-photon
    # one at its six nodes and the Glauber one at its ten, each node once; 0 and pi
    # are nodes of both
    scanned = [call for call in calls if call[0] == "check_visibility_curve"]
    assert len(scanned) == 2 * (6 + 10)
    assert len(set(scanned)) == 2 * (6 + 10 - 2)
    # the K = 2 and K = 4 fringes of the 1:2:4 check each read their own nodes
    # through dominant_frequency; 0 and pi are nodes of both
    spectra = [call for call in calls if call[0] == "check_fringe_frequencies"]
    assert len(spectra) == 2 * (6 + 10)
    assert len(set(spectra)) == 2 * (6 + 10 - 2)


CHANNEL_FREE_CHECKS = {"visibility_two_photon_monotone", "sensitivity_slope_coherent",
                       "sensitivity_slope_collinear", "source_norm_plus_tail"}


def test_a_nan_channel_fails_every_check_that_reads_it(monkeypatch):
    def nan_apply_mor(state, medium):
        out = apply_mor(state, medium)
        return KetState(out.occupations, np.full_like(out.amplitudes, np.nan),
                        out.truncation_tail)

    monkeypatch.setattr(detection, "apply_mor", nan_apply_mor)
    results = run_all()
    assert len(results) == 17
    assert {r.name for r in results if r.passed} == CHANNEL_FREE_CHECKS
    assert {r.name for r in results if math.isnan(r.max_error)} \
        == {r.name for r in results} - CHANNEL_FREE_CHECKS


def test_mutated_channel_still_norm_preserving(monkeypatch):
    # the mutation is a perfectly valid unitary, so only oracle checks see it
    monkeypatch.setattr(detection, "apply_mor", broken_apply_mor)
    results = check_normalization_and_invariance()
    by_name = {r.name: r for r in results}
    assert by_name["channel_norm_preservation"].passed


def test_run_all_shape():
    results = run_all()
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert all(r.passed for r in results)
    assert any("noncollinear_projection" in n for n in names)
    for r in results:
        assert math.isfinite(r.max_error)
