import math

import numpy as np
import pytest

from morsim import Geometry, MediumSpec, apply_mor, detection, oracles, verify
from morsim.detection import ObservableKind
from morsim.sources import SourceSpec, build_state
from morsim.verify import (
    check_two_photon_closed_form,
    check_normalization_and_invariance,
    check_oracle_equivalence,
    run_all,
)
from reference_channel import measure, reference_channel


def broken_apply_mor(state, medium, geometry):
    """Channel with the counter-propagation sign error: the b beam sees
    +theta instead of -theta.  Built from the reference channel; in the
    collinear geometry the b beam is empty, so the mutant equals the engine
    there and apply_mor stands in for the costly large-n reference."""
    if Geometry(geometry) is Geometry.COLLINEAR:
        return apply_mor(state, medium, geometry)
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
    results = {r.name: r for r in check_oracle_equivalence(broken_apply_mor)}
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


def test_a_wrong_engine_visibility_fails_the_visibility_check_only(monkeypatch):
    # lift every engine fringe that verify scans by the constant that scales
    # its visibility by 1 + 1e-5; the 1:2:4 check reads Fourier coefficients,
    # not a scanned fringe
    def lifted(*args, **kwargs):
        series = detection.fringe_scan(*args, **kwargs)
        top, bottom = max(series.values), min(series.values)
        shift = (top + bottom) / 2.0 * (1.0 / (1.0 + 1e-5) - 1.0)
        return detection.FringeSeries(series.theta_grid, [v + shift for v in series.values])

    monkeypatch.setattr(verify, "fringe_scan", lifted)
    failed = [r.name for r in run_all() if not r.passed]
    assert failed == ["visibility_two_photon_closed_form"]


def test_collinear_projection_off_the_deep_state_has_the_shallow_state_bits():
    # verify reads P(|2,2>) off the four-photon amplitudes of a two-pair state; the
    # channel acts per sector, so the Schroedinger reading off the whole state,
    # deep or shallow, has the same bits, and the engine's is that to rounding
    source = SourceSpec(kind="collinear_pdc", r=1.3, n_max=128)
    deep, shallow = (build_state(SourceSpec(kind="collinear_pdc", r=1.3, n_max=n_max))
                     for n_max in (128, 2))
    media = [MediumSpec(theta=float(theta)) for theta in np.linspace(0.0, 2.0 * math.pi, 25)]
    engine = verify._engine_values(apply_mor, [source], media,
                                   [verify.PROJECTION[verify.COLLINEAR]])[0]
    reference = []
    for medium in media:
        reference.append(measure(apply_mor(deep, medium, Geometry.COLLINEAR),
                                 verify.PROJECTION[verify.COLLINEAR]))
        assert reference[-1] == measure(apply_mor(shallow, medium, Geometry.COLLINEAR),
                                        verify.PROJECTION[verify.COLLINEAR])
    assert np.abs(np.subtract([value for value, in engine], reference)).max() \
        <= 1e-15 * max(reference)


def test_run_all_reads_each_probe_once_per_check(monkeypatch):
    # a check reads the channel once per (geometry, theta, theta_plus) for all of its
    # sources; counted through the channel it is given and the one detection holds
    calls = []
    running = [None]

    def channel(via):
        def counted(state, medium, geometry):
            calls.append((running[0], via, Geometry(geometry), medium.theta, medium.theta_plus,
                          state.occupations.tobytes()))
            return apply_mor(state, medium, geometry)
        return counted

    for name, check in list(vars(verify).items()):
        if name.startswith("check_"):
            def labelled(*args, _check=check, _name=name, **kwargs):
                running[0] = _name
                return _check(*args, **kwargs)
            monkeypatch.setattr(verify, name, labelled)
    monkeypatch.setattr(detection, "apply_mor", channel("detection"))
    assert all(r.passed for r in run_all(apply_mor_fn=channel("argument")))
    # 891 when each source read its own one-photon matrices
    assert len(calls) <= 359
    given = [call for call in calls if call[1] == "argument"]
    assert {call[0] for call in given} == {
        "check_oracle_equivalence", "check_two_photon_closed_form",
        "check_glauber_vs_projection", "check_normalization_and_invariance"}
    assert len(set(given)) == len(given)
    # the visibility check scans each engine fringe through fringe_scan, the CLI's
    # path: its six nodes once per source
    scanned = [call for call in calls if call[0] == "check_visibility_curve"]
    assert len(scanned) == 2 * 6 * len(verify.ORACLE_R_VALUES)
    assert len(set(scanned)) == 2 * 6


def test_mutated_channel_still_norm_preserving():
    # the mutation is a perfectly valid unitary, so only oracle checks see it
    results = check_normalization_and_invariance(broken_apply_mor)
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
