import math

from morsim import Geometry, apply_mor
from morsim.verify import (
    check_two_photon_closed_form,
    check_normalization_and_invariance,
    check_oracle_equivalence,
    run_all,
)
from reference_channel import reference_channel


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
