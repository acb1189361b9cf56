import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsim import (
    MediumSpec,
    Mode,
    ObservableKind,
    ObservableSpec,
    SourceSpec,
    apply_mor,
    build_state,
    make_basis_state,
    oracles,
)
from reference_channel import (
    max_difference,
    measure,
    normally_ordered_moment,
    projection_probability,
    reference_moment,
    reference_mor,
    reference_nd_variance,
    rotation_matrix,
    sector_matrix,
    state_from_amplitudes,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def strip_global_phase(amps, reference):
    """Rotate a complex amplitude list so its overlap with the reference is
    real positive."""
    overlap = sum(r.conjugate() * a for r, a in zip(reference, amps))
    return [a * overlap.conjugate() / abs(overlap) for a in amps]


def one_photon_matrix(theta, theta_plus=0.0):
    """The channel's action on one a-beam photon: row 0 (1) is the image of
    the H (V) photon's creation operator."""
    return sector_matrix(theta, theta_plus, 1).T


@st.composite
def small_states(draw, b_beam):
    """Random superpositions of up to six occupations with at most three
    photons per mode; the b beam stays empty unless b_beam, as a collinear
    source leaves it."""
    n_b = 3 if b_beam else 0
    occ = st.tuples(st.integers(0, 3), st.integers(0, 3),
                    st.integers(0, n_b), st.integers(0, n_b))
    amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    amps = draw(st.dictionaries(occ, amp, min_size=1, max_size=6))
    tail = draw(st.floats(min_value=0.0, max_value=0.1))
    return state_from_amplitudes(amps, tail)


def either_beam_states():
    """States with an empty b beam, or with photons in it."""
    return st.sampled_from((False, True)).flatmap(small_states)


def test_rotation_matrix_theta_zero_is_identity():
    assert np.max(np.abs(one_photon_matrix(0.0, 0.0) - np.eye(2))) < 1e-15


def test_rotation_matrix_half_turn_is_antisymmetric_swap():
    r = one_photon_matrix(math.pi, 0.0)
    phase = r[1, 0]
    assert abs(abs(phase) - 1.0) < 1e-15
    assert np.max(np.abs(r / phase - np.array([[0, -1], [1, 0]]))) < 1e-15


def test_rotation_matrix_unitary_with_unimodular_determinant():
    for theta, tp in [(0.3, 0.0), (1.2, 0.5), (math.pi, 2.0), (-0.7, -1.1)]:
        r = one_photon_matrix(theta, tp)
        assert np.max(np.abs(r.conj().T @ r - np.eye(2))) < 1e-14
        det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        assert abs(abs(det) - 1.0) < 1e-14
        assert np.max(np.abs(r - rotation_matrix(theta, tp))) < 1e-14


def test_rotation_matrix_from_circular_basis_phases():
    # conjugating the diagonal +/- phase evolution by the H/V <-> circular
    # basis change reproduces the rotation block up to a global phase
    theta_p, theta_m = 0.9, 0.2
    theta = theta_p - theta_m
    t = np.array([[1, 1], [1j, -1j]]) / math.sqrt(2)  # columns: +,- creation ops
    diag = np.diag([np.exp(-1j * theta_p), np.exp(-1j * theta_m)])
    conjugated = t @ diag @ np.linalg.inv(t)
    reference = one_photon_matrix(theta, theta_p)
    ratio = conjugated[0, 0] / reference[0, 0]
    assert abs(abs(ratio) - 1.0) < 1e-13
    assert np.max(np.abs(conjugated - ratio * reference)) < 1e-13


def test_two_photon_closed_form_values():
    assert oracles.two_photon_pair_amplitudes(0.0) == (0.0, 0.0, 1.0)
    c, d, f = oracles.two_photon_pair_amplitudes(math.pi / 2)
    assert c == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert d == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    assert abs(f) < 1e-15
    c, d, f = oracles.two_photon_pair_amplitudes(math.pi / 4)
    assert (c, d) == (pytest.approx(0.5, abs=1e-15), pytest.approx(-0.5, abs=1e-15))
    assert f == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_apply_mor_matches_two_photon_closed_form():
    # acceptance-style oracle match on |1,1>, phase stripped, 100 angles
    pair_in = make_basis_state((1, 1, 0, 0))
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 100):
        medium = MediumSpec(theta=float(theta), theta_plus=0.37)
        out = apply_mor(pair_in, medium)
        got = [out.amplitude((2, 0, 0, 0)), out.amplitude((0, 2, 0, 0)),
               out.amplitude((1, 1, 0, 0))]
        expected = oracles.two_photon_pair_amplitudes(float(theta))
        aligned = strip_global_phase(got, expected)
        worst = max(worst, max(abs(a - e) for a, e in zip(aligned, expected)))
    assert worst < 1e-12


@PROPERTY_SETTINGS
@given(either_beam_states(), ANGLES, ANGLES)
def test_apply_mor_preserves_norm(psi, theta, theta_plus):
    # the channel keeps every amplitude: norm and tail are both unchanged
    out = apply_mor(psi, MediumSpec(theta, theta_plus))
    assert out.truncation_tail == psi.truncation_tail
    assert abs(out.norm_squared() - psi.norm_squared()) < 1e-12


def test_apply_mor_theta_zero_changes_no_observable():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.8, n_max=8))
    out = apply_mor(psi, MediumSpec(theta=0.0, theta_plus=0.6))
    for occ in [(1, 0, 0, 1), (1, 1, 1, 1), (2, 0, 0, 2)]:
        assert abs(abs(out.amplitude(occ)) - abs(psi.amplitude(occ))) < 1e-14


def test_apply_mor_refuses_a_whole_state_over_the_budget_before_building(monkeypatch):
    # build_state keeps n_max 582 (28 kB), but evolving it whole would need the
    # block buffer, the layout's vectors, the eigen-coefficients and bases up to
    # 1164 photons
    from morsim import fock

    def must_not_run(*args, **kwargs):
        raise AssertionError("built a rotation basis")

    monkeypatch.setattr(fock, "_rotation_bases", must_not_run)
    psi = build_state(SourceSpec(kind="collinear_pdc", r=1.9, n_max=582))
    for _ in range(2):
        with pytest.raises(ValueError) as refused:
            apply_mor(psi, MediumSpec(theta=0.3))
        message = str(refused.value)
        assert message.startswith(f"a state of {583 ** 2} amplitudes needs 2.01 GiB")
        assert message.endswith("over the 2 GiB budget") and "\n" not in message
    assert not {"occupations", "phases", "bases"} & psi.layout.__dict__.keys()
    assert not {"buffer", "eigen_coefficients"} & psi.__dict__.keys()


@PROPERTY_SETTINGS
@given(either_beam_states(), ANGLES, ANGLES)
def test_apply_mor_matches_sequential_pair_unitaries(psi, theta, theta_plus):
    # the reference rotates the a pair, then the b pair with opposite angles
    medium = MediumSpec(theta, theta_plus)
    assert max_difference(apply_mor(psi, medium),
                          reference_mor(psi, medium)) < 1e-12


@PROPERTY_SETTINGS
@given(either_beam_states(), st.lists(st.tuples(ANGLES, ANGLES), min_size=2, max_size=6))
def test_cached_eigen_coefficients_serve_angles_in_any_order(psi, angles):
    # one state, many angles: every output uses the same cached coefficients
    for theta, theta_plus in angles:
        medium = MediumSpec(theta, theta_plus)
        assert max_difference(apply_mor(psi, medium),
                              reference_mor(psi, medium)) < 1e-12


def test_collinear_two_photon_fringe_matches_closed_form():
    r = 0.8
    psi = build_state(SourceSpec(kind="collinear_pdc", r=r, n_max=64))
    for theta in np.linspace(0.0, math.pi, 9):
        out = apply_mor(psi, MediumSpec(theta=float(theta)))
        got = normally_ordered_moment(out, (1, 1, 0, 0))
        assert got == pytest.approx(oracles.collinear_two_photon(r, [float(theta)])[0],
                                    rel=1e-10)


def test_noncollinear_projection_matches_closed_form():
    r = 1.0
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=r, n_max=10))
    for theta in np.linspace(0.0, math.pi, 11):
        out = apply_mor(psi, MediumSpec(theta=float(theta)))
        got = projection_probability(out, (1, 1, 1, 1))
        expected = oracles.noncollinear_four_photon_probability(r, [float(theta)])[0]
        assert abs(got - expected) <= max(1e-12, 1e-10 * expected)


def test_observables_invariant_under_global_phase_angle():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.9, n_max=8))
    reference = None
    for theta_plus in (0.0, 0.7, math.pi):
        out = apply_mor(psi, MediumSpec(theta=0.8, theta_plus=theta_plus))
        probe = (
            projection_probability(out, (1, 1, 1, 1)),
            normally_ordered_moment(out, (1, 1, 0, 0)),
            normally_ordered_moment(out, (2, 2, 0, 0)),
        )
        if reference is None:
            reference = probe
        else:
            assert all(abs(a - b) < 1e-12 for a, b in zip(probe, reference))


@PROPERTY_SETTINGS
@given(st.sampled_from(["collinear_pdc", "noncollinear_pdc"]), st.floats(0.0, 1.2),
       st.floats(-math.pi, math.pi), st.integers(1, 32), ANGLES, ANGLES)
def test_observables_even_in_theta(kind, r, phi, n_max, theta, theta_plus):
    if kind == "collinear_pdc":
        source, target = SourceSpec(kind="collinear_pdc", r=r, phi=phi, n_max=n_max), (2, 2, 0, 0)
    else:
        source = SourceSpec(kind="noncollinear_pdc", r=r, n_max=min(n_max, 8))
        target = (1, 1, 1, 1)
    psi = build_state(source)
    plus = apply_mor(psi, MediumSpec(theta, theta_plus))
    minus = apply_mor(psi, MediumSpec(-theta, theta_plus))
    for powers in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)]:
        assert abs(normally_ordered_moment(plus, powers)
                   - normally_ordered_moment(minus, powers)) < 1e-12
    assert abs(projection_probability(plus, target)
               - projection_probability(minus, target)) < 1e-12


def test_counter_propagation_sign_swap_leaves_projection_invariant():
    # swapping which beam sees +theta flips both pair rotations; the
    # coincidence projection depends on theta only through cos^2(2 theta)
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.8, n_max=8))
    for theta in (0.2, 0.9, 1.7):
        forward = apply_mor(psi, MediumSpec(theta=theta))
        swapped = apply_mor(psi, MediumSpec(theta=-theta))
        assert abs(projection_probability(forward, (1, 1, 1, 1))
                   - projection_probability(swapped, (1, 1, 1, 1))) < 1e-13


def test_medium_spec_rejects_non_finite():
    for field in ("theta", "theta_plus"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                MediumSpec(**{"theta": 0.1, field: value})


@PROPERTY_SETTINGS
@given(either_beam_states(), ANGLES, ANGLES, ANGLES, ANGLES)
def test_apply_mor_composes_by_adding_angles(psi, theta1, plus1, theta2, plus2):
    twice = apply_mor(apply_mor(psi, MediumSpec(theta1, plus1)),
                      MediumSpec(theta2, plus2))
    once = apply_mor(psi, MediumSpec(theta1 + theta2, plus1 + plus2))
    assert max_difference(twice, once) < 1e-12


@PROPERTY_SETTINGS
@given(either_beam_states(), st.tuples(*[st.integers(0, 3)] * 4),
       st.permutations(list(Mode)))
def test_moments_and_variance_match_occupation_loops(psi, powers, modes):
    assert normally_ordered_moment(psi, powers) == pytest.approx(
        reference_moment(psi, powers), rel=1e-12, abs=1e-12)
    pair = (modes[0], modes[1])
    variance = measure(psi, ObservableSpec(kind=ObservableKind.ND_VARIANCE, pair=pair))
    assert variance == pytest.approx(reference_nd_variance(psi, pair), rel=1e-12, abs=1e-12)
