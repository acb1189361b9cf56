import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsim import fock, sources
from morsim import (
    SourceKind,
    SourceSpec,
    TruncationError,
    build_state,
    mean_photon_number,
    select_n_max,
    truncation_tail,
)
from morsim.sources import truncation_bound
from reference_channel import (amplitude_dict, reference_collinear_state,
                               reference_noncollinear_state)


@pytest.mark.parametrize("kind, n_max, amplitudes, slack", [
    ("collinear_pdc", 200_000, 200_001, 2**16),
    ("noncollinear_pdc", 600, 601 * 602 // 2, 2**17),
], ids=["collinear_pdc", "noncollinear_pdc"])
def test_a_deep_state_takes_only_the_bytes_its_budget_counts(kind, n_max, amplitudes, slack):
    # tanh 25 rounds to 1, so no amplitude underflows and all pairs up to n_max are kept;
    # nothing beside the occupations and amplitudes may grow with n_max
    tracemalloc.start()
    try:
        state = build_state(SourceSpec(kind=kind, r=25.0, n_max=n_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.amplitudes) == amplitudes
    assert peak <= sources.STATE_BYTES_PER_AMPLITUDE * amplitudes + slack


def test_collinear_r_zero_is_vacuum():
    state = build_state(SourceSpec(kind="collinear_pdc", r=0.0, n_max=10))
    assert amplitude_dict(state) == {(0, 0, 0, 0): 1.0 + 0j}
    assert state.truncation_tail == 0.0


def test_collinear_first_pair_amplitude():
    state = build_state(SourceSpec(kind="collinear_pdc", r=1.0, phi=0.0, n_max=10))
    expected = -math.tanh(1.0) / math.cosh(1.0)
    assert state.amplitude((1, 1, 0, 0)) == pytest.approx(expected, abs=1e-15)
    assert abs(expected + 0.493569) < 1e-4


def test_collinear_stored_norm():
    state = build_state(SourceSpec(kind="collinear_pdc", r=1.0, n_max=20))
    assert state.norm_squared() == pytest.approx(1.0 - math.tanh(1.0) ** 42, abs=1e-14)


def test_collinear_pump_phase_enters_amplitudes():
    phi = 0.8
    state = build_state(SourceSpec(kind="collinear_pdc", r=0.7, phi=phi, n_max=6))
    for n in range(1, 7):
        expected = (-cmath.exp(1j * phi) * math.tanh(0.7)) ** n / math.cosh(0.7)
        assert abs(state.amplitude((n, n, 0, 0)) - expected) < 1e-14


def test_noncollinear_r_zero_is_vacuum():
    state = build_state(SourceSpec(kind="noncollinear_pdc", r=0.0, n_max=10))
    assert amplitude_dict(state) == {(0, 0, 0, 0): 1.0 + 0j}


def test_noncollinear_single_pair_components_alternate_sign():
    state = build_state(SourceSpec(kind="noncollinear_pdc", r=1.0, n_max=10))
    expected = math.tanh(1.0) / math.cosh(1.0) ** 2
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(expected, abs=1e-15)
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(-expected, abs=1e-15)
    assert abs(expected - 0.31985) < 1e-4


def test_noncollinear_pair_weights_sum_to_one():
    t = math.tanh(0.9) ** 2
    total = sum((n + 1) * t**n for n in range(400)) / math.cosh(0.9) ** 4
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [SourceKind.COLLINEAR_PDC, SourceKind.NONCOLLINEAR_PDC])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("n_max", [1, 3, 10, 40])
def test_norm_plus_tail_is_one(kind, r, n_max):
    state = build_state(SourceSpec(kind=kind, r=r, n_max=n_max))
    assert state.norm_squared() + state.truncation_tail == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, r", [("collinear_pdc", 800.0), ("collinear_pdc", 1e300),
                                     ("noncollinear_pdc", 400.0), ("noncollinear_pdc", 800.0)])
def test_a_source_whose_cosh_r_overflows_is_empty_with_tail_1(kind, r):
    # 1 / cosh r (collinear) or 1 / cosh^2 r (non-collinear) is 0 to the last bit long
    # before cosh r or its square overflows: no amplitude survives
    state = build_state(SourceSpec(kind=kind, r=r, n_max=4))
    assert state.amplitudes.size == 0 and state.occupations.shape == (4, 0)
    assert state.truncation_tail == 1.0


def test_pair_structure():
    col = build_state(SourceSpec(kind="collinear_pdc", r=1.2, n_max=15))
    for occ in amplitude_dict(col):
        assert occ[0] == occ[1] and occ[2] == occ[3] == 0
    non = build_state(SourceSpec(kind="noncollinear_pdc", r=1.2, n_max=12))
    for occ in amplitude_dict(non):
        assert occ[0] == occ[3] and occ[1] == occ[2]


def test_truncation_tail_matches_stored_norm():
    for r in (0.3, 0.8, 1.4):
        for n_max in (2, 5, 9):
            col = build_state(SourceSpec(kind="collinear_pdc", r=r, n_max=n_max))
            assert truncation_tail("collinear_pdc", r, n_max) == pytest.approx(
                1.0 - col.norm_squared(), abs=1e-12
            )
            non = build_state(SourceSpec(kind="noncollinear_pdc", r=r, n_max=n_max))
            assert truncation_tail("noncollinear_pdc", r, n_max) == pytest.approx(
                1.0 - non.norm_squared(), abs=1e-12
            )


def test_truncation_tail_examples():
    assert truncation_tail("collinear_pdc", 0.0, 5) == 0.0
    assert truncation_tail("noncollinear_pdc", 0.0, 5) == 0.0
    assert truncation_tail("coherent", 1.0, 5) == 0.0
    tail = truncation_tail("collinear_pdc", 1.0, 5)
    assert tail == pytest.approx(math.tanh(1.0) ** 12, rel=1e-14)
    assert abs(tail - 0.03815) < 1e-4
    t = math.tanh(0.5) ** 2
    assert truncation_tail("noncollinear_pdc", 0.5, 10) == pytest.approx(
        t**11 * (11 * (1 - t) + 1), rel=1e-13
    )


def test_truncation_tail_decreasing_in_n_max():
    for kind in ("collinear_pdc", "noncollinear_pdc"):
        tails = [truncation_tail(kind, 1.1, n) for n in range(1, 30)]
        assert all(b < a for a, b in zip(tails, tails[1:]))


def test_select_n_max_small_r_uses_floor():
    assert select_n_max("collinear_pdc", 0.1) == 8


def test_select_n_max_doubles_until_bound_met():
    n = select_n_max("collinear_pdc", 0.6)
    assert n in (16, 32)
    assert truncation_tail("collinear_pdc", 0.6, n) * (n + 4) ** 4 < 1e-10


def test_select_n_max_doubles_past_64_at_strong_pumping():
    n = select_n_max("collinear_pdc", 1.3)
    assert n == 256
    assert truncation_bound("collinear_pdc", 1.3, n) < 1e-10 <= truncation_bound(
        "collinear_pdc", 1.3, n // 2)


@pytest.mark.parametrize("kind", ["collinear_pdc", "noncollinear_pdc"])
def test_select_n_max_raises_once_the_state_would_not_fit(kind):
    # tanh 25 rounds to 1, so the tail never shrinks: doubling stops at the first
    # n_max whose state build_state would refuse
    with pytest.raises(TruncationError, match="no n_max reaches tail target epsilon=1e-10 "
                                              "at r=25 within the memory budget: n_max=") as err:
        select_n_max(kind, 25.0)
    assert "GiB budget; pass an explicit n_max" in str(err.value)
    assert "\n" not in str(err.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(kind="collinear_pdc", r=-0.1)
    with pytest.raises(ValueError):
        SourceSpec(kind="collinear_pdc", r=0.5, n_max=0)
    with pytest.raises(ValueError):
        SourceSpec(kind="nonsense", r=0.5)
    for field, value in [("r", math.nan), ("r", math.inf), ("phi", -math.inf),
                         ("epsilon", math.nan), ("alpha", complex(1.0, math.nan))]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SourceSpec(kind="coherent", **{field: value})


def test_memory_budget_counts_every_per_amplitude_buffer(monkeypatch):
    # build_state counts 48 bytes per amplitude, its occupations and the amplitude,
    # before it computes any; the state, its eigen-coefficients, a channel output,
    # the layout's vectors and the rotation bases of evolving it whole count where
    # the channel first meets it (test_medium checks that apply_mor refuses before
    # building)
    for kind, largest in (("collinear_pdc", 581), ("noncollinear_pdc", 367)):
        layouts = [build_state(SourceSpec(kind=kind, r=1.0, n_max=n)).layout
                   for n in (largest, largest + 1)]
        assert layouts[0].channel_bytes <= fock.MEMORY_BUDGET_BYTES < layouts[1].channel_bytes

    class Built(Exception):
        pass

    require = sources.require_memory

    def passed(what, needed, purpose):
        require(what, needed, purpose)
        raise Built(needed)

    monkeypatch.setattr(sources, "require_memory", passed)
    for kind, largest, amplitudes in (("collinear_pdc", 44_739_241, 44_739_242),
                                      ("noncollinear_pdc", 9457, 9458 * 9459 // 2)):
        with pytest.raises(Built) as built:
            build_state(SourceSpec(kind=kind, r=3.0, n_max=largest))
        assert built.value.args == (48 * amplitudes,)
        with pytest.raises(ValueError, match=f"n_max={largest + 1} needs .* GiB budget"):
            build_state(SourceSpec(kind=kind, r=3.0, n_max=largest + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["collinear_pdc", "noncollinear_pdc"]),
       st.floats(0.0, 20.0) | st.floats(1e-4, 0.1),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 300))
@example("collinear_pdc", 1e-3, 2.5, 300)
@example("noncollinear_pdc", 1e-3, 0.0, 300)
@example("collinear_pdc", 5e-324, 0.4, 2)
def test_build_state_matches_the_per_sector_reference_bit_for_bit(kind, r, phi, n_max):
    # the occupations and amplitudes written from the running product hold the
    # bits the pair-by-pair reference holds, including where the product underflows
    state = build_state(SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max))
    if kind == "collinear_pdc":
        reference = reference_collinear_state(r, phi, n_max)
    else:
        reference = reference_noncollinear_state(r, n_max)
    assert np.array_equal(state.occupations, reference.occupations)
    assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()
    assert state.truncation_tail == reference.truncation_tail


def test_build_state_rejects_coherent():
    with pytest.raises(ValueError):
        build_state(SourceSpec(kind="coherent", alpha=2.0))


def test_mean_photon_number():
    assert mean_photon_number(SourceSpec(kind="coherent", alpha=2.0)) == 4.0
    col = mean_photon_number(SourceSpec(kind="collinear_pdc", r=1.0))
    assert col == pytest.approx(2.0 * math.sinh(1.0) ** 2, rel=1e-15)
    assert abs(col - 2.76220) < 1e-4
    non = mean_photon_number(SourceSpec(kind="noncollinear_pdc", r=1.0))
    assert non == pytest.approx(4.0 * math.sinh(1.0) ** 2, rel=1e-15)
    assert abs(non - 5.52439) < 1e-4


def test_mean_photon_number_matches_truncated_state():
    # cross-check the closed forms against mode occupations of deep truncations
    col = build_state(SourceSpec(kind="collinear_pdc", r=1.0, n_max=48))
    total = sum(abs(a) ** 2 * sum(occ) for occ, a in amplitude_dict(col).items())
    assert total == pytest.approx(2.0 * math.sinh(1.0) ** 2, rel=1e-8)
    non = build_state(SourceSpec(kind="noncollinear_pdc", r=1.0, n_max=48))
    total = sum(abs(a) ** 2 * sum(occ) for occ, a in amplitude_dict(non).items())
    assert total == pytest.approx(4.0 * math.sinh(1.0) ** 2, rel=1e-8)
