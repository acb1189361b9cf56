import ast
import functools
import gc
import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsim import (
    KetState,
    MediumSpec,
    Mode,
    ObservableKind,
    ObservableSpec,
    SourceKind,
    SourceSpec,
    apply_mor,
    closed_form_scan,
    detection,
    dominant_frequency,
    fringe_scan,
    min_detectable_angle,
    node_samples,
    oracles,
    sensitivity_curve,
    visibility,
)
from morsim.cli import main as cli_main
from morsim.sources import build_state
from reference_channel import measure, projection_probability, state_from_amplitudes

TWO_PHOTON = ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE)
GLAUBER = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_GLAUBER)
PROJ_NON = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=(1, 1, 1, 1))
PROJ_COL = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=(2, 2, 0, 0))
ND_VAR = ObservableSpec(kind=ObservableKind.ND_VARIANCE)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
PDC_KINDS = st.sampled_from(["collinear_pdc", "noncollinear_pdc"])
PAIRS = [(Mode.AH, Mode.AV), (Mode.AH, Mode.BV), (Mode.BH, Mode.BV)]
EVERY_OBSERVABLE = (
    [ObservableSpec(kind=ObservableKind.INTENSITY, mode=mode) for mode in Mode]
    + [ObservableSpec(kind=kind, pair=pair) for pair in PAIRS
       for kind in (ObservableKind.TWO_PHOTON_COINCIDENCE, ObservableKind.FOUR_PHOTON_GLAUBER,
                    ObservableKind.ND_VARIANCE)]
    + [ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=target)
       for target in ((2, 2, 0, 0), (1, 1, 1, 1), (2, 0, 0, 2))]
)

# all 75 observables: 4 intensities, the 3 pair kinds on the 12 ordered pairs, and the
# 35 projection targets of 4 photons in 4 modes
ALL_OBSERVABLES = (
    [ObservableSpec(kind=ObservableKind.INTENSITY, mode=mode) for mode in Mode]
    + [ObservableSpec(kind=kind, pair=(m1, m2)) for m1 in Mode for m2 in Mode if m1 != m2
       for kind in (ObservableKind.TWO_PHOTON_COINCIDENCE, ObservableKind.FOUR_PHOTON_GLAUBER,
                    ObservableKind.ND_VARIANCE)]
    + [ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=target)
       for target in itertools.product(range(5), repeat=4) if sum(target) == 4]
)


def collinear(r, **kw):
    return SourceSpec(kind="collinear_pdc", r=r, **kw)


def noncollinear(r, **kw):
    return SourceSpec(kind="noncollinear_pdc", r=r, **kw)


def at(source, theta, obs, theta_plus=0.0):
    return fringe_scan(source, [theta], obs, theta_plus)[0]


def test_evaluate_two_photon_spot_values():
    src = collinear(0.5, n_max=48)
    s = math.sinh(0.5)
    got = at(src, 0.0, TWO_PHOTON)
    expected = s * s * math.cosh(0.5) ** 2 + s**4
    assert got == pytest.approx(expected, rel=1e-10)
    assert abs(expected - 0.41901) < 1e-3
    got = at(src, math.pi / 2, TWO_PHOTON)
    assert got == pytest.approx(s**4, rel=1e-10)


def test_evaluate_projection_zero_at_quarter_turn():
    got = at(noncollinear(1.0), math.pi / 4, PROJ_NON)
    assert got < 1e-12


def test_evaluate_projection_is_exact_at_any_r():
    # only the four-photon sector contributes, so no truncation cap applies
    for r in (0.5, 1.3, 3.0):
        got = at(noncollinear(r), 0.3, PROJ_NON)
        assert got == pytest.approx(oracles.noncollinear_four_photon_probability(r, [0.3])[0],
                                    rel=1e-12)
        got = at(collinear(r), 0.3, PROJ_COL)
        assert got == pytest.approx(oracles.collinear_four_photon_probability(r, [0.3])[0],
                                    rel=1e-12)


def test_evaluate_collinear_projection_quarter_turn_anchor():
    # (tanh^4(1)/cosh^2(1)) / 16 at cos(2 theta) = 0
    got = at(collinear(1.0), math.pi / 4, PROJ_COL)
    expected = math.tanh(1.0) ** 4 / math.cosh(1.0) ** 2 / 16.0
    assert got == pytest.approx(expected, rel=1e-10)
    assert abs(expected - 0.0088) < 1e-4


def test_evaluate_glauber_spot_value():
    got = at(collinear(1.0, n_max=96), 0.0, GLAUBER)
    s, c = math.sinh(1.0), math.cosh(1.0)
    expected = 4 * s**4 * c**4 + 16 * s**6 * c * c + 4 * s**8
    assert got == pytest.approx(expected, rel=1e-9)


def test_evaluate_intensity_flat_for_pdc():
    src = collinear(0.7, n_max=40)
    obs = ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH)
    series = fringe_scan(src, np.linspace(0.0, math.pi, 9), obs)
    assert max(series) - min(series) < 1e-12
    assert series[0] == pytest.approx(math.sinh(0.7) ** 2, rel=1e-9)


def test_evaluate_coherent_dispatch():
    src = SourceSpec(kind="coherent", alpha=2.0)
    ih = ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH)
    iv = ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AV)
    assert at(src, 0.0, ih) == 4.0
    got = at(src, math.pi / 3, iv)
    assert got == pytest.approx(4.0 * math.sin(math.pi / 6) ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        at(src, 0.1, TWO_PHOTON)
    with pytest.raises(ValueError):
        at(src, 0.1, ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.BH))


def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE, pair=(Mode.AH, Mode.AH))
    with pytest.raises(ValueError):
        ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=(1, 1, 1, 0))
    with pytest.raises(ValueError):
        ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION)
    with pytest.raises(ValueError):
        ObservableSpec(kind=ObservableKind.INTENSITY)


def test_intensity_mode_given_as_an_integer_is_that_mode():
    # 0 is aH: the coherent aH intensity is |alpha|^2 at theta = 0, not 0
    obs = ObservableSpec(kind=ObservableKind.INTENSITY, mode=0)
    assert obs.mode is Mode.AH
    src = SourceSpec(kind="coherent", alpha=2.0)
    assert at(src, 0.0, obs) == 4.0
    assert closed_form_scan(src, [0.0], obs).tolist() == [4.0]


def test_closed_form_scan_is_the_table_at_each_angle():
    grid = np.linspace(0.0, math.pi, 9)
    values = closed_form_scan(collinear(0.7, n_max=4), grid, GLAUBER)
    assert values.dtype == float
    assert values.tolist() == oracles.collinear_four_photon_counts(0.7, grid)
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_scan(noncollinear(0.7), grid, TWO_PHOTON)


@pytest.mark.parametrize("source", [collinear(0.5), SourceSpec(kind="coherent", alpha=2.0)])
@pytest.mark.parametrize("kind", [ObservableKind.TWO_PHOTON_COINCIDENCE,
                                  ObservableKind.FOUR_PHOTON_GLAUBER, ObservableKind.ND_VARIANCE])
def test_closed_forms_describe_the_ah_av_pair_only(source, kind):
    # the forms hold for the aH/aV detectors; collinear light leaves bH/bV dark
    forward = ObservableSpec(kind=kind)
    backward = ObservableSpec(kind=kind, pair=(Mode.AV, Mode.AH))
    if source.is_pdc:
        assert closed_form_scan(source, [0.3], backward).tolist() \
            == closed_form_scan(source, [0.3], forward).tolist()
    for pair in ((Mode.BH, Mode.BV), (Mode.AH, Mode.BV)):
        obs = ObservableSpec(kind=kind, pair=pair)
        with pytest.raises(ValueError) as refused:
            closed_form_scan(source, [0.3], obs)
        assert str(refused.value) == (f"closed forms describe the AH/AV detector pair, "
                                      f"not {pair[0].name}/{pair[1].name}")
    assert at(collinear(0.5, n_max=16), 0.3,
              ObservableSpec(kind=kind, pair=(Mode.BH, Mode.BV))) == 0.0


def test_fringe_scan_pointwise_equals_evaluate():
    src = noncollinear(0.8, n_max=8)
    grid = np.linspace(0.0, math.pi, 7)
    values = fringe_scan(src, grid, PROJ_NON, theta_plus=0.5)
    for theta, value in zip(grid, values):
        direct = at(src, theta, PROJ_NON, theta_plus=0.5)
        assert value == direct


def test_fringe_scan_refuses_an_empty_grid_and_takes_any_order():
    # a fringe is its values at the caller's angles; the CLI's grids alone must increase
    with pytest.raises(ValueError, match="^theta grid must be nonempty$"):
        fringe_scan(collinear(0.5, n_max=8), [], TWO_PHOTON)
    for grid in ([2.0, 0.5, 2.0, -1.0], np.linspace(3.0, -3.0, 25)):
        values = fringe_scan(collinear(0.5, n_max=8), grid, TWO_PHOTON)
        assert values.shape == (len(grid),) and values.dtype == float
        assert values == pytest.approx([at(collinear(0.5, n_max=8), t, TWO_PHOTON) for t in grid],
                                       rel=1e-13)


def test_fringe_periodicity_checks_out_numerically():
    # Eq-12-type fringes repeat after pi, projection fringes after pi/2
    src = collinear(0.6, n_max=32)
    a = at(src, 0.4, TWO_PHOTON)
    b = at(src, 0.4 + math.pi, TWO_PHOTON)
    assert a == pytest.approx(b, rel=1e-10)
    srcn = noncollinear(0.6, n_max=8)
    a = at(srcn, 0.4, PROJ_NON)
    b = at(srcn, 0.4 + math.pi / 2, PROJ_NON)
    assert a == pytest.approx(b, rel=1e-10)


def test_visibility_two_photon_closed_form():
    # numeric fringe at its six nodes; its minimum at pi/2 is not one of them
    src = collinear(1.0, n_max=96)
    v = visibility(node_samples([src], TWO_PHOTON)[0])
    assert v == pytest.approx(oracles.two_photon_visibility_closed(1.0), rel=1e-8)
    assert abs(v - 0.46295) < 1e-3


def test_visibility_two_photon_approaches_one_at_weak_pumping():
    src = collinear(0.01, n_max=8)
    assert visibility(node_samples([src], TWO_PHOTON)[0]) > 0.999


def test_visibility_four_photon_glauber_near_one_at_weak_pumping():
    src = collinear(0.01, n_max=8)
    assert visibility(node_samples([src], GLAUBER)[0]) > 0.999


def test_visibility_undefined_for_all_zero_series():
    with pytest.raises(ValueError):
        visibility((0.0,) * 4)


@pytest.mark.parametrize("values", [(math.nan, 1.0, 0.5, 1.0), (1.0, math.nan, 0.5, 1.0),
                                    (1.0, 0.5, math.nan, 1.0), (1.0, 0.5, 1.0, math.nan)])
def test_a_nan_anywhere_in_a_fringe_gives_a_nan_visibility(values):
    assert math.isnan(visibility(values))


@pytest.mark.parametrize("samples", [[], [1.0], [1.0, 0.5], np.ones(5), np.ones(513),
                                     np.ones((2, 4)), np.ones((1, 6))])
def test_visibility_refuses_a_sample_count_other_than_2k_plus_2(samples):
    # the 2K + 2 node samples of one fringe, K >= 1: 4, 6, 8, ... of them in one row
    with pytest.raises(ValueError, match="^visibility needs the 2K \\+ 2 node samples"):
        visibility(samples)


# an even fringe p(cos theta), p in ascending powers of x, and its visibility
OFF_NODE_EXTREMES = [
    ((0.5, 0.0, 1.0), 0.5),  # x^2 + 1/2: its minimum at pi/2 lies between the nodes
    ((0.19, -0.6, 1.0), 1.69 / 1.89),  # (x - 0.3)^2 + 0.1: a minimum off the symmetric points
    ((1.0, -1.0, 0.0, 1.0), 2.0 / (3.0 * math.sqrt(3.0))),  # both extremes between nodes
    ((1.0, 0.0, 0.0, 0.0, 1.0), 1.0 / 3.0),  # x^4 + 1: a triple root of p' at x = 0
]


@pytest.mark.parametrize("powers, expected", OFF_NODE_EXTREMES)
def test_visibility_finds_extremes_between_the_nodes(powers, expected):
    nodes = detection._nodes(len(powers) - 1)
    values = np.polyval(powers[::-1], np.cos(nodes))
    assert visibility(values) == pytest.approx(expected, rel=1e-13)


def test_a_minimum_that_rounding_puts_below_0_reads_as_0():
    # x^2 - 1e-3 dips below 0 between the nodes; as a count it would read (1, 0), not
    # (1 - 1e-3, -1e-3), whose visibility 1 / (1 - 2e-3) passes 1
    nodes = detection._nodes(2)
    assert visibility(np.cos(nodes) ** 2 - 1e-3) == 1.0


@pytest.mark.parametrize("peak", [5e-324, 1e-320, 2.2250738585072009e-308])
def test_visibility_refuses_a_fringe_whose_largest_sample_is_subnormal(peak):
    with pytest.raises(ValueError, match="subnormal"):
        visibility([peak, peak / 2, 0.0, peak / 2])
    # the smallest normal float keeps its digits
    tiny = np.finfo(float).tiny
    assert visibility([tiny, tiny / 2, 0.0, tiny / 2]) == 1.0


def _nd_variance(source, theta):
    return at(source, theta, ND_VAR)


def test_nd_variance_zero_without_rotation():
    assert _nd_variance(collinear(1.0, n_max=48), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert _nd_variance(SourceSpec(kind="coherent", alpha=3.0), 0.0) == 0.0


def test_nd_variance_coherent():
    got = _nd_variance(SourceSpec(kind="coherent", alpha=3.0), math.pi / 2)
    assert got == pytest.approx(9.0, rel=1e-12)


def test_nd_variance_collinear_matches_closed_form():
    src = collinear(1.0, n_max=96)
    got = _nd_variance(src, math.pi / 2)
    expected = 4.0 * math.sinh(1.0) ** 2 * math.cosh(1.0) ** 2
    assert got == pytest.approx(expected, rel=1e-8)
    assert abs(expected - 13.1539) < 1e-3
    for theta in (0.3, 1.1, 2.5):
        got = _nd_variance(src, theta)
        assert got == pytest.approx(oracles.collinear_nd_variance(1.0, [theta])[0], rel=1e-8)


def test_min_detectable_angle():
    assert min_detectable_angle(SourceSpec(kind="coherent", alpha=10.0)) == pytest.approx(
        math.asin(0.1), rel=1e-12
    )
    got = min_detectable_angle(collinear(1.0))
    assert got == pytest.approx(math.asin(1.0 / math.sinh(2.0)), rel=1e-12)
    assert abs(got - 0.27935) < 1e-3
    with pytest.raises(ValueError):
        min_detectable_angle(SourceSpec(kind="coherent", alpha=1.0))
    with pytest.raises(ValueError):
        min_detectable_angle(noncollinear(2.0))


def test_sensitivity_curve_slopes():
    mean_n = np.geomspace(10.0, 1.0e4, 25)
    theta_m, slope = sensitivity_curve("collinear_pdc", mean_n)
    assert theta_m == [min_detectable_angle(collinear(math.asinh(math.sqrt(n / 2.0))))
                       for n in mean_n]
    assert slope == pytest.approx(-1.0, abs=0.02)
    assert sensitivity_curve("coherent", mean_n)[1] == pytest.approx(-0.5, abs=0.02)
    with pytest.raises(ValueError, match="coherent and collinear"):
        sensitivity_curve("noncollinear_pdc", mean_n)


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.5), st.integers(1, 48), ANGLES)
def test_glauber_dominates_projection(kind, r, n_max, theta):
    # I_HHVV = sum |psi|^2 n_H(n_H-1) n_V(n_V-1) >= 2! 2! P(|2,2>), on either pair
    source = SourceSpec(kind=kind, r=r, n_max=n_max)
    for pair, target in (((Mode.AH, Mode.AV), (2, 2, 0, 0)), ((Mode.AH, Mode.BV), (2, 0, 0, 2))):
        glauber = at(source, theta,
                     ObservableSpec(kind=ObservableKind.FOUR_PHOTON_GLAUBER, pair=pair))
        proj = at(source, theta, ObservableSpec(
            kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=target))
        assert glauber >= 4.0 * proj - 1e-12


def test_dominant_frequency_hierarchy():
    coh = SourceSpec(kind="coherent", alpha=1.0)
    ih = ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH)
    f_coh = dominant_frequency(coh, ih)
    f_two = dominant_frequency(collinear(0.5, n_max=32), TWO_PHOTON)
    f_four = dominant_frequency(noncollinear(0.5, n_max=8), PROJ_NON)
    assert (f_coh, f_two, f_four) == (1, 2, 4)


def test_dominant_frequency_refuses_a_nan_fringe(monkeypatch):
    def nan_apply_mor(state, medium):
        out = apply_mor(state, medium)
        return KetState(out.occupations, np.full_like(out.amplitudes, np.nan),
                        out.truncation_tail)

    monkeypatch.setattr(detection, "apply_mor", nan_apply_mor)
    with pytest.raises(ValueError, match="not finite"):
        dominant_frequency(collinear(0.5, n_max=32), TWO_PHOTON)


def _reference_dominant_frequency(source, obs):
    # the argmax of a 256-point FFT of direct samples over one turn
    thetas = 2.0 * math.pi * np.arange(256) / 256.0
    if source.kind is SourceKind.COHERENT:
        samples = closed_form_scan(source, thetas, obs)
    else:
        state = build_state(source)
        samples = [measure(apply_mor(state, MediumSpec(theta=float(t))), obs)
                   for t in thetas]
    return int(np.argmax(np.abs(np.fft.rfft(samples))[1:]) + 1)


BV_PAIR = (Mode.AH, Mode.BV)
FREQUENCY_CASES = (
    [(SourceSpec(kind="coherent", alpha=1.5), obs)
     for obs in (ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AH), ND_VAR)]
    # the degree and the harmonics do not depend on the truncation depth
    + [(collinear(r, n_max=32), obs)
       for r in (0.1, 1.3) for obs in (TWO_PHOTON, ND_VAR, GLAUBER, PROJ_COL)]
    + [(noncollinear(0.5, n_max=8), obs)
       for obs in (PROJ_NON, ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE,
                                            pair=BV_PAIR),
                   ObservableSpec(kind=ObservableKind.FOUR_PHOTON_GLAUBER, pair=BV_PAIR))]
)


@pytest.mark.parametrize("source, obs", FREQUENCY_CASES,
                         ids=[f"{s.kind.value}-{o.kind.value}-r{s.r}" for s, o in FREQUENCY_CASES])
def test_dominant_frequency_matches_a_long_fft_of_direct_samples(source, obs):
    assert dominant_frequency(source, obs) == _reference_dominant_frequency(source, obs)


# fringes with no harmonic above c_0: a mode's mean photon number does not
# move under either PDC source, and the collinear source's b beam is empty
FLAT_CASES = (
    [(SourceSpec(kind=kind, r=r, n_max=8),
      ObservableSpec(kind=ObservableKind.INTENSITY, mode=mode))
     for kind in ("collinear_pdc", "noncollinear_pdc") for r in (0.5, 0.9) for mode in Mode]
    + [(collinear(0.7, n_max=40),
        ObservableSpec(kind=ObservableKind.ND_VARIANCE, pair=(Mode.BH, Mode.BV)))]
)


# each id names the source kind, then the geometry that kind decides
@pytest.mark.parametrize("source, obs", FLAT_CASES,
                         ids=[f"{s.kind.value}-{s.kind.value.removesuffix('_pdc')}-"
                              f"{o.kind.value}-{o.mode}-r{s.r}" for s, o in FLAT_CASES])
def test_dominant_frequency_is_0_for_a_fringe_that_does_not_oscillate(source, obs):
    assert dominant_frequency(source, obs) == 0


def _definitions(tree):
    """Names of the top-level functions and of the classmethods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body if isinstance(f, ast.FunctionDef)
                        and any(getattr(d, "id", None) == "classmethod" for d in f.decorator_list))


def _references(node, owner=None):
    """Every name and attribute under ``node``, called or passed on as a value,
    except inside the body of a function that bears the same name."""
    if isinstance(node, ast.FunctionDef):
        owner = node.name
    name = getattr(node, "id", getattr(node, "attr", None))
    if isinstance(name, str) and name != owner:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, owner)


def test_every_function_has_a_use_in_the_package():
    # no module keeps a function or classmethod, public or private, that only tests reach
    trees = [ast.parse(path.read_text()) for path in Path(detection.__file__).parent.glob("*.py")]
    defined = {name for tree in trees for name in _definitions(tree)}
    used = {name for tree in trees for name in _references(tree)}
    assert sorted(defined - used) == []


def test_only_fock_and_medium_know_the_sector_blocks():
    # a state is its occupations and amplitudes; only the channel lays it out in blocks
    for path in Path(detection.__file__).parent.glob("*.py"):
        if path.stem in ("fock", "medium"):
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {getattr(node, "id", getattr(node, "name", None)) for node in nodes}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert "SectorLayout" not in names | attributes, path.name
        assert not {"buffer", "layout"} & attributes, path.name


def test_no_module_binds_a_process_wide_cache():
    # a top-level empty container is state that every caller shares for the life of
    # the process, where no memory check sees it; a cache belongs to the object whose
    # result it holds, and is freed with it
    empty = {"{}", "[]", "set()", "dict()", "list()"}
    for path in Path(detection.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                assert not {ast.unparse(v) for v in values} & empty, f"{path.name}:{node.lineno}"


def test_observables_independent_of_pump_phase():
    grid = np.linspace(0.0, math.pi, 9)
    base = fringe_scan(collinear(0.9, phi=0.0, n_max=48), grid, TWO_PHOTON)
    shifted = fringe_scan(collinear(0.9, phi=1.3, n_max=48), grid, TWO_PHOTON)
    assert max(abs(a - b) for a, b in zip(base, shifted)) < 1e-12


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.2), st.integers(1, 24), ANGLES,
       st.tuples(ANGLES, ANGLES), st.tuples(ANGLES, ANGLES))
def test_observables_invariant_under_theta_plus_and_pump_phase(kind, r, n_max, theta,
                                                               first, second):
    # theta_plus and the pump phase only rephase whole photon-number sectors
    values = []
    for phi, theta_plus in (first, second):
        source = SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max)
        values.append([at(source, theta, obs, theta_plus) for obs in EVERY_OBSERVABLE])
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=1e-12)


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
       st.integers(1, 24), ANGLES,
       st.lists(st.tuples(ANGLES, st.floats(0.05, 7.0) | st.floats(-7.0, -0.05)),
                min_size=1, max_size=6))
def test_a_batch_of_media_reads_each_medium_with_the_bits_it_has_alone(kind, rs, n_max,
                                                                        phi, angles):
    # every observable over the whole stack of one-photon matrices at once, and one
    # reading of the channel for several sources, give each medium and source the
    # bits of a sample of that source alone at that medium alone
    sources = [SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max) for r in rs]
    media = [MediumSpec(theta, theta_plus) for theta, theta_plus in angles]
    shared = detection._sample(sources, EVERY_OBSERVABLE, media)
    assert shared.shape == (len(sources), len(media), len(EVERY_OBSERVABLE))
    for i, source in enumerate(sources):
        batch = detection._sample([source], EVERY_OBSERVABLE, media)[0]
        alone = np.concatenate([detection._sample([source], EVERY_OBSERVABLE,
                                                  [medium])[0] for medium in media])
        assert batch.shape == alone.shape == (len(media), len(EVERY_OBSERVABLE))
        assert batch.tobytes() == alone.tobytes()
        assert shared[i].tobytes() == alone.tobytes()


# one observable of each kind, of degrees 1, 2, 2, 4 and 4
ONE_OF_EACH_DEGREE = [ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AV), TWO_PHOTON,
                      ND_VAR, GLAUBER, PROJ_COL]


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(PDC_KINDS, st.floats(0.0, 1.2), st.integers(1, 24)),
                min_size=1, max_size=4), ANGLES)
def test_a_batch_of_sources_reads_each_source_with_the_bits_it_has_alone(draws, theta_plus):
    # one channel read at the nodes serves the whole batch, and each row is the
    # row of that source sampled alone
    sources = [SourceSpec(kind=kind, r=r, n_max=n_max) for kind, r, n_max in draws]
    for obs in ONE_OF_EACH_DEGREE:
        batch = node_samples(sources, obs, theta_plus)
        assert batch.shape == (len(sources), 2 * detection._fringe_degree(obs) + 2)
        for i, source in enumerate(sources):
            assert batch[i].tobytes() == node_samples([source], obs, theta_plus)[0].tobytes()


# the collinear closed forms: the table has no PDC intensity
@pytest.mark.parametrize("obs", [TWO_PHOTON, ND_VAR, GLAUBER, PROJ_COL])
def test_node_samples_are_the_fringe_at_its_nodes(obs):
    sources = [collinear(r) for r in (0.3, 0.9)]
    nodes = detection._nodes(detection._fringe_degree(obs))
    numeric, exact = (node_samples(sources, obs, exact=exact) for exact in (False, True))
    for source, engine, closed in zip(sources, numeric, exact):
        assert engine.tobytes() == fringe_scan(source, nodes, obs).tobytes()
        assert closed.tobytes() == closed_form_scan(source, nodes, obs).tobytes()
        assert engine == pytest.approx(closed, rel=1e-8, abs=1e-12)


def test_a_batch_holds_one_state_at_a_time(monkeypatch):
    # each source is built and read before the next is built, so a long sweep's
    # memory is one state and its Gram matrices, not all of them
    built = []

    def recorded(spec):
        gc.collect()
        assert all(ref() is None for ref in built)
        state = build_state(spec)
        built.append(weakref.ref(state))
        return state

    monkeypatch.setattr(detection, "build_state", recorded)
    detection._sample([collinear(r, n_max=16) for r in (0.2, 0.6, 1.0)], [GLAUBER, TWO_PHOTON],
                      [MediumSpec(theta=t) for t in (0.0, 0.4)])
    assert len(built) == 3


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.2), ANGLES, st.integers(1, 24), ANGLES, ANGLES)
def test_every_observable_is_even_in_theta(kind, r, phi, n_max, theta, theta_plus):
    # visibility reads each fringe as a polynomial in cos theta, which only an even one is
    assert len(ALL_OBSERVABLES) == 75
    source = SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max)
    angles = [theta, -theta, *detection._nodes(4)]
    values = detection._sample([source], ALL_OBSERVABLES,
                               [MediumSpec(angle, theta_plus) for angle in angles])[0]
    largest = np.abs(values).max(axis=0)
    assert np.all(np.abs(values[0] - values[1]) <= 1e-13 * largest)


def _node(j, degree):
    # the sampling nodes 2 pi j / (2K + 2), computed as fringe_scan does
    return math.pi * j / (degree + 1)


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.5), st.integers(1, 48), ANGLES, ANGLES)
def test_fringes_have_no_harmonic_above_the_detected_photon_number(kind, r, n_max,
                                                                    theta_plus, phi):
    # 2K + 3 direct samples over one turn: harmonics K + 1 and K + 2 land in
    # the DFT bin K + 1, which must be empty
    source = SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max)
    for degree in (1, 2, 4):
        observables = [o for o in EVERY_OBSERVABLE if detection._fringe_degree(o) == degree]
        assert observables
        n = 2 * degree + 3
        samples = detection._sample([source], observables,
                                    [MediumSpec(theta=2 * math.pi * j / n, theta_plus=theta_plus)
                                     for j in range(n)])[0]
        above = 2.0 * np.abs(np.fft.rfft(samples, axis=0)[degree + 1:]) / n
        assert np.all(above <= 1e-13 * np.abs(samples).max(axis=0))


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.5), st.integers(1, 24), ANGLES,
       st.sampled_from(EVERY_OBSERVABLE), st.data())
def test_fringe_scan_reconstructs_direct_evaluation(kind, r, n_max, theta_plus, obs, data):
    source = SourceSpec(kind=kind, r=r, n_max=n_max)
    degree = detection._fringe_degree(obs)
    nodes = [_node(j, degree) for j in range(2 * degree + 2)]
    angles = st.one_of(st.floats(-3 * math.pi, 5 * math.pi), st.sampled_from(nodes))
    grid = sorted(data.draw(st.sets(angles, min_size=2 * degree + 3, max_size=2 * degree + 12)))
    values = fringe_scan(source, grid, obs, theta_plus=theta_plus)
    direct = [at(source, t, obs, theta_plus=theta_plus) for t in grid]
    scale = max(map(abs, direct))
    for theta, value, expected in zip(grid, values, direct):
        if theta in nodes:
            assert value == expected
        assert abs(value - expected) <= 1e-13 * scale


def _count_channel_calls(monkeypatch):
    """The (theta, photons in the largest sector) of every call of the channel that
    ``detection`` holds: every observable reads T off the one-photon probes."""
    calls = []

    def counted(state, medium):
        calls.append((medium.theta, max(map(sum, state.layout.keys))))
        return apply_mor(state, medium)

    monkeypatch.setattr(detection, "apply_mor", counted)
    return calls


def _distinct_angles(calls):
    """The angles of the calls in order, each run of equal angles counted once."""
    return [theta for i, (theta, _) in enumerate(calls) if i == 0 or theta != calls[i - 1][0]]


def test_a_long_sweep_costs_2k_plus_2_channel_calls(monkeypatch, capsys):
    calls = _count_channel_calls(monkeypatch)
    assert cli_main(["fringe", "--source", "collinear", "--r", "1.3", "--n-max", "128",
                     "--observable", "four-photon-glauber", "--points", "201",
                     "--mode", "both"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 202
    assert _distinct_angles(calls) == [_node(j, 4) for j in range(10)]
    assert {photons for _, photons in calls} == {1}
    # the dominant frequency reads the coefficients off the same ten node angles
    calls.clear()
    assert dominant_frequency(collinear(1.3, n_max=128), GLAUBER) == 2
    assert _distinct_angles(calls) == [_node(j, 4) for j in range(10)]
    # a projection reads the same probes: no call carries the target's four photons
    calls.clear()
    fringe_scan(noncollinear(0.5, n_max=40), np.linspace(0.0, math.pi, 201), PROJ_NON,
                theta_plus=0.3)
    assert _distinct_angles(calls) == [_node(j, 4) for j in range(10)]
    assert {photons for _, photons in calls} == {1}


@pytest.mark.parametrize("obs", [ObservableSpec(kind=ObservableKind.INTENSITY, mode=Mode.AV),
                                 TWO_PHOTON, ND_VAR, GLAUBER, PROJ_COL])
def test_a_short_sweep_is_evaluated_point_by_point(monkeypatch, obs):
    calls = _count_channel_calls(monkeypatch)
    points = 2 * detection._fringe_degree(obs) + 2
    grid = np.linspace(0.1, 2.0, points)
    fringe_scan(collinear(0.6, n_max=16), grid, obs, theta_plus=0.3)
    assert _distinct_angles(calls) == list(grid)


def test_every_source_reads_the_channel_through_one_probe_pair(monkeypatch):
    # collinear and non-collinear PDC read T off the same two probes, whichever
    # beams their photons fill
    probes = detection._one_photon_probes()
    seen = []

    def recorded(state, medium):
        seen.append(state)
        return apply_mor(state, medium)

    monkeypatch.setattr(detection, "apply_mor", recorded)
    grid = np.linspace(0.0, math.pi, 5)
    fringe_scan(collinear(0.5, n_max=8), grid, TWO_PHOTON)
    fringe_scan(noncollinear(0.5, n_max=8), grid, PROJ_NON)
    at(collinear(0.5, n_max=8), 0.3, GLAUBER)
    assert len(seen) == 2 * (len(grid) + len(grid) + 1)
    assert all(any(state is probe for probe in probes) for state in seen)


def test_projection_builds_only_the_target_depth(monkeypatch):
    from morsim import fock

    built = []

    def recorded(spec):
        built.append(spec.n_max)
        return build_state(spec)

    sizes = []
    bases = fock._rotation_bases
    monkeypatch.setattr(fock, "_rotation_bases", lambda n: sizes.extend(n) or bases(n))
    monkeypatch.setattr(detection, "_one_photon_probes",
                        functools.cache(detection._one_photon_probes.__wrapped__))
    monkeypatch.setattr(detection, "build_state", recorded)
    grid = np.linspace(0.0, math.pi, 7)
    deep = fringe_scan(noncollinear(0.5, n_max=200), grid, PROJ_NON)
    default = fringe_scan(noncollinear(0.5), grid, PROJ_NON)
    assert deep.tolist() == default.tolist()
    # (1,1,1,1) lies in sector (2, 2): two pairs, read off one-photon probes
    assert built == [2, 2]
    assert max(sizes) == 1

    # (2,2,0,0) lies in sector (4, 0): two collinear pairs, not four
    built.clear()
    deep = fringe_scan(collinear(0.5, n_max=200), grid, PROJ_COL)
    default = fringe_scan(collinear(0.5), grid, PROJ_COL)
    assert built == [2, 2]
    assert deep.tolist() == default.tolist()
    # the Schroedinger reading off a four-pair state, to rounding
    four_pairs = build_state(collinear(0.5, n_max=4))
    reference = [projection_probability(apply_mor(four_pairs, MediumSpec(theta=t)),
                                        PROJ_COL.target) for t in grid]
    assert np.abs(np.subtract(default, reference)).max() <= 1e-15 * max(reference)


NONZERO_ANGLES = st.floats(0.05, 2 * math.pi) | st.floats(-2 * math.pi, -0.05)
# ten angles over one turn: every fringe of degree K <= 4 is fixed by its values there,
# so the largest of them is the scale of the fringe
TURN = [2 * math.pi * j / 10 for j in range(10)]


def _assert_close_to_the_reference(heisenberg, schroedinger):
    """Per observable, every value within 1e-13 of its fringe's largest reference
    value, over angles that include ``TURN``.  A fringe that is 0 in exact
    arithmetic reads rounding noise in both pictures, so no scale is taken below
    1e-13 of the largest fringe of all."""
    heisenberg, schroedinger = np.array(heisenberg), np.array(schroedinger)
    scale = np.abs(schroedinger).max(axis=0)
    scale = np.maximum(scale, 1e-13 * scale.max())
    assert np.all(np.abs(heisenberg - schroedinger) <= 1e-13 * scale)


@PROPERTY_SETTINGS
@given(PDC_KINDS, st.floats(0.0, 1.2), st.integers(1, 16), NONZERO_ANGLES, NONZERO_ANGLES,
       st.lists(ANGLES, min_size=1, max_size=4))
def test_heisenberg_moments_match_the_schroedinger_reference(kind, r, n_max, theta_plus,
                                                             phi, thetas):
    # v^dag G v from the source's Gram matrices, and v . g from its vacuum
    # overlaps, with the channel's one-photon matrix against the readings of the
    # evolved state, at theta_plus, phi != 0
    source = SourceSpec(kind=kind, r=r, phi=phi, n_max=n_max)
    state = build_state(source)
    media = [MediumSpec(theta, theta_plus) for theta in thetas + TURN]
    _assert_close_to_the_reference(
        detection._sample([source], EVERY_OBSERVABLE, media)[0],
        [[measure(apply_mor(state, medium), obs) for obs in EVERY_OBSERVABLE]
         for medium in media])


@st.composite
def normalized_superpositions(draw, b_beam):
    """Up to six occupations with at most three photons per mode and random
    complex amplitudes, normalized; the b beam stays empty unless b_beam, as a
    collinear source leaves it."""
    n_b = 3 if b_beam else 0
    occ = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, n_b), st.integers(0, n_b))
    amp = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    amps = draw(st.dictionaries(occ, amp, min_size=1, max_size=6))
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return state_from_amplitudes({k: a / norm for k, a in amps.items()})


def _reference_and_heisenberg(state, media, transform=lambda t: t):
    """Per medium, every observable read off the evolved state and in the Heisenberg
    picture from the channel's one-photon matrix, passed through ``transform`` first."""
    ts = detection._one_photon_matrices(media)
    reference = [[measure(apply_mor(state, medium), obs) for obs in EVERY_OBSERVABLE]
                 for medium in media]
    heisenberg = detection._read(state, EVERY_OBSERVABLE, np.array([transform(t) for t in ts]))
    return reference, heisenberg


@PROPERTY_SETTINGS
@given(st.sampled_from((False, True)).flatmap(normalized_superpositions),
       ANGLES, NONZERO_ANGLES)
def test_heisenberg_moments_of_any_superposition_match_the_schroedinger_reference(
        state, theta, theta_plus):
    # a superposition without the sources' symmetries sees which way T acts: its
    # single-mode intensities move with theta
    media = [MediumSpec(t, theta_plus) for t in [theta] + TURN]
    reference, heisenberg = _reference_and_heisenberg(state, media)
    _assert_close_to_the_reference(heisenberg, reference)


@pytest.mark.parametrize("variant", ["transpose", "adjoint"])
def test_a_transposed_one_photon_matrix_misses_the_reference(variant):
    # the properties above tell T from T^T and T^dag.  T is a phase per beam
    # times a real rotation, so conj(T) only flips those phases, which no
    # normally ordered moment sees: it gives the reference values too
    state = state_from_amplitudes({(1, 0, 0, 0): 0.6, (0, 1, 0, 0): 0.48, (2, 0, 1, 0): 0.64})
    media = [MediumSpec(theta=t, theta_plus=0.4) for t in TURN]
    reference, right = _reference_and_heisenberg(state, media)
    _, wrong = _reference_and_heisenberg(state, media,
                                         {"transpose": np.transpose,
                                          "adjoint": lambda t: t.conj().T}[variant])
    _, conjugated = _reference_and_heisenberg(state, media, np.conj)
    _assert_close_to_the_reference(right, reference)
    _assert_close_to_the_reference(conjugated, reference)
    intensities = [i for i, obs in enumerate(EVERY_OBSERVABLE)
                   if obs.kind is ObservableKind.INTENSITY]
    assert np.abs(np.array(wrong) - reference)[:, intensities].max() > 0.1
