import math
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from morsim import (
    Geometry,
    KetState,
    MediumSpec,
    Mode,
    SourceSpec,
    apply_mor,
    build_state,
    fock,
    make_basis_state,
)
from reference_channel import (
    amplitude_dict,
    lifted_generator,
    max_difference,
    normally_ordered_moment,
    projection_probability,
    reference_centred_bilinear_gram,
    reference_lowered_gram,
    reference_moment,
    reference_rotation_bases,
    rotation_generator,
    rotation_matrix,
    sector_matrix,
    sectors,
    state_from_amplitudes,
    state_from_sectors,
)


def lift_by_expansion(u, n):
    """Independent small-n lift: literal binomial expansion of the substituted
    creation-operator monomials with exact factorial normalization."""
    m = np.zeros((n + 1, n + 1), dtype=complex)
    for kin in range(n + 1):
        n1, n2 = n - kin, kin
        for k in range(n + 1):
            j = n - k
            coeff = 0j
            for a in range(n1 + 1):
                b = j - a
                if b < 0 or b > n2:
                    continue
                coeff += (
                    comb(n1, a) * u[0, 0] ** a * u[0, 1] ** (n1 - a)
                    * comb(n2, b) * u[1, 0] ** b * u[1, 1] ** (n2 - b)
                )
            m[k, kin] = coeff * math.sqrt(factorial(j) * factorial(n - j)) / math.sqrt(
                factorial(n1) * factorial(n2)
            )
    return m


def test_make_basis_state_examples():
    for occ in [(1, 1, 1, 1), (0, 0, 0, 0), (2, 0, 0, 0)]:
        state = make_basis_state(occ)
        assert state.amplitude(occ) == 1.0
        assert state.norm_squared() == 1.0
        assert state.truncation_tail == 0.0


def test_make_basis_state_rejects_negative():
    with pytest.raises(ValueError):
        make_basis_state((1, -1, 0, 0))


def test_inner_product_normalization_and_orthogonality():
    # basis states are orthonormal, and the overlaps <occ|psi> of a source
    # with every stored occupation add up to its norm 1 - tail
    occs = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]
    for bra in occs:
        for ket in occs:
            assert make_basis_state(ket).amplitude(bra) == (1.0 if bra == ket else 0.0)
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.7, n_max=12))
    total = sum(abs(psi.amplitude(occ)) ** 2 for occ in amplitude_dict(psi))
    assert abs(total + psi.truncation_tail - 1.0) < 1e-15


def test_amplitude_reads_every_entry_of_the_sector_blocks():
    # a rotated state fills its blocks densely; amplitude indexes the flat buffer
    out = apply_mor(build_state(SourceSpec(kind="noncollinear_pdc", r=0.8, n_max=5)),
                    MediumSpec(theta=0.7), Geometry.NONCOLLINEAR)
    for (n_a, n_b), x in sectors(out).items():
        for k_a in range(n_a + 1):
            for k_b in range(n_b + 1):
                occ = (n_a - k_a, k_a, n_b - k_b, k_b)
                assert out.amplitude(occ) == x[k_a, k_b]
    assert out.amplitude((1, 0, 0, 0)) == 0j  # no (1, 0) sector


def test_amplitude_finds_every_entry_of_a_deep_channel_output():
    # a binary search of sorted keys: every stored entry, and 0j off the state
    out = apply_mor(build_state(SourceSpec(kind="collinear_pdc", r=1.3, n_max=128)),
                    MediumSpec(theta=0.7, theta_plus=0.2), Geometry.COLLINEAR)
    stored = amplitude_dict(out)
    assert len(stored) > 16_000
    assert all(out.amplitude(occ) == amp for occ, amp in stored.items())
    for occ in [(1, 0, 0, 0), (128, 127, 0, 0), (0, 0, 1, 0), (1, 1, 0, 1), (257, 1, 0, 0),
                (0, 257, 0, 0), (10**6, 0, 0, 0)]:
        assert occ not in stored
        assert out.amplitude(occ) == 0j
    with pytest.raises(ValueError, match="occupation must have 4 entries, got 3"):
        out.amplitude((1, 1, 0))
    with pytest.raises(ValueError, match=r"nonnegative, got \(2, -1, 0, 0\)"):
        out.amplitude((2, -1, 0, 0))


def test_inner_product_noncollinear_four_photon_component():
    # |1111> sits in the n=2, m=1 term: amplitude -tanh^2 r / cosh^2 r
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=1.0, n_max=8))
    amp = psi.amplitude((1, 1, 1, 1))
    expected = math.tanh(1.0) ** 2 / math.cosh(1.0) ** 2
    assert abs(amp + expected) < 1e-15
    assert abs(projection_probability(psi, (1, 1, 1, 1))
               - math.tanh(1.0) ** 4 / math.cosh(1.0) ** 4) < 1e-15


def test_subspace_matrix_identity_lift():
    m = sector_matrix(0.0, 0.0, 3)
    assert np.max(np.abs(m - np.eye(4))) < 1e-14


def test_subspace_matrix_hong_ou_mandel():
    # theta = pi/2 turns the pair into a balanced beam splitter: |1,1> never
    # leaves as one photon per mode
    col = sector_matrix(math.pi / 2, 0.0, 2)[:, 1]  # image of |1,1>
    phase = col[0] / abs(col[0])
    assert abs(col[0] / phase - 1 / math.sqrt(2)) < 1e-14
    assert abs(col[1]) < 1e-14
    assert abs(col[2] / phase + 1 / math.sqrt(2)) < 1e-14


def test_subspace_matrix_rotation_on_one_one_matches_closed_form():
    theta = 0.9
    col = sector_matrix(theta, 0.3, 2)[:, 1]
    phase = col[1] / abs(col[1])
    col = col / phase
    assert abs(col[0] - math.sin(theta) / math.sqrt(2)) < 1e-13
    assert abs(col[1] - math.cos(theta)) < 1e-13
    assert abs(col[2] + math.sin(theta) / math.sqrt(2)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_subspace_matrix_matches_binomial_expansion(n):
    rng = np.random.default_rng(n)
    for theta, theta_plus in rng.uniform(-2 * math.pi, 2 * math.pi, size=(4, 2)):
        got = sector_matrix(theta, theta_plus, n)
        assert np.max(np.abs(got - lift_by_expansion(rotation_matrix(theta, theta_plus), n))) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 7, 40, 120])
def test_subspace_matrix_unitary(n):
    m = sector_matrix(1.1, 0.4, n)
    assert np.max(np.abs(m.conj().T @ m - np.eye(n + 1))) < 1e-12


def test_subspace_matrix_composition():
    # rotations about one axis compose by adding angles, in either order
    for n in (1, 3, 6):
        m1, m2 = sector_matrix(0.6, 0.2, n), sector_matrix(1.3, -0.5, n)
        both = sector_matrix(1.9, -0.3, n)
        assert np.max(np.abs(both - m2 @ m1)) < 1e-12
        assert np.max(np.abs(both - m1 @ m2)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_subspace_matrix_matches_generator_exponential(n):
    # brute force: u = expm(iG) lifts to expm(i sum (G^T)_{kl} a_k^dag a_l)
    theta, theta_plus = 2.3, -0.8
    g = rotation_generator(theta, theta_plus)
    assert np.max(np.abs(expm(1j * g) - rotation_matrix(theta, theta_plus))) < 1e-14
    assert np.max(np.abs(
        sector_matrix(theta, theta_plus, n) - expm(1j * lifted_generator(g, n))
    )) < 1e-12


def test_apply_unitary_identity_is_noop():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.8, n_max=6))
    out = apply_mor(psi, MediumSpec(theta=0.0), Geometry.NONCOLLINEAR)
    assert max_difference(out, psi) < 1e-14


def test_apply_unitary_half_turn_swaps_modes():
    out = apply_mor(make_basis_state((1, 0, 0, 0)), MediumSpec(theta=math.pi),
                    Geometry.COLLINEAR)
    assert abs(abs(out.amplitude((0, 1, 0, 0))) - 1.0) < 1e-14
    assert abs(out.amplitude((1, 0, 0, 0))) < 1e-14


def test_apply_unitary_preserves_norm_and_other_modes():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.9, n_max=8))
    out = apply_mor(psi, MediumSpec(theta=0.7, theta_plus=0.3), Geometry.NONCOLLINEAR)
    assert abs(out.norm_squared() - psi.norm_squared()) < 1e-12
    # photon numbers per beam unchanged per component
    def sector_weight(state, n_a, n_b):
        return sum(abs(a) ** 2 for occ, a in amplitude_dict(state).items()
                   if occ[0] + occ[1] == n_a and occ[2] + occ[3] == n_b)
    for n in range(9):
        assert abs(sector_weight(out, n, n) - sector_weight(psi, n, n)) < 1e-13
    assert all(occ[0] + occ[1] == occ[2] + occ[3] for occ in amplitude_dict(out))


def test_apply_unitary_sequential_composition():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.6, n_max=5))
    step = apply_mor(apply_mor(psi, MediumSpec(0.4, 1.2), Geometry.NONCOLLINEAR),
                     MediumSpec(2.5, -0.3), Geometry.NONCOLLINEAR)
    once = apply_mor(psi, MediumSpec(2.9, 0.9), Geometry.NONCOLLINEAR)
    keys = amplitude_dict(step).keys() | amplitude_dict(once).keys()
    assert max(abs(step.amplitude(k) - once.amplitude(k)) for k in keys) < 1e-12


def test_state_occupations_amplitudes_and_blocks_are_read_only():
    # the channel caches a state's eigen-coefficients, so neither its arrays nor the
    # blocks it lays them out in may change; a channel output holds every entry of
    # the input's blocks, in buffer order
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=0.5, n_max=3))
    out = apply_mor(psi, MediumSpec(theta=0.3), Geometry.NONCOLLINEAR)
    assert psi.eigen_coefficients.shape == psi.buffer.shape
    assert np.array_equal(out.occupations, psi.layout.occupations)
    for state in (psi, out):
        assert np.array_equal(state.buffer[state.layout.positions], state.amplitudes)
        assert state.layout.keys == psi.layout.keys
        for x in (state.occupations, state.amplitudes, *sectors(state).values()):
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0
        for x in sectors(state).values():
            assert np.shares_memory(x, state.buffer)


def test_state_rejects_mismatched_shapes_and_dtypes():
    occupations, amplitudes = np.zeros((4, 3), dtype=np.int64), np.zeros(3, dtype=complex)
    for occ, amp in [(occupations, amplitudes[:2]), (occupations[:3], amplitudes),
                     (occupations.T, amplitudes), (occupations, amplitudes.reshape(3, 1)),
                     (occupations.astype(np.int32), amplitudes),
                     (occupations.astype(float), amplitudes), (occupations, amplitudes.real)]:
        with pytest.raises(ValueError) as refused:
            KetState(occ, amp)
        message = str(refused.value)
        assert message.startswith("a state needs (4, k) int64 occupations and k complex "
                                  "amplitudes, got ") and "\n" not in message


def assert_reflection_symmetric(w):
    """W[n - k', k] = (-1)^(k' + k) W[k', n - k] to the last bit: the half turn squared
    swaps the two modes."""
    n = len(w) - 1
    signs = (-1.0) ** np.add.outer(np.arange(n + 1), np.arange(n + 1))
    assert np.array_equal(w[::-1], signs * w[:, ::-1]), n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 255, 256, 581])
def test_rotation_basis_is_the_exact_eigenbasis(n):
    # eigh serves only as a reference here; the engine builds W by recurrence
    (w,) = fock._rotation_bases([n])
    t = lifted_generator(np.array([[0.0, 1.0], [1.0, 0.0]]), n).real
    lam = np.arange(-n, n + 1, 2.0)
    assert w.shape == (n + 1, n + 1) and w.flags.c_contiguous
    assert np.abs(w.T @ w - np.eye(n + 1)).max() <= 1e-12
    assert np.abs(t @ w - w * lam).max() <= 1e-12
    values, vectors = np.linalg.eigh(t)
    assert np.abs(values - lam).max() <= 1e-9
    signs = np.sign(np.sum(vectors * w, axis=0))
    assert np.abs(vectors * signs - w).max() <= 1e-12
    assert_reflection_symmetric(w)


def test_rotation_bases_do_not_depend_on_request_order(monkeypatch):
    sizes = [0, 1, 2, 5, 17, 40, 64, 65, 100, 128]
    requests = {
        "all_at_once": [sizes],
        "ascending": [[n] for n in sizes],
        "descending": [[n] for n in reversed(sizes)],
        "scattered": [[64], [5, 100], [128, 0, 17], [40, 2, 65], [1]],
    }
    built = {}
    for name, calls in requests.items():
        monkeypatch.setattr(fock, "_ROT_BASIS_CACHE", {})
        for call in calls:
            for n, w in zip(call, fock._rotation_bases(call)):
                assert w.shape == (n + 1, n + 1)
        assert sorted(fock._ROT_BASIS_CACHE) == sizes
        built[name] = {n: w.tobytes() for n, w in fock._ROT_BASIS_CACHE.items()}
    assert all(bases == built["all_at_once"] for bases in built.values())


def test_strong_pumping_layout_builds_its_bases_in_one_pass(monkeypatch):
    # 129 sectors rotate rows of 1..257 entries: one pass of 256 recurrence steps
    steps = []
    step = fock._risbo_step
    monkeypatch.setattr(fock, "_ROT_BASIS_CACHE", {})
    monkeypatch.setattr(fock, "_risbo_step", lambda u, n: steps.append(n) or step(u, n))
    psi = build_state(SourceSpec(kind="collinear_pdc", r=1.3, n_max=128))
    out = apply_mor(psi, MediumSpec(theta=0.3), Geometry.COLLINEAR)
    assert steps == list(range(1, 257))
    assert sorted(fock._ROT_BASIS_CACHE) == list(range(0, 257, 2))
    apply_mor(out, MediumSpec(theta=0.7), Geometry.COLLINEAR)
    apply_mor(build_state(SourceSpec(kind="collinear_pdc", r=0.4, n_max=128)),
              MediumSpec(theta=0.3), Geometry.COLLINEAR)
    assert steps == list(range(1, 257))


def test_rotation_bases_match_the_reference_recurrence_bit_for_bit(monkeypatch):
    # one pass of the engine's recurrence against the reference's, step by step
    monkeypatch.setattr(fock, "_ROT_BASIS_CACHE", {})
    built = fock._rotation_bases(range(301))
    for n, (w, ref) in enumerate(zip(built, reference_rotation_bases(300))):
        assert w.tobytes() == ref.tobytes(), n
        assert_reflection_symmetric(w)


def test_moment_zeroth_power_is_norm():
    psi = build_state(SourceSpec(kind="noncollinear_pdc", r=1.1, n_max=10))
    assert abs(normally_ordered_moment(psi, (0, 0, 0, 0)) - psi.norm_squared()) < 1e-14


def test_moment_number_expectation():
    assert normally_ordered_moment(make_basis_state((2, 0, 0, 0)), (1, 0, 0, 0)) == 2.0


def test_moment_positive_on_random_states():
    rng = np.random.default_rng(3)
    occs = [(2, 1, 0, 0), (0, 3, 1, 0), (1, 1, 1, 1), (4, 0, 0, 2)]
    amps = {occ: complex(*rng.normal(size=2)) for occ in occs}
    state = state_from_amplitudes(amps)
    for powers in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 1, 1, 1)]:
        assert normally_ordered_moment(state, powers) >= 0.0


def test_moment_rejects_negative_powers():
    with pytest.raises(ValueError):
        normally_ordered_moment(make_basis_state((1, 0, 0, 0)), (-1, 0, 0, 0))


def test_projection_probability_examples():
    vacuum = make_basis_state((0, 0, 0, 0))
    assert projection_probability(vacuum, (0, 0, 0, 0)) == 1.0
    assert projection_probability(vacuum, (1, 0, 0, 0)) == 0.0


def test_spectral_decomposition_inequality():
    # <a^dag2 b^dag2 a^2 b^2> >= 2! 2! P(|2,2>) on any state
    rng = np.random.default_rng(7)
    for trial in range(5):
        occs = [(2, 2, 0, 0), (3, 2, 0, 0), (2, 3, 1, 0), (4, 4, 0, 0), (0, 2, 0, 0)]
        amps = {occ: complex(*rng.normal(size=2)) for occ in occs}
        state = state_from_amplitudes(amps)
        moment = normally_ordered_moment(state, (2, 2, 0, 0))
        assert moment >= 4.0 * projection_probability(state, (2, 2, 0, 0)) - 1e-12


@pytest.mark.parametrize("size", [1, 7, 10_000, 23_821])
def test_norm_squared_matches_an_exactly_rounded_sum(size):
    # long buffers too, where a BLAS dot product would hand the sum to its threads
    rng = np.random.default_rng(size)
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    x[rng.random(size) < 0.3] = 0.0
    state = state_from_sectors({(size - 1, 0): x.reshape(size, 1)})
    exact = math.fsum((x.real ** 2).tolist() + (x.imag ** 2).tolist())
    assert abs(state.norm_squared() - exact) <= 1e-15 * exact
    for occ in [(0, 0, 0, 0), (3, 0, 2, 1), (size - 1, 0, 0, 0)]:
        assert make_basis_state(occ).norm_squared() == 1.0


def assert_hermitian(gram):
    # numpy may fuse conj(a) b into a multiply-add, so G[c, c'] and conj(G[c', c])
    # can differ by rounding, bounded by Cauchy-Schwarz
    scale = np.sqrt(np.outer(np.diag(gram).real, np.diag(gram).real))
    assert np.all(np.abs(gram - gram.conj().T) <= 1e-14 * scale)


def check_grams(state, size):
    # the broadcast Gram kernels against their loop-per-multiset references, bit
    # for bit, plus Hermiticity and the diagonal's normally ordered moments
    gram = fock.lowered_gram(state, size)
    assert np.array_equal(gram, reference_lowered_gram(state, size))
    assert_hermitian(gram)
    for powers, moment in zip(fock._multisets(size)[0], np.diag(gram).real):
        expected = reference_moment(state, powers)
        assert abs(moment - expected) <= 1e-13 * expected
    one = fock.lowered_gram(state, 1)
    centred = fock.centred_bilinear_gram(state, one)
    assert np.array_equal(centred, reference_centred_bilinear_gram(state, one))
    assert_hermitian(centred)


@st.composite
def sparse_states(draw):
    """1-4 sectors of up to 6 photons per beam, each amplitude 0 or of size 1e-3..2."""
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                         min_size=1, max_size=4, unique=True))
    part = st.just(0.0) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)
    blocks = {}
    for n_a, n_b in keys:
        values = draw(st.lists(st.tuples(part, part), min_size=(n_a + 1) * (n_b + 1),
                               max_size=(n_a + 1) * (n_b + 1)))
        blocks[(n_a, n_b)] = np.array([complex(*v) for v in values]).reshape(n_a + 1, n_b + 1)
    return state_from_sectors(blocks)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_states(), st.integers(1, 4))
def test_grams_match_the_loop_references_bit_for_bit(state, size):
    check_grams(state, size)


@pytest.mark.parametrize("state", [
    build_state(SourceSpec(kind="collinear_pdc", r=0.0, n_max=4)),
    build_state(SourceSpec(kind="noncollinear_pdc", r=0.0, n_max=4)),
    state_from_sectors({(3, 2): np.zeros((4, 3)), (0, 1): np.zeros((1, 2))}),
    KetState(np.zeros((4, 0), dtype=np.int64), np.zeros(0, dtype=complex)),
    build_state(SourceSpec(kind="collinear_pdc", r=1.3, n_max=128)),
    build_state(SourceSpec(kind="noncollinear_pdc", r=0.9, phi=0.4, n_max=24)),
], ids=["collinear_vacuum", "noncollinear_vacuum", "all_zero", "empty_layout",
        "collinear_strong", "noncollinear"])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_grams_of_edge_and_source_states(state, size):
    check_grams(state, size)


def test_mode_ordering_and_attributes():
    assert Mode.AH < Mode.AV < Mode.BH < Mode.BV
