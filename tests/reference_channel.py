"""Independent reference for the polarization-rotation channel.

Each (n_a, n_b) photon-number sector is evolved by scipy's ``expm`` of the
generator lifted from the 2x2 rotation generator; nothing is shared with the
engine's cached J_y eigenbasis.  Sector index k <-> |n-k, k> (k photons in
the V mode), as in the engine.  ``sector_matrix`` and ``max_difference`` are
the helpers that put the engine's output next to the reference;
``sectors`` reads the blocks the channel lays a state out in,
``amplitude_dict`` its nonzero amplitudes by occupation tuple,
``state_from_sectors`` and ``state_from_amplitudes`` build test states from
blocks or occupation tuples, ``reference_collinear_state`` /
``reference_noncollinear_state`` build PDC states pair by pair for
``build_state`` to reproduce bit for bit, and
``normally_ordered_moment``, ``projection_probability`` and ``measure`` read a
detector value off an evolved state in the Schroedinger picture, the reference
the engine's Heisenberg-picture readings are checked against, and
``reference_moment`` / ``reference_nd_variance`` are the per-occupation loops
that check them in turn.  ``reference_rotation_bases`` is the full-row two-path recurrence, kept apart
so that no edit of the engine's can change the bases' bits unseen, and ``reference_lowered_gram`` /
``reference_centred_bilinear_gram`` (with ``reference_gram``) are the Gram kernels
with one loop pass per multiset or bilinear that the engine's broadcast ones must
reproduce bit for bit.
"""

import cmath
import math
from itertools import product

import numpy as np
from scipy.linalg import expm

from morsim import (KetState, MediumSpec, ObservableKind, SourceKind, apply_mor,
                    make_basis_state, truncation_tail)
from morsim.detection import _detector_powers
from morsim.fock import _encode, _multisets


def rotation_matrix(theta, theta_plus=0.0):
    """e^{i theta_plus} e^{i theta/2} [[cos, -sin], [sin, cos]](theta/2), acting
    on the (H, V) creation operators: rows are the images."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return cmath.exp(1j * (theta_plus + theta / 2.0)) * np.array([[c, -s], [s, c]])


def rotation_generator(theta, theta_plus=0.0):
    """Hermitian g with expm(1j * g) == rotation_matrix(theta, theta_plus)."""
    return ((theta_plus + theta / 2.0) * np.eye(2)
            + (theta / 2.0) * np.array([[0.0, 1j], [-1j, 0.0]]))


def lifted_generator(g, n):
    """sum_kl (g^T)_kl a_k^dag a_l on the n-photon subspace of a mode pair."""
    ks = np.arange(n + 1)
    out = np.diag(g[0, 0] * (n - ks) + g[1, 1] * ks).astype(complex)
    for k in range(1, n + 1):
        hop = math.sqrt((n - k + 1) * k)
        out[k - 1, k] = g[1, 0] * hop
        out[k, k - 1] = g[0, 1] * hop
    return out


def sector_unitary(theta, theta_plus, n):
    """The pair rotation on n photons; column k is the image of |n-k, k>."""
    return expm(1j * lifted_generator(rotation_generator(theta, theta_plus), n))


def sectors(state):
    """{(n_a, n_b): block} of a state: read-only views into the flat buffer the
    channel lays it out in."""
    layout = state.layout
    return {key: state.buffer[entries].reshape(shape)
            for key, shape, entries in zip(layout.keys, layout.shapes, layout.entries)}


def amplitude_dict(state):
    """The nonzero amplitudes keyed by occupation tuple, as a new dict."""
    return {occ: amp for occ, amp in zip(zip(*state.occupations.tolist()),
                                         state.amplitudes.tolist()) if amp != 0}


def _state(occupations, amplitudes, tail):
    """KetState over a list of occupation tuples and their amplitudes."""
    return KetState(np.array(occupations, dtype=np.int64).reshape(-1, 4).T,
                    np.array(amplitudes, dtype=complex), tail)


def state_from_sectors(blocks, tail=0.0):
    """KetState holding every entry of the given {(n_a, n_b): block} sectors, in
    dict order: entry [k_a, k_b] is |n_a-k_a, k_a, n_b-k_b, k_b>."""
    occupations, amplitudes = [], []
    for (n_a, n_b), x in blocks.items():
        for (k_a, k_b), amp in np.ndenumerate(x):
            occupations.append((n_a - k_a, k_a, n_b - k_b, k_b))
            amplitudes.append(amp)
    return _state(occupations, amplitudes, tail)


def state_from_amplitudes(amps, tail=0.0):
    """KetState holding the given {occupation: amplitude} components."""
    return _state(list(amps), list(amps.values()), tail)


def reference_collinear_state(r, phi, n_max):
    """Two-mode squeezed vacuum in the aH/aV pair, pair by pair: amplitude
    (-e^{i phi} tanh r)^n / cosh r on |n, n, 0, 0> for n <= n_max, skipping terms
    that underflow to 0."""
    ratio = -cmath.exp(1j * phi) * math.tanh(r)
    amps = {}
    term = complex(1.0 / math.cosh(r))
    for n in range(n_max + 1):
        if term != 0:
            amps[(n, n, 0, 0)] = term
        term = term * ratio
    return state_from_amplitudes(amps, truncation_tail(SourceKind.COLLINEAR_PDC, r, n_max))


def reference_noncollinear_state(r, n_max):
    """Four-mode PDC state with counter-propagating arms, pair by pair: amplitude
    (-1)^m tanh^n r / cosh^2 r on |n-m, m, m, n-m> for 0 <= m <= n <= n_max,
    skipping terms that underflow."""
    t = math.tanh(r)
    amps = {}
    weight = 1.0 / math.cosh(r) ** 2
    for n in range(n_max + 1):
        if weight != 0:
            for m in range(n + 1):
                amps[(n - m, m, m, n - m)] = weight * (-1.0) ** m
        weight *= t
    return state_from_amplitudes(amps, truncation_tail(SourceKind.NONCOLLINEAR_PDC, r, n_max))


def reference_channel(state, a_angles, b_angles=(0.0, 0.0)):
    """Rotate the aH/aV pair by a_angles = (theta, theta_plus) and the bH/bV
    pair by b_angles, sector by sector."""
    blocks = {(n_a, n_b): sector_unitary(*a_angles, n_a) @ x @ sector_unitary(*b_angles, n_b).T
              for (n_a, n_b), x in sectors(state).items()}
    return state_from_sectors(blocks, state.truncation_tail)


def reference_mor(state, medium):
    """The MOR channel: the b beam counter-propagates and sees (-theta,
    -theta_plus)."""
    return reference_channel(state, (medium.theta, medium.theta_plus),
                             (-medium.theta, -medium.theta_plus))


def sector_matrix(theta, theta_plus, n):
    """The engine's matrix on the n-photon aH/aV subspace, read off apply_mor
    one basis state at a time: column k is the image of |n-k, k>."""
    medium = MediumSpec(theta=theta, theta_plus=theta_plus)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        out = apply_mor(make_basis_state((n - k, k, 0, 0)), medium)
        for j in range(n + 1):
            m[j, k] = out.amplitude((n - j, j, 0, 0))
    return m


def reference_moment(state, powers):
    """<prod_m a_m^dag^p a_m^p> summed occupation by occupation."""
    total = 0.0
    for occ, amp in amplitude_dict(state).items():
        w = 1.0
        for n, p in zip(occ, powers):
            w *= math.perm(n, p)  # zero when p > n
        total += abs(amp) ** 2 * w
    return total


def reference_nd_variance(state, pair):
    """Variance of n_{pair[1]} - n_{pair[0]}, summed occupation by occupation."""
    e1 = e2 = 0.0
    for occ, amp in amplitude_dict(state).items():
        d = occ[pair[1]] - occ[pair[0]]
        e1 += abs(amp) ** 2 * d
        e2 += abs(amp) ** 2 * d * d
    return e2 - e1 * e1


def normally_ordered_moment(state, powers):
    """<prod_m a_m^dag^p a_m^p> for per-mode powers p: the falling factorials
    prod_m n_m! / (n_m - p_m)! of every entry (0 if p_m > n_m) dotted with
    |amplitude|^2."""
    powers = tuple(int(p) for p in powers)
    if len(powers) != 4 or any(p < 0 for p in powers):
        raise ValueError(f"powers must be 4 nonnegative integers, got {powers}")
    occupations, x = state.occupations, state.amplitudes
    weights = np.prod([np.ones(len(x))] + [n - j for n, p in zip(occupations, powers)
                                           for j in range(p)], axis=0)
    return float(weights @ (x.real ** 2 + x.imag ** 2))


def projection_probability(state, occ):
    """|<occ|state>|^2 for a Fock basis target."""
    a = state.amplitude(occ)
    return a.real * a.real + a.imag * a.imag


def measure(state, obs):
    """The observable's value on an evolved state: a moment or the variance from
    the occupations of its entries, a projection from its target's amplitude."""
    powers = _detector_powers(obs)
    if powers is not None:
        return normally_ordered_moment(state, powers)
    if obs.kind is ObservableKind.FOUR_PHOTON_PROJECTION:
        return projection_probability(state, obs.target)
    m1, m2 = obs.pair
    occ, x = state.occupations, state.amplitudes
    d, p = occ[m2] - occ[m1], x.real ** 2 + x.imag ** 2
    e1 = float(d @ p)
    return float((d * d) @ p) - e1 * e1


def reference_risbo_step(u, n):
    """U_n from all rows of U_{n-1}, the lifts of the half turn [[c, -s], [s, c]],
    c = s = 1/sqrt(2):

    U_n[k', k] = [sqrt(n-k) (c sqrt(n-k') U[k', k] + s sqrt(k') U[k'-1, k])
                  + sqrt(k) (-s sqrt(n-k') U[k', k-1] + c sqrt(k') U[k'-1, k-1])] / n,

    with the engine's operations in the engine's order, on every row.
    """
    p = np.sqrt(np.arange(n, 0, -1.0))  # sqrt(n - k) for k < n
    q = np.sqrt(np.arange(1.0, n + 1))  # sqrt(k) for k > 0
    x, y = p[:, None] * u, q[:, None] * u
    h, v = np.empty((n + 1, n)), np.empty((n + 1, n))  # the last photon in H, in V
    h[0], h[n], v[0], v[n] = x[0], y[-1], -x[0], y[-1]
    np.add(x[1:], y[:-1], out=h[1:n])
    np.subtract(y[:-1], x[1:], out=v[1:n])
    g = np.sqrt(0.5) / n
    h *= p * g
    v *= q * g
    out = np.empty((n + 1, n + 1))
    out[:, 0], out[:, n] = h[:, 0], v[:, -1]
    np.add(h[:, 1:], v[:, :-1], out=out[:, 1:n])
    return out


def reference_rotation_bases(n_top):
    """W_n = U_n with its columns reversed, for n = 0..n_top, by the full-row recurrence."""
    u, bases = np.ones((1, 1)), [np.ones((1, 1))]
    for n in range(1, n_top + 1):
        u = reference_risbo_step(u, n)
        bases.append(np.ascontiguousarray(u[:, ::-1]))
    return bases


def max_difference(left, right):
    left, right = amplitude_dict(left), amplitude_dict(right)
    return max((abs(left.get(k, 0j) - right.get(k, 0j)) for k in left.keys() | right.keys()),
               default=0.0)


# The Gram kernels as they were before their loops over multisets and bilinears
# were vectorised, kept verbatim: the engine's must reproduce them bit for bit.
def reference_gram(keys: np.ndarray, columns: np.ndarray, values: np.ndarray,
                   size: int) -> np.ndarray:
    """G[c, c'] = sum_key conj(u_c[key]) u_c'[key] for the sparse vectors u_0..u_{size-1}
    given as (key, column, value) triples; triples that share a key and a column are
    added first.  Every entry of G sums its products in increasing key order, so two
    equal vectors u_c = u_c' give G[c, c] = G[c', c'] = G[c, c'] to the last bit."""
    order = np.lexsort((columns, keys))
    keys, columns, values = keys[order], columns[order], values[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (columns[1:] != columns[:-1])
    group = np.cumsum(first) - 1
    values = np.bincount(group, values.real) + 1j * np.bincount(group, values.imag)
    # a zero adds nothing to any sum
    kept = values != 0
    keys, columns, values = keys[first][kept], columns[first][kept], values[kept]
    # the entries of one key are adjacent, at most one per column, so an entry of G
    # gets at most one product per key; ordering the pairs by their first entry
    # orders every entry's products by key
    left, right = [np.arange(len(keys))], [np.arange(len(keys))]
    for shift in range(1, min(size, len(keys))):
        i = np.flatnonzero(keys[shift:] == keys[:len(keys) - shift])
        left += [i, i + shift]
        right += [i + shift, i]
    left, right = np.concatenate(left), np.concatenate(right)
    order = np.argsort(left, kind="stable")
    left, right = left[order], right[order]
    bins = columns[left] * size + columns[right]
    products = values[left].conj() * values[right]
    return (np.bincount(bins, products.real, size * size)
            + 1j * np.bincount(bins, products.imag, size * size)).reshape(size, size)


def reference_lowered_gram(state: KetState, size: int) -> np.ndarray:
    """G[S, S'] = <a_S psi | a_S' psi> over the multisets S of ``size`` modes, from
    the state's nonzero amplitudes: a_S |n> = sqrt(prod_m n_m! / (n_m - s_m)!) |n - s>
    for the powers s of S."""
    occupations, amplitudes = state.occupations, state.amplitudes
    base = [int(occupations.max(initial=0)) + 1] * 4
    keys, columns, values = [], [], []
    for column, powers in enumerate(_multisets(size)[0]):
        reach = np.all(occupations >= powers[:, None], axis=0)
        n = occupations[:, reach]
        weight = np.prod([np.ones(n.shape[1])] + [n[m] - j for m, p in enumerate(powers)
                                                  for j in range(p)], axis=0)
        keys.append(_encode(n - powers[:, None], base))
        columns.append(np.full(n.shape[1], column))
        values.append(amplitudes[reach] * np.sqrt(weight))
    return reference_gram(*map(np.concatenate, (keys, columns, values)),
                          len(_multisets(size)[0]))


def reference_centred_bilinear_gram(state: KetState, expectations: np.ndarray) -> np.ndarray:
    """H[4i + j, 4k + l] = <phi_ij | phi_kl> for the centred bilinears
    phi_ij = (a_i^dag a_j - E_ij) psi, E = ``expectations`` (4 x 4), from the state's
    nonzero amplitudes: a_i^dag a_j |n> = sqrt(n_j (n_i + 1 - delta_ij)) |n + e_i - e_j>."""
    occupations, amplitudes = state.occupations, state.amplitudes
    base = [int(occupations.max(initial=0)) + 2] * 4
    own = _encode(occupations, base)
    keys, columns, values = [], [], []
    for i, j in product(range(4), repeat=2):
        reach = occupations[j] > 0
        n = occupations[:, reach]
        moved = n.copy()
        moved[j] -= 1
        moved[i] += 1
        keys += [_encode(moved, base), own]
        columns.append(np.full(n.shape[1] + len(own), 4 * i + j))
        values += [amplitudes[reach] * np.sqrt(n[j] * (n[i] + (i != j))),
                   -expectations[i, j] * amplitudes]
    return reference_gram(*map(np.concatenate, (keys, columns, values)), 16)
