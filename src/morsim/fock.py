"""Exact algebra on truncated multimode bosonic Fock states.

Four physical modes (two spatial beams a, b; two polarizations H, V) in the
fixed canonical order aH < aV < bH < bV.  A state is its nonzero amplitudes: a
(4, k) array of distinct occupations and the k amplitudes on them.  A detector
moment is read in the Heisenberg picture from Gram matrices of the state:
<a_S psi | a_S' psi> over multisets S of modes (``lowered_gram``) and the Gram
matrix of the centred bilinears (a_i^dag a_j - E_ij) psi
(``centred_bilinear_gram``), and a projection from the overlaps <0|a_S psi>
(``vacuum_overlaps``), all from those two arrays, while
``annihilator_coefficients`` expands a product of Heisenberg-picture
annihilators over the same multisets.  Each Gram kernel is one broadcast of
the occupations against every multiset (or bilinear), with no Python loop over
them, and ``_gram`` pairs the sorted sparse vectors only over the longest run
of equal keys (at most 4 for the PDC sources, against up to 35 columns), so
every bit of G is what a loop over the multisets gave.

The channel alone lays a state out in blocks, when it first meets the state.
The medium conserves the photon number of each beam, so it evolves one block
per sector (n_a, n_b), of shape (n_a+1, n_b+1): entry [k_a, k_b] is the
amplitude of |n_a-k_a, k_a, n_b-k_b, k_b>, in one flat buffer (``SectorLayout``).
The polarization rotation of one spatial pair acts on the rows (beam a) or
columns (beam b) of a sector.  It is generated by the tridiagonal J_y
operator, whose real eigenbasis W does not depend on the angle: it is the
n-photon lift U_n of a half turn of the pair with its columns reversed,
built once per layout (``SectorLayout.bases``) and freed with the state.
U_n is built by the two-path (Risbo) recurrence
U_n = S^T (U_{n-1} (x) U_1) S, where S is the isometry that splits off the
last photon: each entry mixes four entries of U_{n-1} with coefficients at
most 1, and the step cannot enlarge the error it inherits, so rounding
grows only like n * eps.  No sweep builds a basis above 1 photon per beam
(every observable is read off the channel's one-photon probes) and
``verify`` none above 96, so the recurrence runs on plain full rows: on a
2-vCPU Xeon, every even size up to 4 photons takes 0.1-0.2 ms and up to
96 photons 5-6 ms; a whole state of collinear n_max 128 (256 photons) takes
0.07-0.14 s and one of 1162 photons 9 s.
At 256 photons max|W^T W - I| = 3.5e-14 and
max|T W - W Lambda| = 2.1e-14 (eigh: 2.2e-15 and 1.4e-13); at 581 photons
8.0e-14 and 4.3e-14.  The single-path recurrence, which builds column k+1
from column k by applying the creation operator and renormalising, divides
by coefficients that can be small: its rounding errors grow like
sqrt(C(n, n/2)), fatal beyond n ~ 50.  A state's coordinates in the
eigenbasis are computed once, so an angle costs one table of phases and
one matmul per beam-sector.
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import cache, cached_property
from itertools import combinations_with_replacement, product

import numpy as np

Occupation = tuple[int, int, int, int]

# Refuse to build what would need more: past 2 GiB the process risks exhausting the
# machine's memory, while this is still ~85x what the deepest truncation the paper's
# curves use needs (collinear n_max = 128, ~24 MB when the channel evolves it whole).
MEMORY_BUDGET_BYTES = 2 * 2**30
# Bytes per amplitude when the channel evolves a whole state: the state, its
# eigen-coefficients and one channel output (16 each), the layout's occupations (32)
# and phases (32), plus 8 of headroom.
CHANNEL_BYTES_PER_AMPLITUDE = 3 * 16 + 32 + 32 + 8
GRAM_BYTES_PER_ENTRY = 192  # peak per sparse entry of a Gram kernel (tracemalloc: 150-187)


class Mode(IntEnum):
    """The four optical modes, totally ordered for canonical layouts."""

    AH = 0
    AV = 1
    BH = 2
    BV = 3


A_MODES = (Mode.AH, Mode.AV)


class SectorLayout:
    """The sorted (n_a, n_b) sectors of a state's occupations, where each sector's block
    of shape (n_a+1, n_b+1) lies in a flat buffer, and the flat ``positions`` of the
    occupations; the per-entry vectors the channel uses are built on first use."""

    def __init__(self, occupations: np.ndarray):
        n_a, n_b = occupations[0] + occupations[1], occupations[2] + occupations[3]
        base = int(n_b.max(initial=0)) + 1
        codes, sector = np.unique(n_a * base + n_b, return_inverse=True)
        self.keys = list(zip(*(half.tolist() for half in np.divmod(codes, base))))
        self.shapes = [(n_a + 1, n_b + 1) for n_a, n_b in self.keys]
        self.offsets = np.cumsum([0] + [a * b for a, b in self.shapes])
        self.entries = [slice(i, j) for i, j in zip(self.offsets[:-1], self.offsets[1:])]
        self.positions = self.offsets[sector] + occupations[1] * (n_b + 1) + occupations[3]

    @cached_property
    def occupations(self) -> np.ndarray:
        """(4, size) photon numbers of every entry, in buffer order."""
        sizes = np.diff(self.offsets)
        n_a, n_b = np.repeat(np.array(self.keys, dtype=np.int64).reshape(-1, 2), sizes, axis=0).T
        k_a, k_b = np.divmod(np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], sizes),
                             n_b + 1)
        return np.stack([n_a - k_a, k_a, n_b - k_b, k_b])

    @property
    def channel_bytes(self) -> int:
        """Bytes the channel holds to evolve a whole state over this layout: its
        per-amplitude buffers and the real basis rotating each sector's rows."""
        return sum(CHANNEL_BYTES_PER_AMPLITUDE * a * b + 8 * a * a for a, b in self.shapes)

    @cached_property
    def phases(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray],
                              np.ndarray]:
        """((a, i_a), (b, i_b), d): the channel is e^{i(theta A + theta_plus B)} on
        eigen-entry [j, l] of sector (n_a, n_b), with A = j - l = a[i_a] and
        B = n_a - n_b = b[i_b] over the distinct integers a and b, and
        d = i^(k_a + k_b) are the phases of V = diag(i^k) W on both beams.  The
        channel builds these first, so the memory budget of all its buffers is
        checked here, before any of them is built."""
        require_memory(f"a state of {self.offsets[-1]} amplitudes", self.channel_bytes,
                       "the channel's buffers and rotation bases")
        n_ah, n_av, n_bh, n_bv = self.occupations
        d = np.array([1, 1j, -1, -1j])[(n_av + n_bv) % 4]
        return (np.unique(n_av - n_bv, return_inverse=True),
                np.unique(n_ah + n_av - n_bh - n_bv, return_inverse=True), d)

    @cached_property
    def bases(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W_a, W_b) of every sector, in layout order, all built in one pass; nothing
        else holds them, so they are freed with the layout."""
        bases = iter(_rotation_bases([n for key in self.keys for n in key]))
        return list(zip(bases, bases))


class KetState:
    """Pure state: amplitudes on distinct occupations plus the analytic truncation tail.

    ``occupations`` is a (4, k) int64 array of photon numbers (n_aH, n_aV, n_bH,
    n_bV), ``amplitudes`` the k complex amplitudes; a source keeps its nonzero ones,
    a channel output every entry of its blocks.  Both are taken, not copied, and made
    read-only, so cached eigen-coefficients cannot go stale.  ``truncation_tail`` is
    the squared weight discarded analytically at construction, so norm_squared() +
    truncation_tail == 1 for source states; the channel never changes it.
    """

    def __init__(self, occupations, amplitudes, truncation_tail: float = 0.0):
        if (amplitudes.ndim != 1 or amplitudes.dtype != complex
                or occupations.shape != (4, len(amplitudes)) or occupations.dtype != np.int64):
            raise ValueError(f"a state needs (4, k) int64 occupations and k complex amplitudes, "
                             f"got {occupations.dtype} {occupations.shape} and "
                             f"{amplitudes.dtype} {amplitudes.shape}")
        occupations.flags.writeable = amplitudes.flags.writeable = False
        self.occupations, self.amplitudes = occupations, amplitudes
        self.truncation_tail = truncation_tail

    @cached_property
    def layout(self) -> SectorLayout:
        """The sector blocks the channel evolves the amplitudes in."""
        return SectorLayout(self.occupations)

    @cached_property
    def buffer(self) -> np.ndarray:
        """The amplitudes in ``layout``'s blocks, back to back, read-only."""
        buffer = np.zeros(self.layout.offsets[-1], dtype=complex)
        buffer[self.layout.positions] = self.amplitudes
        buffer.flags.writeable = False
        return buffer

    @cached_property
    def eigen_coefficients(self) -> np.ndarray:
        """V_a^dag x conj(V_b) per sector, flat: what the channel phases."""
        post_phase = self.layout.phases[2]  # checks the memory before the buffer is built
        return rotate_sectors(self.layout, self.buffer * post_phase.conj(), inverse=True)

    @cached_property
    def _index(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """(bases, keys, order): one more than each mode's largest photon number, and
        the occupations' ``_encode`` keys in increasing order with the columns they
        come from."""
        bases = (self.occupations.max(axis=1, initial=0) + 1).tolist()
        keys = _encode(self.occupations, bases)
        order = np.argsort(keys, kind="stable")
        return bases, keys[order], order

    def amplitude(self, occ: Occupation) -> complex:
        """The amplitude on ``occ``, 0 where the state has none: a binary search of
        the sorted keys."""
        occ = _occupation(occ)
        bases, keys, order = self._index
        if any(n >= b for n, b in zip(occ, bases)):
            return 0j
        key = _encode(occ, bases)
        i = int(np.searchsorted(keys, key))
        return complex(self.amplitudes[order[i]]) if i < len(keys) and keys[i] == key else 0j

    def norm_squared(self) -> float:
        # a numpy reduction over the (re, im) floats: BLAS would wake its thread
        # pool for a long array, which costs milliseconds per call
        x = np.ascontiguousarray(self.amplitudes).view(np.float64)
        return float(np.add.reduce(x * x))


def require_memory(what: str, needed: int, purpose: str) -> None:
    """Refuse with one line what would need more than ``MEMORY_BUDGET_BYTES``."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ValueError(f"{what} needs {needed / 2**30:.3g} GiB for {purpose}, "
                         f"over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB budget")


def _require_gram_memory(state: KetState, entries: int) -> None:
    """Refuse a Gram kernel whose sparse entries would not fit beside the state."""
    require_memory(f"a Gram matrix of {entries} sparse entries",
                   state.occupations.nbytes + state.amplitudes.nbytes
                   + GRAM_BYTES_PER_ENTRY * entries, "its sparse vectors and the state")


def _occupation(occ) -> Occupation:
    """An occupation as a tuple of 4 photon numbers; refuses a malformed one."""
    occ = tuple(int(n) for n in occ)
    if len(occ) != 4:
        raise ValueError(f"occupation must have 4 entries, got {len(occ)}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation counts must be nonnegative, got {occ}")
    return occ


def make_basis_state(occ) -> KetState:
    """Single-component normalized Fock state |occ>."""
    return KetState(np.array(_occupation(occ), dtype=np.int64).reshape(4, 1),
                    np.ones(1, dtype=complex))


@cache
def _multisets(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, position): row S of ``powers`` holds the per-mode powers of the S-th
    multiset of ``size`` modes, in the order of ``combinations_with_replacement`` (for
    one mode, row m is mode m), and ``position`` maps each of the 4^size ordered mode
    tuples, as a base-4 number, to the row of its multiset."""
    multisets = list(combinations_with_replacement(range(4), size))
    row = {multiset: i for i, multiset in enumerate(multisets)}
    position = [row[tuple(sorted(modes))] for modes in product(range(4), repeat=size)]
    powers = [np.bincount(multiset, minlength=4) for multiset in multisets]
    return np.array(powers, dtype=np.int64), np.array(position)


def annihilator_coefficients(rows: np.ndarray) -> np.ndarray:
    """v with prod_t (sum_i rows[..., t, i] a_i) = sum_S v[..., S] a_S over the multisets S
    of K modes, in the order of ``lowered_gram``, for each (K, 4) block of the stacked
    rows (..., K, 4).  One bincount sums every block, each into its own len(powers) bins,
    so each bin adds its terms in the order a block alone would."""
    *lead, size, _ = rows.shape
    powers, position = _multisets(size)
    terms = np.ones((*lead, 1), dtype=complex)
    for t in range(size):
        terms = (terms[..., :, None] * rows[..., t, None, :]).reshape(*lead, 4 ** (t + 1))
    blocks = math.prod(lead)
    bins = (position + len(powers) * np.arange(blocks)[:, None]).ravel()
    terms = terms.ravel()
    return (np.bincount(bins, terms.real, blocks * len(powers))
            + 1j * np.bincount(bins, terms.imag, blocks * len(powers))).reshape(*lead, len(powers))


def _encode(occupations: np.ndarray, b: list[int]) -> np.ndarray:
    """One integer per column of a (4, k) array of photon numbers below the per-mode
    bounds ``b``; the integers order the columns lexicographically."""
    if math.prod(b) > 2 ** 63:  # past 2^63 int64 keys would wrap without a warning
        raise ValueError(f"photon numbers up to {max(b) - 1} per mode overflow 64-bit Gram keys")
    return ((occupations[0] * b[1] + occupations[1]) * b[2] + occupations[2]) * b[3] \
        + occupations[3]


def _gram(keys: np.ndarray, columns: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
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
    # gets at most one product per key, and a shift pairs entries only within a run
    # of equal keys; ordering the pairs by their first entry orders every entry's
    # products by key
    longest = np.diff(np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])).max()
    left, right = [np.arange(len(keys))], [np.arange(len(keys))]
    for shift in range(1, longest):
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


def lowered_gram(state: KetState, size: int) -> np.ndarray:
    """G[S, S'] = <a_S psi | a_S' psi> over the multisets S of ``size`` modes, from
    the state's nonzero amplitudes: a_S |n> = sqrt(prod_m n_m! / (n_m - s_m)!) |n - s>
    for the powers s of S.  Every multiset is applied to every amplitude at once; the
    key of n - s is key(n) - key(s), as ``_encode`` is linear.  Each mode's bound is
    one more than its own largest photon number, as in ``KetState._index``."""
    occupations, amplitudes = state.occupations, state.amplitudes
    powers = _multisets(size)[0]
    bases = (occupations.max(axis=1, initial=0) + 1).tolist()
    base = max(bases)  # the falling factorials reach the largest photon number of any mode
    own = _encode(occupations, bases)  # refuses bounds past 64 bits before any broadcast
    reached = (occupations >= powers[:, :, None]).all(axis=1)
    _require_gram_memory(state, np.count_nonzero(reached))
    column, entry = np.nonzero(reached)
    # falling[p, n] = n (n - 1) ... (n - p + 1); weights are exact integers below 2^53,
    # which n (n - 1) (n - 2) (n - 3) passes near n = 9700: past that they carry rounding
    falling = np.ones((size + 1, base))
    for p in range(1, size + 1):
        falling[p] = falling[p - 1] * np.arange(1 - p, base - p + 1)
    weight = np.prod(falling[powers[column].T, occupations[:, entry]], axis=0)
    keys = own[entry] - _encode(powers.T, bases)[column]
    return _gram(keys, column, amplitudes[entry] * np.sqrt(weight), len(powers))


def vacuum_overlaps(state: KetState, size: int) -> np.ndarray:
    """g[S] = <0|a_S psi> = sqrt(s!) <s|psi> over the multisets S of ``size`` modes, in
    the order of ``lowered_gram``, for the powers s of S, from the nonzero amplitudes."""
    occupations, amplitudes = state.occupations, state.amplitudes
    powers = _multisets(size)[0]
    shell = occupations.sum(axis=0) == size
    row, entry = np.nonzero((powers[:, :, None] == occupations[:, shell]).all(axis=1))
    factorials = np.cumprod(np.arange(size + 1.0).clip(1))[powers[row]].prod(axis=1)
    g = np.zeros(len(powers), dtype=complex)
    g[row] = amplitudes[shell][entry] * np.sqrt(factorials)
    return g


def centred_bilinear_gram(state: KetState, expectations: np.ndarray) -> np.ndarray:
    """H[4i + j, 4k + l] = <phi_ij | phi_kl> for the centred bilinears
    phi_ij = (a_i^dag a_j - E_ij) psi, E = ``expectations`` (4 x 4), from the state's
    nonzero amplitudes: a_i^dag a_j |n> = sqrt(n_j (n_i + 1 - delta_ij)) |n + e_i - e_j>.
    All 16 bilinears are applied to every amplitude at once; each mode's bound leaves
    room for the photon a_i^dag adds."""
    occupations, amplitudes = state.occupations, state.amplitudes
    bases = (occupations.max(axis=1, initial=0) + 2).tolist()
    i, j = np.divmod(np.arange(16), 4)
    own = _encode(occupations, bases)
    unit = _encode(np.eye(4, dtype=np.int64), bases)  # the key of e_i
    moved = occupations[j] > 0
    # -E_ij psi only where E_ij != 0 (on the diagonal for PDC): a zero adds to no sum
    centred = np.flatnonzero(expectations)
    _require_gram_memory(state, np.count_nonzero(moved) + len(centred) * len(own))
    column, entry = np.nonzero(moved)
    n_i, n_j = occupations[i[column], entry], occupations[j[column], entry]
    keys = [own[entry] + unit[i[column]] - unit[j[column]], np.tile(own, len(centred))]
    columns = [column, np.repeat(centred, len(own))]
    values = [amplitudes[entry] * np.sqrt(n_j * (n_i + (i != j)[column])),
              (-expectations.reshape(16, 1)[centred] * amplitudes).ravel()]
    return _gram(*map(np.concatenate, (keys, columns, values)), 16)


def _rotation_bases(sizes) -> list[np.ndarray]:
    """W_n for each photon number n in ``sizes``: real orthogonal eigenvectors of
    the lifted J_y generator on the n-photon subspace, columns ordered by the exact
    spectrum (-n, -n+2, ..., n).  The lift of Ry(beta) is V diag(e^{i beta lam / 2}) V^dag
    with V = diag(i^k) W.

    W_n is the n-photon lift U_n of the half turn with its columns reversed.  One
    pass of ``_risbo_step`` from n = 0 to the largest size builds them all and keeps
    only the sizes asked for; the recurrence is deterministic, so W_n has the same
    bits whichever pass built it.
    """
    wanted, u = set(sizes), np.ones((1, 1))
    built = {0: u}
    for n in range(1, max(wanted, default=0) + 1):
        u = _risbo_step(u, n)
        if n in wanted:
            built[n] = np.ascontiguousarray(u[:, ::-1])
    return [built[n] for n in sizes]


def _risbo_step(u: np.ndarray, n: int) -> np.ndarray:
    """U_n from U_{n-1}, the lifts of the half turn [[c, -s], [s, c]], c = s = 1/sqrt(2):

    U_n[k', k] = [sqrt(n-k) (c sqrt(n-k') U[k', k] + s sqrt(k') U[k'-1, k])
                  + sqrt(k) (-s sqrt(n-k') U[k', k-1] + c sqrt(k') U[k'-1, k-1])] / n,

    i.e. U_n = S^T (U_{n-1} (x) U_1) S for the isometry S splitting off the last photon.
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


def rotate_sectors(layout: SectorLayout, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Each sector block y of the flat buffer x taken to W_a y W_b^T, or to
    W_a^T y W_b when ``inverse``, in a new buffer.  W is real: it multiplies
    the interleaved (re, im) floats of C-ordered complex rows, uncopied."""
    out = np.empty_like(x)
    for entries, (a, b), (w_a, w_b) in zip(layout.entries, layout.shapes, layout.bases):
        y = out[entries].reshape(a, b)
        np.matmul(w_a.T if inverse else w_a, x[entries].reshape(a, b).view(np.float64),
                  out=y.view(np.float64))
        if b > 1:
            w_b = w_b.T if inverse else w_b
            y[...] = (w_b @ np.ascontiguousarray(y.T).view(np.float64)).view(complex).T
    return out
