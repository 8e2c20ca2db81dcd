"""Dense exact-diagonalization ground truth for small instances.

Builds the many-body matrix of a molecular Hamiltonian (or of its
double-factorized form) under the Jordan-Wigner encoding, with spin-up
orbitals on qubits 0..N-1 and spin-down on N..2N-1; qubit 0 is the most
significant bit of a basis-state index.  Real integrals give float64
matrices.  Both Hamiltonians conserve (N_up, N_down), so an operator is held
as its sector blocks plus a multiple of the identity; no 4^N matrix is
formed.  A sector lists its states in ascending order, alpha-major over the
two spin strings, and there F_ij = sum_s a+_{is} a_{js} is
E_ij x I + I x E_ij with E_ij = a+_i a_j on the strings of one spin (a
spin-down hop's Jordan-Wigner string crosses every spin-up mode twice).  So
blocks are assembled from string matrices, as in string-driven determinant
CI (Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984); Olsen et al., JCP 89,
2185 (1988)), and spectra are taken on the blocks, stacked by size.  Capped
at N = 7 spatial orbitals (largest sector block C(7,3)^2 = 1225).  Used to
verify the factorization identity, the one-body norm identity, and the
truncation error bounds.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from itertools import groupby, permutations
from math import comb

import numpy as np

from qdf.factorization import DoubleFactorization, from_eigenpairs
from qdf.integrals import MolecularIntegrals

__all__ = [
    "FockOperator",
    "build_from_df",
    "build_from_integrals",
    "ground_energy",
    "one_body_norm_check",
    "particle_number_commutator_norm",
    "spectral_norm",
]

#: Largest spatial-orbital count the dense backend accepts.
DENSE_ORBITAL_CAP = 7

HERMITICITY_TOLERANCE = 1e-10


def _check_cap(n: int):
    if n > DENSE_ORBITAL_CAP:
        raise ValueError(
            f"dense oracle capped at N <= {DENSE_ORBITAL_CAP} spatial orbitals, got {n}"
        )


def _real(matrix) -> np.ndarray:
    """``matrix`` as float64; complex input must have a zero imaginary part."""
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        if np.any(matrix.imag):
            raise ValueError("the dense oracle is real-valued: got a non-zero imaginary part")
        matrix = matrix.real
    return np.ascontiguousarray(matrix, dtype=float)


def _check_hermitian(matrix: np.ndarray):
    """Raise ValueError unless the (stacked) square matrices are symmetric
    within HERMITICITY_TOLERANCE."""
    herm = matrix - matrix.swapaxes(-1, -2)
    herm = np.abs(herm, out=herm).max(initial=0.0)
    if herm > HERMITICITY_TOLERANCE:
        raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")


def _sector_groups(n: int, n_electrons: int | None = None) -> list[tuple[tuple[int, int], ...]]:
    """The (N_up, N_down) sectors of N orbitals grouped by block size
    C(N, N_up) C(N, N_down), and within a group by C(N, N_up); only those
    with N_up + N_down = ``n_electrons`` if it is given."""
    by_size: dict[int, list[tuple[int, int]]] = {}
    for n_up in range(n + 1):
        for n_down in range(n + 1):
            if n_electrons is None or n_up + n_down == n_electrons:
                by_size.setdefault(comb(n, n_up) * comb(n, n_down), []).append((n_up, n_down))
    return [tuple(sorted(keys, key=lambda key: comb(n, key[0]))) for keys in by_size.values()]


class FockOperator:
    """Real symmetric many-body operator over 2N Jordan-Wigner qubits that
    conserves (N_up, N_down): ``shift`` times the identity plus its sector
    blocks, and zero between sectors.

    ``blocks`` pairs each tuple of S sectors of one block size d with their
    (S, d, d) stack, over every sector or over those of one electron count.
    """

    def __init__(self, n_spatial: int, blocks, shift: float = 0.0):
        _check_cap(n_spatial)
        self.n_spatial, self.shift, self.blocks = n_spatial, float(shift), []
        for keys, stack in blocks:
            keys, stack = tuple(keys), _real(stack)
            sizes = {comb(n_spatial, n_up) * comb(n_spatial, n_down) for n_up, n_down in keys}
            if len(sizes) != 1 or stack.shape != (len(keys), *sizes, *sizes):
                raise ValueError(f"blocks of shape {stack.shape} do not fit the sectors {keys}")
            _check_hermitian(stack)
            self.blocks.append((keys, stack))

    @property
    def dim(self) -> int:
        return 1 << (2 * self.n_spatial)

    def __sub__(self, other) -> "FockOperator":
        """Minus another operator on the same sectors, or minus a scalar.  Both
        operands passed the checks of ``__init__``, so the result is not
        checked again; minus a scalar shares this operator's stacks."""
        out = copy.copy(self)
        if isinstance(other, FockOperator):
            if [keys for keys, _ in self.blocks] != [keys for keys, _ in other.blocks]:
                raise ValueError("the operators hold different sectors")
            out.blocks = [(keys, a - b) for (keys, a), (_, b) in zip(self.blocks, other.blocks)]
            other = other.shift
        out.shift = float(self.shift - other)
        return out


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Number of set bits among the low ``bits`` bits of each value."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for q in range(bits):
        counts += (values >> q) & 1
    return counts


def _ladder(states: np.ndarray, n_modes: int, mode: int, create: bool):
    """(image, sign) of a+_mode (or a_mode) on basis states of ``n_modes``
    modes, mode 0 the most significant bit; the sign is 0 where the operator
    annihilates the state."""
    shift = n_modes - 1 - mode
    occupied = (states >> shift) & 1
    # Jordan-Wigner string: parity of the modes before ``mode``, which are
    # the more significant bits.
    parity = _popcount(states >> (shift + 1), mode) & 1
    return states ^ (1 << shift), (1 - 2 * parity) * (occupied != create)


@lru_cache(maxsize=None)
def _strings(n: int) -> tuple[np.ndarray, list[slice]]:
    """E_ij = a+_i a_j (row i * N + j) on the 2^N occupation strings of one
    spin, sorted by electron count and then ascending, as an (N^2, 2^N, 2^N)
    stack; and the slice of the strings of each count.  E_ij keeps the count,
    so it is block diagonal."""
    _check_cap(n)
    states = np.arange(1 << n, dtype=np.int64)
    count = _popcount(states, n)
    position = np.empty_like(states)
    position[np.argsort(count, kind="stable")] = states
    exc = np.zeros((n * n, states.size, states.size))
    for i in range(n):
        for j in range(n):
            image_j, sign_j = _ladder(states, n, j, False)
            image_i, sign_i = _ladder(image_j, n, i, True)
            exc[i * n + j, position[image_i], position] = sign_j * sign_i
    bounds = np.cumsum([0, *np.bincount(count)])
    return exc, [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _assemble(n: int, one, left, right, n_electrons: int | None = None):
    """(sectors, blocks) pairs of the operator whose (a, b) sector block is

        one_a x I + I x one_b + sum_p left_a[p] x right_b[p],

    from a string matrix ``one`` and (P, 2^N, 2^N) string stacks ``left`` and
    ``right``, all block diagonal by electron count, with x_k their block of
    count k.  The first two terms join the sum, so the blocks of the sectors
    with equal (C_a, C_b) are one batched product of (C_a^2, P + 2) by
    (P + 2, C_b^2)."""
    eye = np.eye(len(one))[None]
    left, right = np.concatenate([left, one[None], eye]), np.concatenate([right, eye, one[None]])
    spans = _strings(n)[1]
    left = [left[:, k, k].reshape(len(left), -1) for k in spans]
    right = [right[:, k, k].reshape(len(right), -1) for k in spans]
    blocks = []
    for keys in _sector_groups(n, n_electrons):
        d = comb(n, keys[0][0]) * comb(n, keys[0][1])
        stack, lo = np.empty((len(keys), d, d)), 0
        for (da, db), part in groupby(keys, lambda key: (comb(n, key[0]), comb(n, key[1]))):
            part = list(part)
            cross = np.stack([left[a].T for a, _ in part]) @ np.stack([right[b] for _, b in part])
            stack[lo:lo + len(part)].reshape(-1, da, db, da, db)[...] = (
                cross.reshape(-1, da, da, db, db).transpose(0, 1, 3, 2, 4))
            lo += len(part)
        blocks.append((keys, stack))
    return blocks


def _majorana_strings(l_matrices: np.ndarray) -> np.ndarray:
    """G_L on the strings of one spin, L.E - tr(L)/2, for each L of an
    (R, N, N) stack, as (R, 2^N, 2^N); ValueError for an asymmetric L."""
    asym = np.abs(l_matrices - l_matrices.swapaxes(1, 2)).max(initial=0.0)
    if asym > HERMITICITY_TOLERANCE:
        raise ValueError(f"G_L = L.F - tr(L) needs a symmetric L: asymmetry {asym:.3e}")
    rank, n = l_matrices.shape[:2]
    exc = _strings(n)[0]
    size = exc.shape[-1]
    g = (l_matrices.reshape(rank, n * n) @ exc.reshape(n * n, -1)).reshape(rank, size, size)
    g[:, range(size), range(size)] -= 0.5 * np.trace(l_matrices, axis1=1, axis2=2)[:, None]
    return g


def _df_blocks(l_zero: np.ndarray, factors: np.ndarray, weights: np.ndarray,
               n_electrons: int | None = None):
    """Sector blocks of G_{l_zero} + 1/2 sum_r weights[r] G_{factors[r]}^2.

    G_L is sum_ij L_ij 1/2 sum_s (a_is + a+_is)(a_js - a+_js).  With
    a_i a+_j = delta_ij - a+_j a_i that is L.F - tr(L) plus a_i a_j and
    a+_i a+_j terms, and those cancel for a symmetric L, so an asymmetric one
    is refused.  In sector (a, b), G_L = g_a x I + I x g_b with the string
    matrices g = L.E - tr(L)/2, so G_L^2 = g_a^2 x I + I x g_b^2 + 2 g_a x g_b.
    """
    g = _majorana_strings(np.concatenate([l_zero[None], factors]))
    size = g.shape[-1]
    right = weights[:, None, None] * g[1:]
    one = g[0] + 0.5 * right.transpose(1, 0, 2).reshape(size, -1) @ g[1:].reshape(-1, size)
    return _assemble(l_zero.shape[-1], one, g[1:], right, n_electrons)


def build_from_integrals(m: MolecularIntegrals) -> FockOperator:
    """Sector blocks of the second-quantized Hamiltonian

        H = core + sum_{ij,s} h_ij a+_{is} a_{js}
                 + 1/2 sum_{ijkl,sr} (ij|kl) a+_{is} a+_{kr} a_{lr} a_{js}.

    With a+_p a+_t a_u a_q = E_pq E_tu - delta_{qt} E_pu (E_pq = a+_p a_q)
    and the spin sum F_ij = sum_s E_{is,js}, the two-body part is

        1/2 sum_ijkl (ij|kl) F_ij F_kl - 1/2 sum_il (sum_j (ij|jl)) F_il,

    built from the raw integrals, independent of any factorization.  In
    sector (a, b), F_ij F_kl = E_ij E_kl x I + E_ij x E_kl + E_kl x E_ij
    + I x E_ij E_kl on the strings, so the same-spin part is a string matrix
    sum_ij E_ij K_ij, K_ij = sum_kl (ij|kl) E_kl, and the opposite-spin part
    is sum_ij E_ij x K'_ij with the (ij) <-> (kl) symmetrized integrals.
    """
    n = m.n_orbitals
    g = m.two_body.reshape(n * n, n * n)
    h = (m.one_body - 0.5 * np.einsum("ijjl->il", g.reshape(n, n, n, n))).reshape(n * n)
    exc = _strings(n)[0]
    size = exc.shape[-1]
    flat = exc.reshape(n * n, -1)
    same_spin = exc.transpose(1, 0, 2).reshape(size, -1) @ (g @ flat).reshape(-1, size)
    one = (h @ flat).reshape(size, size) + 0.5 * same_spin
    right = (0.5 * (g + g.T) @ flat).reshape(exc.shape)
    return FockOperator(n, _assemble(n, one, exc, right), m.core_energy)


def build_from_df(df: DoubleFactorization, removed=None,
                  n_electrons: int | None = None) -> FockOperator:
    """Sector blocks of the double-factorized form

        H = (core_energy + scalar_shift) * I + G_{l_minus1} + 1/2 sum_r G_{L^(r)}^2,

    where each L^(r) is rebuilt from the retained eigenpairs.  For an
    untruncated factorization this equals :func:`build_from_integrals` of the
    source integrals up to the factorization residual.

    With ``removed``, flat eigenpair indices as in
    ``TruncationPlan.removed``, it is instead the truncation error H - H' of
    removing those eigenpairs.  Truncation leaves the one-body part and the
    shift alone, so H - H' = 1/2 sum_r (G_{L^(r)}^2 - G_{L'^(r)}^2) over only
    the ranks those eigenpairs belong to.  With ``n_electrons``, only the
    sectors N_up + N_down = ``n_electrons`` are built.
    """
    n = df.n_orbitals
    _check_cap(n)
    if removed is None:
        blocks = _df_blocks(df.one_body.l_minus1, df.factor_matrices(), np.ones(df.rank),
                            n_electrons)
        return FockOperator(n, blocks, df.one_body.scalar_shift + df.one_body.core_energy)
    # np.unique would import numpy.ma on first use, about 10 ms in a fresh process
    ranks = np.flatnonzero(np.bincount(removed // n, minlength=df.rank))
    kept = df.eigenvalues.copy()
    kept.reshape(-1)[removed] = 0.0
    factors = np.concatenate([from_eigenpairs(values[ranks], df.eigenvectors[ranks])
                              for values in (df.eigenvalues, kept)])
    weights = np.repeat([1.0, -1.0], len(ranks))
    return FockOperator(n, _df_blocks(np.zeros((n, n)), factors, weights, n_electrons))


def ground_energy(op: FockOperator, n_electrons: int) -> float:
    """Minimum eigenvalue within the fixed-particle-number sector, the lowest
    over its (N_up, N_down) blocks."""
    n_modes = 2 * op.n_spatial
    if not (0 <= n_electrons <= n_modes):
        raise ValueError(f"no {n_electrons}-electron sector in {n_modes} spin-orbitals")
    lowest = []
    for keys, stack in op.blocks:
        keep = [s for s, (n_up, n_down) in enumerate(keys) if n_up + n_down == n_electrons]
        if keep:
            lowest.append(np.linalg.eigvalsh(stack[keep])[:, 0].min())
    if not lowest:
        raise ValueError(f"the operator holds no {n_electrons}-electron sector")
    return float(min(lowest)) + op.shift


def spectral_norm(op: FockOperator) -> float:
    """Largest |eigenvalue| of a FockOperator, the largest over its blocks."""
    return max(float(np.abs(np.linalg.eigvalsh(stack)[:, [0, -1]] + op.shift).max())
               for _, stack in op.blocks)


def _hops(n: int) -> np.ndarray:
    """The entries of the hops F_ij = sum_s a+_{is} a_{js}, i != j, on the
    whole 4^N-dimensional space, as the rows (row, column, value) of a (3, E)
    array."""
    states = np.arange(1 << (2 * n), dtype=np.int64)
    entries = [np.empty((3, 0), dtype=np.int64)]  # N = 1 has no hops
    for i, j in permutations(range(n), 2):
        for s in (0, n):
            image_j, sign_j = _ladder(states, 2 * n, j + s, False)
            image_i, sign_i = _ladder(image_j, 2 * n, i + s, True)
            sign = sign_j * sign_i
            (nz,) = np.nonzero(sign)
            entries.append(np.stack([image_i[nz], nz, sign[nz]]))
    return np.concatenate(entries, axis=1)


def particle_number_commutator_norm(op: FockOperator) -> float:
    """Max |entry| of [F_ij, N_s] over every hop F_ij (i != j) of the whole
    4^N-dimensional Jordan-Wigner space and both spin counts N_s.

    The sector blocks rest on each F_ij keeping (N_up, N_down), so this is
    zero when they hold all of H; a hop that leaves its row's sector reads at
    least 1.  The full-space hops are built by the Jordan-Wigner ladder
    operators, not from the sector strings."""
    n = op.n_spatial
    rows, cols, values = _hops(n)
    return max(float(np.abs(values * (_popcount(rows >> s, n) - _popcount(cols >> s, n)))
                     .max(initial=0.0)) for s in (0, n))


def one_body_norm_check(l_matrices: np.ndarray):
    """(spectral norm of G_L, Schatten norm of L) for each L of an (R, N, N)
    stack, as two (R,) arrays, or for one (N, N) L, as two floats.

    The two agree for any symmetric L, which pins the Majorana-pair
    normalization; an asymmetric L raises ValueError.  In sector (a, b),
    G_L = g_a x I + I x g_b, so its eigenvalues are the sums of those of the
    string matrices g_a and g_b, and its norm is the largest |top_a + top_b|
    or |bottom_a + bottom_b|.  One ``eigvalsh`` call per electron count
    diagonalizes the string matrices of every L.
    """
    l_matrices = _real(l_matrices)
    n = l_matrices.shape[-1]
    stack = l_matrices.reshape(-1, n, n)
    g = _majorana_strings(stack)
    ends = np.stack([np.linalg.eigvalsh(g[:, k, k])[:, [0, -1]] for k in _strings(n)[1]])
    g_norms = np.abs(ends[:, None] + ends[None, :]).max(axis=(0, 1, 3))
    s_norms = np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)
    shape = l_matrices.shape[:-2]
    return g_norms.reshape(shape)[()], s_norms.reshape(shape)[()]
