"""Dense exact-diagonalization ground truth for small instances.

Builds the many-body matrix of a molecular Hamiltonian (or of its
double-factorized form) under the Jordan-Wigner encoding, with spin-up
orbitals on qubits 0..N-1 and spin-down on N..2N-1; qubit 0 is the most
significant bit of a basis-state index.  Every operator built from real
integrals is real, so matrices are float64.  Both Hamiltonians conserve
(N_up, N_down), so they are built sector block by sector block: each block is
a numpy gather of the spin-summed excitations F_ij = sum_s a+_{is} a_{js}
inside the sector, and sectors of one block size are stacked and handled by
one call.  Spectra are taken on the same stacked blocks.  Capped at N = 6
spatial orbitals (4096-dimensional, largest sector block C(6,3)^2 = 400).
Used to verify the factorization identity, the one-body norm identity, and
the truncation error bounds.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

import numpy as np

from qdf.factorization import DoubleFactorization, schatten_norm
from qdf.integrals import MolecularIntegrals

__all__ = [
    "FockOperator",
    "build_from_df",
    "build_from_integrals",
    "ground_energy",
    "majorana_pair_matrix",
    "one_body_norm_check",
    "particle_number_commutator_norm",
    "spectral_norm",
]

#: Largest spatial-orbital count the dense backend accepts.
DENSE_ORBITAL_CAP = 6

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


class FockOperator:
    """Dense real symmetric many-body matrix over 2N Jordan-Wigner qubits."""

    def __init__(self, n_spatial: int, matrix: np.ndarray):
        _check_cap(n_spatial)
        matrix = _real(matrix)
        dim = 1 << (2 * n_spatial)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        _check_hermitian(matrix)
        self.n_spatial = n_spatial
        self.matrix = matrix

    @classmethod
    def _from_blocks(cls, n_spatial: int, blocks, shift: float) -> "FockOperator":
        """shift * I plus the given (sectors, (S, d, d) blocks) pairs on the
        sector diagonal.  Such a matrix is Hermitian iff its blocks are, so
        only they are checked."""
        dim = 1 << (2 * n_spatial)
        matrix = np.zeros((dim, dim))
        for sectors, block in blocks:
            _check_hermitian(block)
            matrix[sectors.index[:, :, None], sectors.index[:, None, :]] = block
        matrix.flat[:: dim + 1] += shift
        op = cls.__new__(cls)
        op.n_spatial, op.matrix = n_spatial, matrix
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Number of set bits among the low ``bits`` bits of each value."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for q in range(bits):
        counts += (values >> q) & 1
    return counts


class _Sectors(NamedTuple):
    """S (N_up, N_down) sectors that share the block size d and the hop count c.

    Sector s, labelled ``keys[s]``, holds the basis states ``index[s]`` in
    ascending order.  Inside it F_ij is diagonal for i = j, with the electron
    count ``occ[s, x, i]`` of orbital i in local state x.  For i != j it moves
    one electron: row x holds c such entries, ``sign[s, x, k]`` at local column
    ``col[s, x, k]`` of F_ij with i * N + j = ``owner[s, x, k]``.  Each (row,
    column) pair holds at most one of these entries.
    """

    keys: list[tuple[int, int]]
    index: np.ndarray
    occ: np.ndarray
    owner: np.ndarray
    col: np.ndarray
    sign: np.ndarray


class _JordanWigner:
    """Basis-state actions and (N_up, N_down) sector data for N spatial orbitals.

    ``groups`` lists the sectors, stacked by block size.
    """

    _cache: dict[int, "_JordanWigner"] = {}

    def __init__(self, n: int):
        _check_cap(n)
        self.n = n
        self._states = states = np.arange(1 << (2 * n), dtype=np.int64)
        up = _popcount(states >> n, n)
        down = _popcount(states, n)
        sector = up * (n + 1) + down
        members = [np.flatnonzero(sector == k) for k in range((n + 1) ** 2)]
        local = np.empty(states.size, dtype=np.int64)
        for index in members:
            local[index] = np.arange(index.size)
        orbitals = 2 * n - 1 - np.arange(n)
        occ = ((states[:, None] >> orbitals) & 1) + ((states[:, None] >> (orbitals - n)) & 1)
        # The hops, row by row: a sector lists its states in ascending order,
        # so its entries then reshape to (d, c).
        hops = self._hops()
        rows, cols, vals, owner = hops[:, np.argsort(hops[0], kind="stable")]

        by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for n_up in range(n + 1):
            for n_down in range(n + 1):
                d = members[n_up * (n + 1) + n_down].size
                c = n_up * (n - n_up) + n_down * (n - n_down)
                by_shape.setdefault((d, c), []).append((n_up, n_down))
        self.groups = []
        for (d, c), keys in by_shape.items():
            ids = [n_up * (n + 1) + n_down for n_up, n_down in keys]
            index = np.stack([members[k] for k in ids])
            entries = np.concatenate([np.flatnonzero(sector[rows] == k) for k in ids])
            shape = (len(keys), d, c)
            self.groups.append(_Sectors(
                keys=keys,
                index=index,
                occ=occ[index].astype(float),
                owner=owner[entries].reshape(shape),
                col=local[cols[entries]].reshape(shape),
                sign=vals[entries].reshape(shape).astype(float),
            ))

    @classmethod
    def get(cls, n: int) -> "_JordanWigner":
        if n not in cls._cache:
            cls._cache[n] = cls(n)
        return cls._cache[n]

    def _ladder(self, mode: int, create: bool) -> tuple[np.ndarray, np.ndarray]:
        """(image, sign) of a+_mode (or a_mode) on every basis state; the sign
        is 0 where the operator annihilates the state."""
        shift = 2 * self.n - 1 - mode
        occupied = (self._states >> shift) & 1
        # Jordan-Wigner string: parity of the modes before ``mode``, which are
        # the more significant bits.
        parity = _popcount(self._states >> (shift + 1), mode) & 1
        sign = (1 - 2 * parity) * (occupied != create)
        return self._states ^ (1 << shift), sign

    def _hops(self):
        """The entries of the hops F_ij = sum_s a+_{is} a_{js}, i != j, on the
        whole space, as the rows (row, column, value, owner) of a (4, E) array;
        entry e belongs to F_ij with i * N + j = ``owner[e]``."""
        n = self.n
        create = [self._ladder(mode, True) for mode in range(2 * n)]
        annihilate = [self._ladder(mode, False) for mode in range(2 * n)]
        entries = [np.empty((4, 0), dtype=np.int64)]  # N = 1 has no hops
        for i, j in permutations(range(n), 2):
            for s in (0, n):
                image_j, sign_j = annihilate[j + s]
                image_i, sign_i = create[i + s]
                sign = sign_j * sign_i[image_j]
                (nz,) = np.nonzero(sign)
                entries.append(np.stack(
                    [image_i[image_j[nz]], nz, sign[nz], np.full(nz.size, i * n + j)]))
        return np.concatenate(entries, axis=1)


def _excitation_blocks(sectors: _Sectors, coeffs: np.ndarray, majorana: bool = False):
    """Blocks (S, R, d, d) of sum_ij coeffs[r, i, j] F_ij in each sector or,
    with ``majorana``, of the Majorana-pair operator G_L of each L = coeffs[r].

    G_L is sum_ij L_ij 1/2 sum_s (a_is + a+_is)(a_js - a+_js).  With
    a_i a+_j = delta_ij - a+_j a_i that is L.F - tr(L) plus a_i a_j and
    a+_i a+_j terms, and those cancel for a symmetric L, so an asymmetric
    one is refused.
    """
    n_coeffs, n = coeffs.shape[0], coeffs.shape[-1]
    s, d, _ = sectors.col.shape
    occ = sectors.occ
    if majorana:
        asym = np.abs(coeffs - coeffs.transpose(0, 2, 1)).max(initial=0.0)
        if asym > HERMITICITY_TOLERANCE:
            raise ValueError(f"G_L = L.F - tr(L) needs a symmetric L: asymmetry {asym:.3e}")
        occ = occ - 1.0
    blocks = np.zeros((s, n_coeffs, d * d))
    flat = coeffs.reshape(n_coeffs, n * n)
    pos = np.arange(d)[:, None] * d + sectors.col
    blocks[np.arange(s)[:, None, None], :, pos] = flat.T[sectors.owner] * sectors.sign[..., None]
    blocks[:, :, :: d + 1] = (occ @ np.diagonal(coeffs, axis1=1, axis2=2).T).transpose(0, 2, 1)
    return blocks.reshape(s, n_coeffs, d, d)


def build_from_integrals(m: MolecularIntegrals) -> FockOperator:
    """Dense matrix of the second-quantized Hamiltonian

        H = core + sum_{ij,s} h_ij a+_{is} a_{js}
                 + 1/2 sum_{ijkl,sr} (ij|kl) a+_{is} a+_{kr} a_{lr} a_{js}.

    With a+_p a+_t a_u a_q = E_pq E_tu - delta_{qt} E_pu (E_pq = a+_p a_q)
    and the spin sum F_ij = sum_s E_{is,js}, the two-body part is

        1/2 sum_ij F_ij K_ij - 1/2 sum_il (sum_j (ij|jl)) F_il,
        K_ij = sum_kl (ij|kl) F_kl,

    built from the raw integrals, independent of any factorization.  In each
    sector, row x of F_ij K_ij is a signed sum of rows of K_ij: the rows at
    the hop columns of x, and row x itself weighted by the count of i in x.
    """
    n = m.n_orbitals
    jw = _JordanWigner.get(n)
    g = m.two_body
    one_body = (m.one_body - 0.5 * np.einsum("ijjl->il", g))[None]
    diagonal = np.arange(n) * (n + 1)
    blocks = []
    for sectors in jw.groups:
        k = _excitation_blocks(sectors, g.reshape(n * n, n, n))
        hops = k[np.arange(k.shape[0])[:, None, None], sectors.owner, sectors.col]
        two_body = np.einsum("sxc,sxcy->sxy", sectors.sign, hops)
        two_body += np.einsum("sxi,sixy->sxy", sectors.occ, k[:, diagonal])
        blocks.append((sectors, _excitation_blocks(sectors, one_body)[:, 0] + 0.5 * two_body))
    return FockOperator._from_blocks(n, blocks, m.core_energy)


def _majorana_pair_blocks(l_matrix: np.ndarray):
    """(sectors, (S, d, d) blocks) of G_L for each block size."""
    l_matrix = _real(l_matrix)
    return [(sectors, _excitation_blocks(sectors, l_matrix[None], majorana=True)[:, 0])
            for sectors in _JordanWigner.get(l_matrix.shape[0]).groups]


def majorana_pair_matrix(l_matrix: np.ndarray) -> np.ndarray:
    """Dense real matrix of G_L = (i/2) sum_{ij,s} L_ij gamma_{i,s,0}
    gamma_{j,s,1} on 2N Jordan-Wigner qubits, assembled from its sector
    blocks.  ValueError for an asymmetric L, whose pair-creating terms
    couple sectors."""
    return FockOperator._from_blocks(len(l_matrix), _majorana_pair_blocks(l_matrix), 0.0).matrix


def build_from_df(df: DoubleFactorization) -> FockOperator:
    """Dense matrix of the double-factorized form

        H = (core_energy + scalar_shift) * I + G_{l_minus1} + 1/2 sum_r G_{L^(r)}^2,

    where each L^(r) is rebuilt from the retained eigenpairs.  For an
    untruncated factorization this equals :func:`build_from_integrals` of the
    source integrals up to the factorization residual.  In each sector the
    G_{L^(r)} blocks are symmetric, so 1/2 sum_r G_r^2 is one product G^T G of
    the blocks stacked on top of each other.
    """
    n, rank = df.n_orbitals, df.rank
    jw = _JordanWigner.get(n)
    coeffs = np.stack([df.one_body.l_minus1, *(df.factor_matrix(r) for r in range(rank))])
    blocks = []
    for sectors in jw.groups:
        g = _excitation_blocks(sectors, coeffs, majorana=True)
        s, _, d, _ = g.shape
        stacked = g[:, 1:].reshape(s, rank * d, d)
        blocks.append((sectors, g[:, 0] + 0.5 * (stacked.transpose(0, 2, 1) @ stacked)))
    shift = df.one_body.scalar_shift + df.one_body.core_energy
    return FockOperator._from_blocks(n, blocks, shift)


def _sector_blocks(matrix: np.ndarray, n_electrons: int | None = None):
    """The (N_up, N_down) diagonal blocks of a 4^N x 4^N matrix, stacked by
    block size, only those with N_up + N_down = ``n_electrons`` if it is
    given.  Raises ValueError if a row of a block has a non-zero entry
    outside the block: the block spectra would then not be spectra of the
    matrix."""
    dim = matrix.shape[0]
    n = (dim.bit_length() - 1) // 2
    if matrix.shape != (1 << (2 * n),) * 2:
        raise ValueError(f"matrix shape {matrix.shape} is not 4^N x 4^N")
    row_nonzeros = np.count_nonzero(matrix, axis=1)
    for sectors in _JordanWigner.get(n).groups:
        keys, index = sectors.keys, sectors.index
        if n_electrons is not None:
            keep = [s for s, (n_up, n_down) in enumerate(keys) if n_up + n_down == n_electrons]
            if not keep:
                continue
            keys, index = [keys[s] for s in keep], index[keep]
        blocks = matrix[index[:, :, None], index[:, None, :]]
        coupled = np.flatnonzero(row_nonzeros[index].sum(axis=1)
                                 != np.count_nonzero(blocks, axis=(1, 2)))
        if coupled.size:
            n_up, n_down = keys[coupled[0]]
            raise ValueError(
                f"matrix couples the (N_up, N_down) = ({n_up}, {n_down}) sector to another"
            )
        yield blocks


def ground_energy(op: FockOperator, n_electrons: int) -> float:
    """Minimum eigenvalue within the fixed-particle-number sector, the lowest
    over its (N_up, N_down) blocks."""
    n_modes = 2 * op.n_spatial
    if not (0 <= n_electrons <= n_modes):
        raise ValueError(f"no {n_electrons}-electron sector in {n_modes} spin-orbitals")
    return min(float(np.linalg.eigvalsh(b)[:, 0].min())
               for b in _sector_blocks(op.matrix, n_electrons))


def particle_number_commutator_norm(op: FockOperator) -> float:
    """Max |entry| of [H, N_hat]; zero for particle-conserving Hamiltonians."""
    counts = _popcount(np.arange(op.dim, dtype=np.int64), 2 * op.n_spatial).astype(float)
    delta = counts[None, :] - counts[:, None]  # [H, diag(c)]_xy = H_xy (c_y - c_x)
    return float(np.abs(op.matrix * delta).max())


def spectral_norm(op) -> float:
    """Largest |eigenvalue| of a FockOperator or of a real symmetric 4^N x 4^N
    ndarray, the largest over its (N_up, N_down) blocks.  Raises ValueError
    if the matrix couples two sectors."""
    matrix = op.matrix if isinstance(op, FockOperator) else _real(op)
    return max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in _sector_blocks(matrix))


def one_body_norm_check(l_matrix: np.ndarray) -> tuple[float, float]:
    """(spectral norm of G_L, Schatten norm of L), the first from the sector
    blocks of G_L.  The two agree for any symmetric L, which pins the
    Majorana-pair normalization; an asymmetric L raises ValueError."""
    g_norm = max(float(np.abs(np.linalg.eigvalsh(b)).max())
                 for _, b in _majorana_pair_blocks(l_matrix))
    return g_norm, schatten_norm(l_matrix)
