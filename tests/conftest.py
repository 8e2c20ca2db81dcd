import dataclasses
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from qdf.costmodel import _iceil, _tradeoff_min
from qdf.factorization import double_factorize, single_factorize
from qdf.integrals import MolecularIntegrals, adjusted_one_body, load_fcidump
from qdf.oracle import FockOperator, _df_blocks, _real

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


@pytest.fixture(scope="session")
def h2():
    return load_fcidump(fixture_path("h2_sto3g.fcidump"))


@pytest.fixture(scope="session")
def h4():
    return load_fcidump(fixture_path("h4_sto3g.fcidump"))


@pytest.fixture(scope="session")
def reference_energies():
    with open(fixture_path("reference_energies.json")) as fh:
        return json.load(fh)


def entrywise_norm(a: np.ndarray) -> float:
    """Entrywise 1-norm: sum of absolute entries."""
    return float(np.abs(a).sum())


# Formulas that no qdf command evaluates, kept here with the tests and
# acceptance criteria that check them.


def schatten_norm(a: np.ndarray) -> float:
    """Schatten 1-norm of a symmetric matrix: sum of absolute eigenvalues.
    Criterion 3: (1/N) ||h||_EW <= ||h||_SH <= ||h||_EW."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def majorana_pair_matrix(l_matrix: np.ndarray) -> FockOperator:
    """Sector blocks of G_L = (i/2) sum_{ij,s} L_ij gamma_{i,s,0} gamma_{j,s,1}
    on 2N Jordan-Wigner qubits.  ValueError for an asymmetric L, whose
    pair-creating terms couple sectors.  The fragments of criterion 10 are
    built from it (``tests.reference.df_fragments``)."""
    l_matrix = _real(l_matrix)
    n = l_matrix.shape[0]
    return FockOperator(n, _df_blocks(l_matrix, np.empty((0, n, n)), np.empty(0)))


def rotation_bits(n_rotations: int, eps: float) -> int:
    """Bits of angle precision so that ``n_rotations`` binary-encoded
    rotations accumulate spectral error at most ``eps``:
    ceil(1/2 + log2(n * pi / eps)).  No criterion rests on it: the tests
    check that the 5.652 of ``PrecisionParams.beta`` is this formula at
    8*sqrt(2)*N rotations."""
    if n_rotations < 1 or eps <= 0:
        raise ValueError("need n_rotations >= 1 and eps > 0")
    return _iceil(0.5 + math.log2(n_rotations * math.pi / eps))


def rotation_array_cost(m_rot: int, k: int, b: int, kappa: int, lam: int) -> int:
    """Toffolis for the lookups of a programmable rotation array applying
    ``m_rot`` rotations of ``b`` angle bits through a ``kappa``-qubit data
    register with up to ``lam`` clean helper qubits:

        ceil(m_rot*b/kappa + 1) * (ceil(k / floor(1 + lam'/kappa)) + lam'),

    minimized over lam' in [0, lam].  Criterion 8 checks it against a
    brute-force scan; the walk cost books rotations as 4*N*beta instead.
    """
    if kappa < b:
        raise ValueError("kappa must be >= b")
    if m_rot < 1 or k < 1 or lam < 0:
        raise ValueError("need m_rot >= 1, k >= 1, lam >= 0")
    # Within a block of kappa helpers the cost grows linearly in lam', so the
    # minimum sits at a block start lam' = j*kappa, where it costs
    # ceil(k/(1+j)) + j*kappa per slice.
    return _iceil(m_rot * b / kappa + 1) * _tradeoff_min(k, kappa, 0, lam // kappa)


def majorana_angles(u: np.ndarray) -> np.ndarray:
    """Rotation-chain angles theta_0..theta_{N-2} realizing the unit vector
    ``u`` (criterion 7):

        u_p     = cos(2 theta_p) * prod_{j<p} sin(2 theta_j)   (p < N-1)
        u_{N-1} = prod_j sin(2 theta_j)

    Solved stably with tail norms: cos(2 theta_p) = u_p / ||u[p:]||.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a 1-D vector")
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"u must be unit-norm, got ||u|| = {norm!r}")
    n = u.size
    if n == 1:
        return np.zeros(0)
    # tail[p] = ||u[p:]||_2, computed backwards for stability.
    tail = np.sqrt(np.cumsum(u[::-1] ** 2)[::-1])
    theta = np.zeros(n - 1)
    for p in range(n - 1):
        if tail[p] <= 1e-15:
            break  # remaining components are all zero
        if p < n - 2:
            theta[p] = 0.5 * math.atan2(tail[p + 1], u[p])
        else:
            theta[p] = 0.5 * math.atan2(u[n - 1], u[n - 2])
    return theta


def angles_to_unit_vector(theta: np.ndarray, n: int | None = None) -> np.ndarray:
    """Forward evaluation of the rotation chain (inverse of
    :func:`majorana_angles`, criterion 7)."""
    theta = np.asarray(theta, dtype=float)
    if n is None:
        n = theta.size + 1
    u = np.zeros(n)
    prefix = 1.0
    for p in range(n - 1):
        u[p] = math.cos(2 * theta[p]) * prefix
        prefix *= math.sin(2 * theta[p])
    u[n - 1] = prefix
    return u


def trotter_step_bound(h_fragments: list[np.ndarray]) -> float:
    """Second-order product-formula error coefficient (criterion 10): the
    step error is bounded by bound * t^3 for

        bound = (1/12) * sum_b [ sum_{c>b} sum_{a>b} ||[H_a, [H_b, H_c]]||
                                 + (1/2) sum_{c>b} ||[H_b, [H_b, H_c]]|| ].

    Dense spectral norms; intended for oracle-scale fragments (dimension at
    most 4096).
    """
    frags = [np.asarray(h) for h in h_fragments]
    if not frags:
        return 0.0
    dim = frags[0].shape
    if any(f.shape != dim for f in frags):
        raise ValueError("all fragments must share one dense dimension")
    if dim[0] != dim[1]:
        raise ValueError("fragments must be square")
    if dim[0] > 4096:
        raise ValueError("dense Trotter bound capped at dimension 4096")

    def comm(a, b):
        return a @ b - b @ a

    total = 0.0
    nfrag = len(frags)
    for b in range(nfrag):
        for c in range(b + 1, nfrag):
            inner = comm(frags[b], frags[c])
            for a in range(b + 1, nfrag):
                total += np.linalg.norm(comm(frags[a], inner), 2)
            total += 0.5 * np.linalg.norm(comm(frags[b], inner), 2)
    return total / 12.0


def traced(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scaled(m: MolecularIntegrals, factor: float) -> MolecularIntegrals:
    """All integrals of ``m``, the core energy included, times ``factor``."""
    return MolecularIntegrals(m.n_orbitals, m.n_electrons, factor * m.core_energy,
                              factor * m.one_body, factor * m.pair_matrix)


def packed(tensor: np.ndarray) -> np.ndarray:
    """The (ij|kl) of an (N, N, N, N) tensor at W's (pair, pair) entries,
    read as they are: no symmetry check."""
    rows, cols = np.tril_indices(tensor.shape[0])
    return tensor[rows[:, None], cols[:, None], rows, cols]


def factorize(mol, tol=1e-10):
    return double_factorize(single_factorize(mol, tol=tol), adjusted_one_body(mol))


def without_pair(df, index):
    """``df`` with the eigenpair at flat index ``index`` (r * N + m) deleted by
    hand, its eigenvalue set to 0.0, and nothing else changed: its rank
    stays, even when it is left empty."""
    values = df.eigenvalues.copy()
    values.reshape(-1)[index] = 0.0
    return dataclasses.replace(df, eigenvalues=values)


def sealed(blob: bytes) -> bytes:
    """A cache's bytes with its digest (bytes 4-36) recomputed over every
    byte after it.  Damage sealed this way reads as a well-formed cache: it
    models a wrong writer, where unsealed damage models bit rot, which the
    digest turns into a miss."""
    return blob[:4] + hashlib.sha256(blob[36:]).digest() + blob[36:]


@pytest.fixture(scope="session")
def h2_df(h2):
    return factorize(h2)


@pytest.fixture(scope="session")
def h4_df(h4):
    return factorize(h4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230817)


def random_molecular_integrals(
    n: int,
    rank: int | None = None,
    n_electrons: int | None = None,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
) -> MolecularIntegrals:
    """Random instance with a PSD ERI supermatrix: the two-body tensor is
    sum_r A_r[i,j] A_r[k,l] over random symmetric matrices A_r, which has the
    full 8-fold symmetry by construction."""
    rng = np.random.default_rng() if rng is None else rng
    rank = n if rank is None else rank
    n_electrons = n if n_electrons is None else n_electrons
    h1 = rng.normal(scale=scale, size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    g = np.zeros((n, n, n, n))
    for _ in range(rank):
        a = rng.normal(scale=scale, size=(n, n))
        a = 0.5 * (a + a.T)
        g += np.einsum("ij,kl->ijkl", a, a)
    return MolecularIntegrals(n, n_electrons, float(rng.normal(scale=scale)), h1, g)
