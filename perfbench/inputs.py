"""Seeded synthetic integrals with a PSD two-electron tensor.

Real catalyst and FeMoco integrals are not available offline, so a random
rank-R tensor at a chosen (N, R) stands in for them.  The R symmetric factors
are drawn on the N(N+1)/2 orbital pairs with an exponentially decaying scale,
like the Cholesky vectors of a molecule, and the pair supermatrix is one GEMM
of the factors with themselves.  Scattering it over the pair indices gives the
exact 8-fold symmetry, so ``write_fcidump`` loses nothing.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Factor r has scale exp(-r / (R / DECAY_PER_RANK)): the smallest factor is
# about e^-8 of the largest, so every pivot stays far above the Cholesky
# tolerance and the factorization finds all R factors.
DECAY_PER_RANK = 8.0


def make_integrals(integrals_module, n: int, rank: int, seed: int, instance: int):
    """``MolecularIntegrals`` with an N-orbital, rank-``rank`` PSD tensor;
    ``instance`` numbers the distinct inputs one seed yields."""
    rng = np.random.default_rng([seed, n, rank, instance])
    rows, cols = np.tril_indices(n)
    n_pairs = rows.size
    if rank > n_pairs:
        raise ValueError(f"rank {rank} exceeds the {n_pairs} orbital pairs of N={n}")
    decay = np.exp(-np.arange(rank) * DECAY_PER_RANK / rank)
    factors = rng.standard_normal((rank, n_pairs)) * (decay / np.sqrt(np.sum(decay**2)))[:, None]
    pair_matrix = factors.T @ factors
    pair_matrix = 0.5 * (pair_matrix + pair_matrix.T)
    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[rows, cols] = np.arange(n_pairs)
    pair_of[cols, rows] = np.arange(n_pairs)
    flat = pair_of.reshape(-1)
    two_body = pair_matrix[np.ix_(flat, flat)].reshape(n, n, n, n)
    one_body = rng.standard_normal((n, n))
    one_body = 0.5 * (one_body + one_body.T) - 2.0 * np.eye(n)
    core = float(rng.uniform(1.0, 10.0))
    return integrals_module.MolecularIntegrals(n, n, core, one_body, two_body)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
