import dataclasses
import json
import os

import numpy as np
import pytest

from qdf import (
    MolecularIntegrals,
    adjusted_one_body,
    double_factorize,
    load_fcidump,
    single_factorize,
)

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


def factorize(mol, tol=1e-10):
    return double_factorize(single_factorize(mol, tol=tol), adjusted_one_body(mol))


def without_pair(df, index):
    """``df`` with flat eigenpair ``index`` deleted by hand and nothing else
    changed: its rank stays, even when it is left empty."""
    offsets = df.offsets.copy()
    offsets[int(df.pair_index[0][index]) + 1:] -= 1
    return dataclasses.replace(
        df,
        eigenvalues=np.delete(df.eigenvalues, index),
        eigenvectors=np.delete(df.eigenvectors, index, axis=0),
        offsets=offsets,
    )


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
