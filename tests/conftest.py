import dataclasses
import json
import os

import numpy as np
import pytest

from qdf import (
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
