"""Every package name the benchmark in ``perfbench/`` calls exists, so that
removing one from ``src/qdf`` fails here rather than in a benchmark run."""

import importlib

import pytest

from perfbench.spans import WRAPPED

# Called outside the traced spans: run.py and record_reference.py write the
# inputs, and checks.py reads back and rebuilds each cache.
OTHER_CALLS = [
    ("integrals", "MolecularIntegrals"),
    ("integrals", "write_fcidump"),
    ("factorization", "load_cache"),
    ("factorization", "DoubleFactorization"),
]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in WRAPPED] + OTHER_CALLS)
def test_perfbench_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"qdf.{module}"), attr))


def test_perfbench_cache_check_calls(h2_df):
    # checks.check_cache rebuilds each factor from the cached eigenpairs
    factors = [h2_df.factor_matrix(r) for r in range(h2_df.rank)]
    assert factors and all(f.shape == (h2_df.n_orbitals,) * 2 for f in factors)
