"""The real, sector-blocked dense oracle against the complex Kronecker-chain
backend kept in ``tests/reference.py``: the same Hamiltonian matrices,
truncation-error operators and norms (from the changed ranks and from a full
rebuild), shifted norms, ground energies and one-body norm identities, to
1e-10."""

import numpy as np
import pytest

from qdf.oracle import (
    build_from_df,
    build_from_integrals,
    ground_energy,
    one_body_norm_check,
    spectral_norm,
)
from qdf.truncation import score_eigenpairs, truncate
from tests.conftest import factorize, majorana_pair_matrix, random_molecular_integrals
from tests.reference import (
    build_from_df_kron,
    build_from_integrals_kron,
    dense_matrix,
    ground_energy_full,
    majorana_pair_matrix_kron,
    max_entry,
    spectral_norm_full,
)

TOL = 1e-10


def _real_reference(matrix: np.ndarray) -> np.ndarray:
    """The reference matrix, whose imaginary part is exactly zero for real
    integrals: that is what lets the oracle work in float64."""
    assert not np.any(matrix.imag)
    return matrix


def _epsilons(df) -> list[float]:
    """Coherent budgets that remove about a quarter, a half and all of the
    eigenpairs."""
    budgets = np.cumsum(np.sort(score_eigenpairs(df)[1]))
    return [float(budgets[budgets.size // 4]), float(budgets[budgets.size // 2]),
            float(budgets[-1])]


def _instance(name, request):
    if name in ("h2", "h4"):
        return request.getfixturevalue(name), request.getfixturevalue(f"{name}_df")
    n, seed = name
    mol = random_molecular_integrals(n, rng=np.random.default_rng(seed), scale=0.6)
    return mol, factorize(mol)


@pytest.mark.parametrize("name", ["h2", "h4", (1, 11), (2, 12), (3, 13), (4, 14), (4, 15)],
                         ids=str)
def test_oracle_matches_kron_reference(name, request):
    mol, df = _instance(name, request)
    ref_h = _real_reference(build_from_integrals_kron(mol))
    h = build_from_integrals(mol)
    assert np.abs(dense_matrix(h) - ref_h).max() <= TOL
    e_ref = ground_energy_full(ref_h, mol.n_electrons)
    assert abs(ground_energy(h, mol.n_electrons) - e_ref) <= TOL

    ref_df = _real_reference(build_from_df_kron(df))
    h_df = build_from_df(df)
    assert np.abs(dense_matrix(h_df) - ref_df).max() <= TOL
    e_df = ground_energy(h_df, mol.n_electrons)
    assert abs(e_df - ground_energy_full(ref_df, mol.n_electrons)) <= TOL
    shift = 0.25 * float(np.sum(df.schatten_norms**2))
    assert abs(spectral_norm(h_df - shift)
               - spectral_norm_full(ref_df - shift * np.eye(ref_df.shape[0]))) <= TOL
    h_n = build_from_df(df, n_electrons=mol.n_electrons)
    assert {key for keys, _ in h_n.blocks for key in keys} == {
        key for keys, _ in h_df.blocks for key in keys if sum(key) == mol.n_electrons}

    for scheme in ("coherent", "incoherent"):
        for eps in _epsilons(df):
            reduced, plan = truncate(df, scheme, eps)
            assert plan.removed.size
            ref_trunc = build_from_df_kron(reduced)
            h_trunc = build_from_df(reduced)
            assert np.abs(dense_matrix(h_trunc) - ref_trunc).max() <= TOL
            err = spectral_norm(h_df - h_trunc)
            assert abs(err - spectral_norm_full(ref_df - ref_trunc)) <= TOL
            e_trunc = ground_energy(h_trunc, mol.n_electrons)
            assert abs(e_trunc - ground_energy_full(ref_trunc, mol.n_electrons)) <= TOL
            # The difference from the changed ranks alone: against the
            # reference, and against the full rebuild to 1e-12.
            changed = build_from_df(df, plan.removed)
            assert changed.shift == 0.0
            assert np.abs(dense_matrix(changed) - (ref_df - ref_trunc)).max() <= TOL
            assert max_entry(changed - (h_df - h_trunc)) <= 1e-12
            assert abs(spectral_norm(changed) - spectral_norm_full(ref_df - ref_trunc)) <= TOL
            e_changed = ground_energy(
                h_n - build_from_df(df, plan.removed, mol.n_electrons), mol.n_electrons)
            assert abs(e_changed - ground_energy_full(ref_trunc, mol.n_electrons)) <= TOL

    l_matrices = np.stack([df.one_body.l_minus1, *(df.factor_matrix(r) for r in range(df.rank))])
    g_norms, s_norms = one_body_norm_check(l_matrices)
    assert g_norms.shape == s_norms.shape == (df.rank + 1,)
    for l_matrix, g_stacked in zip(l_matrices, g_norms):
        ref_g = _real_reference(majorana_pair_matrix_kron(l_matrix))
        assert np.abs(dense_matrix(majorana_pair_matrix(l_matrix)) - ref_g).max() <= TOL
        g_norm, _ = one_body_norm_check(l_matrix)
        assert abs(g_norm - spectral_norm_full(ref_g)) <= TOL
        assert g_stacked == g_norm


def test_oracle_matches_kron_reference_n5():
    """One five-orbital instance (dimension 1024, largest block 100); the
    reference's full complex spectra are slow here, so one truncation point."""
    mol = random_molecular_integrals(5, rank=3, rng=np.random.default_rng(16), scale=0.5)
    df = factorize(mol)
    assert np.abs(dense_matrix(build_from_integrals(mol))
                  - _real_reference(build_from_integrals_kron(mol))).max() <= TOL
    ref_df = _real_reference(build_from_df_kron(df))
    h_df = build_from_df(df)
    assert np.abs(dense_matrix(h_df) - ref_df).max() <= TOL
    reduced, plan = truncate(df, "coherent", 4.0)
    assert len(plan.removed) == 3
    ref_trunc = build_from_df_kron(reduced)
    h_trunc = build_from_df(reduced)
    err = spectral_norm(h_df - h_trunc)
    assert abs(err - spectral_norm_full(ref_df - ref_trunc)) <= TOL
    changed = build_from_df(df, plan.removed)
    assert abs(spectral_norm(changed) - err) <= 1e-12
    assert max_entry(changed - (h_df - h_trunc)) <= 1e-12
    for op, ref in ((h_df, ref_df), (h_trunc, ref_trunc)):
        assert abs(ground_energy(op, mol.n_electrons)
                   - ground_energy_full(ref, mol.n_electrons)) <= TOL
    l_matrix = df.factor_matrix(0)
    g_norm, _ = one_body_norm_check(l_matrix)
    assert abs(g_norm - spectral_norm_full(majorana_pair_matrix_kron(l_matrix))) <= TOL
