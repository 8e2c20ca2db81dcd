import dataclasses

import numpy as np
import pytest

from qdf.factorization import alpha_df, schatten_norm
from qdf.integrals import MolecularIntegrals
from qdf.oracle import (
    DENSE_ORBITAL_CAP,
    FockOperator,
    build_from_df,
    build_from_integrals,
    ground_energy,
    majorana_pair_matrix,
    one_body_norm_check,
    particle_number_commutator_norm,
    spectral_norm,
)
from qdf.truncation import truncate
from tests.conftest import factorize, random_molecular_integrals, without_pair
from tests.reference import (
    build_from_df_kron,
    build_from_integrals_kron,
    ground_energy_full,
    majorana_pair_matrix_kron,
)


class TestBuildFromIntegrals:
    def test_single_orbital_level_spectrum(self):
        eps = 0.37
        m = MolecularIntegrals(1, 1, 0.0, np.array([[eps]]), np.zeros((1, 1, 1, 1)))
        op = build_from_integrals(m)
        levels = np.sort(np.linalg.eigvalsh(op.matrix))
        np.testing.assert_allclose(levels, [0.0, eps, eps, 2 * eps], atol=1e-12)

    def test_h2_ground_energy_matches_independent_ci(self, h2, reference_energies):
        op = build_from_integrals(h2)
        e0 = ground_energy(op, 2)
        assert e0 == pytest.approx(reference_energies["h2"]["fci_total_energy"], abs=1e-8)

    def test_h4_ground_energy_matches_independent_ci(self, h4, reference_energies):
        op = build_from_integrals(h4)
        e0 = ground_energy(op, 4)
        assert e0 == pytest.approx(reference_energies["h4"]["fci_total_energy"], abs=1e-8)

    def test_commutes_with_number_operator(self, h2):
        op = build_from_integrals(h2)
        assert particle_number_commutator_norm(op) <= 1e-10

    def test_cap_enforced(self):
        m = MolecularIntegrals(7, 7, 0.0, np.zeros((7, 7)), np.zeros((7, 7, 7, 7)))
        with pytest.raises(ValueError, match="capped"):
            build_from_integrals(m)


class TestBuildFromDf:
    def test_identity_on_fixtures(self, h2, h2_df, h4, h4_df):
        for mol, df in [(h2, h2_df), (h4, h4_df)]:
            a = build_from_integrals(mol)
            b = build_from_df(df)
            assert np.abs(a.matrix - b.matrix).max() <= 1e-8

    def test_identity_on_random_instances(self, rng):
        for n in (2, 3, 4):
            mol = random_molecular_integrals(n, rng=rng, scale=0.6)
            df = factorize(mol)
            a = build_from_integrals(mol)
            b = build_from_df(df)
            assert np.abs(a.matrix - b.matrix).max() <= 1e-8

    def test_two_body_emptied_leaves_one_body(self, h2_df):
        reduced, _ = truncate(h2_df, "coherent", 1e9)
        assert reduced.total_eigenpairs == 0 and reduced.rank == 0
        op = build_from_df(reduced)
        expected = majorana_pair_matrix(h2_df.one_body.l_minus1)
        expected = expected + (
            h2_df.one_body.scalar_shift + h2_df.one_body.core_energy
        ) * np.eye(op.dim)
        np.testing.assert_allclose(op.matrix, expected, atol=1e-12)

    def test_single_removed_pair_respects_score_bound(self, h4_df):
        from qdf.truncation import score_eigenpairs
        from tests.conftest import without_pair

        full = build_from_df(h4_df)
        order, scores = score_eigenpairs(h4_df)
        score = scores[3]
        reduced = without_pair(h4_df, order[3])
        err = spectral_norm(full.matrix - build_from_df(reduced).matrix)
        assert err <= score + 1e-10


class TestNormIdentity:
    def test_scalar_case(self):
        g_norm, s_norm = one_body_norm_check(np.array([[1.0]]))
        assert g_norm == pytest.approx(1.0, abs=1e-12)
        assert s_norm == pytest.approx(1.0, abs=1e-12)

    def test_offdiagonal_case(self):
        g_norm, s_norm = one_body_norm_check(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert g_norm == pytest.approx(2.0, abs=1e-10)
        assert s_norm == pytest.approx(2.0, abs=1e-12)

    def test_random_sweep(self, rng):
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            l_matrix = rng.normal(size=(n, n))
            l_matrix = 0.5 * (l_matrix + l_matrix.T)
            g_norm, s_norm = one_body_norm_check(l_matrix)
            worst = max(worst, abs(g_norm - s_norm))
        assert worst <= 1e-8


class TestGroundEnergy:
    def test_aufbau_noninteracting(self):
        h1 = np.diag([-1.0, 1.0])
        m = MolecularIntegrals(2, 2, 0.0, h1, np.zeros((2, 2, 2, 2)))
        op = build_from_integrals(m)
        assert ground_energy(op, 2) == pytest.approx(-2.0, abs=1e-12)

    def test_empty_sector_rejected(self, h2):
        op = build_from_integrals(h2)
        with pytest.raises(ValueError):
            ground_energy(op, 5)

    def test_coherent_truncation_shifts_energy_within_budget(self, h4, h4_df):
        op_full = build_from_df(h4_df)
        e_full = ground_energy(op_full, h4.n_electrons)
        for eps in (1e-3, 1e-2, 1e-1):
            reduced, plan = truncate(h4_df, "coherent", eps)
            e_trunc = ground_energy(build_from_df(reduced), h4.n_electrons)
            assert abs(e_full - e_trunc) <= plan.coherent_score + 1e-10
            assert plan.coherent_score <= eps


class TestSpectralNorm:
    def test_zero_operator(self):
        op = FockOperator(1, np.zeros((4, 4), dtype=complex))
        assert spectral_norm(op) == 0.0

    def test_non_zero_imaginary_part_refused(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[1, 2], matrix[2, 1] = 1j, -1j
        with pytest.raises(ValueError, match="imaginary"):
            FockOperator(1, matrix)
        with pytest.raises(ValueError, match="imaginary"):
            spectral_norm(matrix)
        with pytest.raises(ValueError, match="imaginary"):
            majorana_pair_matrix(np.array([[1j]]))

    def test_off_sector_entry_refused(self):
        # Basis state 0 is empty and state 3 holds one electron of each spin.
        # The block norms of this matrix are all 0, its norm is 1.
        matrix = np.zeros((4, 4))
        matrix[0, 3] = matrix[3, 0] = 1.0
        with pytest.raises(ValueError, match="sector"):
            spectral_norm(matrix)
        with pytest.raises(ValueError, match="sector"):
            ground_energy(FockOperator(1, matrix), 0)

    def test_pair_creating_majorana_operator_refused(self):
        # An asymmetric L leaves a_i a_j and a+_i a+_j terms in G_L, which
        # couple sectors: spectral_norm refuses the reference G_L, and the
        # sector-block construction refuses the L itself.
        l_matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="sector"):
            spectral_norm(majorana_pair_matrix_kron(l_matrix))
        with pytest.raises(ValueError, match="symmetric"):
            majorana_pair_matrix(l_matrix)
        with pytest.raises(ValueError, match="symmetric"):
            one_body_norm_check(l_matrix)

    def test_non_fock_dimension_refused(self):
        with pytest.raises(ValueError, match="4\\^N"):
            spectral_norm(np.eye(8))

    def test_squared_majorana_pair_bounded_by_schatten_square(self, rng):
        for _ in range(10):
            l_matrix = rng.normal(size=(3, 3))
            l_matrix = 0.5 * (l_matrix + l_matrix.T)
            g = majorana_pair_matrix(l_matrix)
            s = schatten_norm(l_matrix)
            assert spectral_norm(g @ g) <= s * s + 1e-8

    def test_alpha_dominates_shifted_hamiltonian(self, h2_df, h4_df):
        for df in (h2_df, h4_df):
            op = build_from_df(df)
            shift = (
                df.one_body.scalar_shift
                + df.one_body.core_energy
                + 0.25 * float(np.sum(df.schatten_norms**2))
            )
            shifted = op.matrix - shift * np.eye(op.dim)
            assert spectral_norm(shifted) <= alpha_df(df) + 1e-8


class TestSectorBlockEdges:
    """Inputs where a sector block or a rank is empty, and the
    symmetric-coefficient shortcut G_L = L.F - tr(L), the one construction of
    G_L."""

    def test_single_orbital_matches_reference(self, rng):
        # At N=1 the sector (0, 0) holds no F entry and (1, 1) no hop.
        mol = random_molecular_integrals(1, rng=rng, scale=0.6)
        df = factorize(mol)
        op = build_from_integrals(mol)
        assert op.matrix.dtype == np.float64 and op.matrix[0, 0] == mol.core_energy
        for op, ref in ((op, build_from_integrals_kron(mol)),
                        (build_from_df(df), build_from_df_kron(df))):
            for n_electrons in (0, 1, 2):
                assert abs(ground_energy(op, n_electrons)
                           - ground_energy_full(ref, n_electrons)) <= 1e-10

    def test_rank_with_every_pair_removed_matches_reference(self, h4_df):
        reduced = h4_df
        lo, hi = h4_df.offsets[1], h4_df.offsets[2]
        for _ in range(hi - lo):
            reduced = without_pair(reduced, lo)
        assert reduced.rank == h4_df.rank and reduced.offsets[1] == reduced.offsets[2]
        assert np.abs(build_from_df(reduced).matrix - build_from_df_kron(reduced)).max() <= 1e-10

    def test_asymmetric_one_body_refused_by_shortcut(self, h2_df):
        l_matrix = h2_df.one_body.l_minus1.copy()
        l_matrix[0, 1] += 1e-6
        bad = dataclasses.replace(
            h2_df, one_body=dataclasses.replace(h2_df.one_body, l_minus1=l_matrix))
        with pytest.raises(ValueError, match="symmetric"):
            build_from_df(bad)

    def test_asymmetric_majorana_pair_matches_reference(self, rng):
        # On the sector diagonal the reference G_L of an asymmetric L is G of
        # its symmetric part; the rest is the pair-creating part, which the
        # construction refuses.
        n = 3
        l_matrix = rng.normal(size=(n, n))
        ref = majorana_pair_matrix_kron(l_matrix)
        # A basis state holds its spin-up occupations in the high n bits.
        sector = [(bin(s >> n).count("1"), bin(s % 2**n).count("1")) for s in range(4**n)]
        same = np.array([[a == b for b in sector] for a in sector])
        g = majorana_pair_matrix(0.5 * (l_matrix + l_matrix.T))
        assert np.abs(np.where(same, ref, 0.0) - g).max() <= 1e-10
        assert np.abs(ref[~same]).max() > 0.1
        with pytest.raises(ValueError, match="symmetric"):
            majorana_pair_matrix(l_matrix)


def test_dense_cap_constant():
    assert DENSE_ORBITAL_CAP == 6
