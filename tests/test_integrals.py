import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdf.integrals import (
    FcidumpError,
    MolecularIntegrals,
    adjusted_one_body,
    canonical_orbit,
    load_fcidump,
    parse_fcidump,
    validate_symmetry,
    write_fcidump,
)
from tests.conftest import fixture_path, random_molecular_integrals
from tests.reference import orbit_members

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
0.5 1 1 1 1
1.0 1 1 0 0
-0.25 0 0 0 0
"""


def test_parse_minimal_fields():
    m = parse_fcidump(MINIMAL)
    assert m.n_orbitals == 2
    assert m.n_electrons == 2
    assert m.core_energy == -0.25
    assert m.one_body[0, 0] == 1.0
    assert m.two_body[0, 0, 0, 0] == 0.5


def test_eightfold_expansion():
    text = MINIMAL + "0.3 1 2 1 2\n"
    m = parse_fcidump(text)
    for idx in orbit_members(0, 1, 0, 1):
        assert m.two_body[idx] == 0.3
    assert m.two_body[1, 0, 0, 1] == 0.3
    assert m.two_body[0, 1, 1, 0] == 0.3


def test_roundtrip_h2_exact(h2):
    again = parse_fcidump(write_fcidump(h2))
    assert again == h2
    # and once more: the writer's 17-significant-digit output is stable
    assert write_fcidump(again) == write_fcidump(h2)


@pytest.mark.parametrize("name", ["h2_sto3g.fcidump", "h4_sto3g.fcidump"])
def test_rewrite_reproduces_committed_bytes(name):
    with open(fixture_path(name), "rb") as fh:
        committed = fh.read()
    assert write_fcidump(load_fcidump(fixture_path(name))).encode("ascii") == committed


def test_missing_norb_rejected():
    with pytest.raises(FcidumpError, match="NORB"):
        parse_fcidump("&FCI NELEC=2 &END\n0.0 0 0 0 0\n")


def test_index_out_of_range():
    with pytest.raises(FcidumpError, match="out of range"):
        parse_fcidump(MINIMAL + "0.1 3 1 1 1\n")


def test_non_numeric_value():
    with pytest.raises(FcidumpError, match="non-numeric"):
        parse_fcidump(MINIMAL + "abc 1 1 1 1\n")


def test_conflicting_duplicate_rejected_with_line():
    text = MINIMAL + "0.5 1 2 1 2\n0.5001 2 1 2 1\n"
    with pytest.raises(FcidumpError, match="line 9"):
        parse_fcidump(text)


def test_benign_duplicate_last_wins():
    text = MINIMAL + "0.5 1 2 1 2\n0.5 2 1 2 1\n"
    with pytest.warns(UserWarning, match="duplicate"):
        m = parse_fcidump(text)
    assert m.two_body[0, 1, 0, 1] == 0.5


def test_orbital_energy_lines_ignored():
    with pytest.warns(UserWarning, match="orbital-energy"):
        m = parse_fcidump(MINIMAL + "-0.57 1 0 0 0\n")
    assert m.one_body[0, 0] == 1.0


def test_malformed_zero_pattern_rejected():
    with pytest.raises(FcidumpError, match="malformed"):
        parse_fcidump(MINIMAL + "0.1 1 2 2 0\n")


def test_fortran_d_exponent_accepted():
    m = parse_fcidump(MINIMAL + "0.25D-01 2 2 2 2\n")
    assert m.two_body[1, 1, 1, 1] == 0.025


def test_parser_output_is_symmetric(h2, h4):
    assert validate_symmetry(h2) == []
    assert validate_symmetry(h4) == []


def test_validate_symmetry_detects_corruption(h2):
    g = h2.two_body.copy()
    g[0, 1, 0, 1] += 1e-3
    bad = MolecularIntegrals(2, 2, h2.core_energy, h2.one_body, g)
    violations = validate_symmetry(bad)
    assert violations
    orbit = orbit_members(0, 1, 0, 1)
    assert all(v.indices in orbit for v in violations)


def test_validate_symmetry_detects_one_body_asymmetry(h2):
    h1 = h2.one_body.copy()
    h1[0, 1] += 5e-9
    bad = MolecularIntegrals(2, 2, h2.core_energy, h1, h2.two_body)
    violations = validate_symmetry(bad)
    assert [v.relation for v in violations] == ["h_ij = h_ji"]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_symmetrized_random_tensor_validates(n, seed):
    # symmetrization over all 8 permutations is the independent oracle here
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n, n, n))
    g = np.zeros_like(raw)
    for perm in [
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
        (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
    ]:
        g += raw.transpose(perm)
    g /= 8.0
    h1 = rng.normal(size=(n, n))
    m = MolecularIntegrals(n, n, 0.0, 0.5 * (h1 + h1.T), g)
    assert validate_symmetry(m) == []


def test_canonical_orbit_is_orbit_invariant():
    rep = canonical_orbit(0, 3, 2, 1)
    for member in orbit_members(0, 3, 2, 1):
        assert canonical_orbit(*member) == rep


class TestAdjustedOneBody:
    def test_zero_interaction_limit(self):
        h1 = np.array([[1.0, 0.25], [0.25, -0.5]])
        m = MolecularIntegrals(2, 2, 0.0, h1, np.zeros((2, 2, 2, 2)))
        adj = adjusted_one_body(m)
        np.testing.assert_array_equal(adj.h_tilde, h1)
        np.testing.assert_array_equal(adj.l_minus1, h1)
        assert adj.scalar_shift == np.trace(h1)

    def test_single_orbital_hand_values(self):
        # N=1 with h_11 = a and (11|11) = b:
        #   h_tilde = a - b/2, l_minus1 = a + b/2, scalar = a - b/2 + b/2 = a
        a, b = 0.7, 0.3
        m = MolecularIntegrals(1, 1, 0.0, np.array([[a]]), np.full((1, 1, 1, 1), b))
        adj = adjusted_one_body(m)
        assert adj.h_tilde[0, 0] == pytest.approx(a - b / 2, abs=1e-15)
        assert adj.l_minus1[0, 0] == pytest.approx(a + b / 2, abs=1e-15)
        assert adj.scalar_shift == pytest.approx(a, abs=1e-15)

    def test_coulomb_difference_against_loop_oracle(self, rng):
        m = random_molecular_integrals(3, rng=rng)
        adj = adjusted_one_body(m)
        n = m.n_orbitals
        coulomb = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                coulomb[i, j] = sum(m.two_body[l, l, i, j] for l in range(n))
        np.testing.assert_allclose(adj.l_minus1 - adj.h_tilde, coulomb, atol=1e-12)

    def test_linearity_under_scaling(self, h2):
        adj = adjusted_one_body(h2)
        adj2 = adjusted_one_body(h2.scaled(2.0))
        np.testing.assert_allclose(adj2.h_tilde, 2 * adj.h_tilde, rtol=1e-14)
        np.testing.assert_allclose(adj2.l_minus1, 2 * adj.l_minus1, rtol=1e-14)
        assert adj2.scalar_shift == pytest.approx(2 * adj.scalar_shift, rel=1e-14)

    def test_matrices_symmetric(self, h4):
        adj = adjusted_one_body(h4)
        assert np.abs(adj.h_tilde - adj.h_tilde.T).max() < 1e-12
        assert np.abs(adj.l_minus1 - adj.l_minus1.T).max() < 1e-12
