
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import make_integrals
from qdf import integrals
from qdf.integrals import (
    FcidumpError,
    MolecularIntegrals,
    adjusted_one_body,
    canonical_orbit,
    load_fcidump,
    pair_index,
    parse_fcidump,
    validate_symmetry,
    write_fcidump,
)
from tests.conftest import fixture_path, random_molecular_integrals, scaled, traced
from tests.reference import canonical_orbits, fill_orbits, orbit_members

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
    with pytest.warns(UserWarning) as caught:
        m = parse_fcidump(MINIMAL + "-0.57 1 0 0 0\n-0.2 2 0 0 0\n")
    assert [str(w.message) for w in caught] == ["fcidump: 2 orbital-energy record(s) ignored"]
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


def test_tensor_corruption_refused_at_construction(h2):
    g = h2.two_body.copy()
    g[0, 1, 0, 1] += 1e-3
    message = r"\(0, 1, 0, 1\) differs from \(1, 0, 1, 0\) by 1\.000e-03"
    with pytest.raises(ValueError, match=message):
        MolecularIntegrals(2, 2, h2.core_energy, h2.one_body, g)


def test_validate_symmetry_detects_pair_matrix_asymmetry(h2):
    # W[(1,1), (1,0)] holds (11|10); its mirror keeps the parsed value.
    w = h2.pair_matrix.copy()
    w[pair_index(2)[1, 1], pair_index(2)[1, 0]] += 1e-3
    violations = validate_symmetry(MolecularIntegrals(2, 2, h2.core_energy, h2.one_body, w))
    assert [(v.relation, v.indices) for v in violations] == [("(ij|kl) = (kl|ij)", (1, 1, 1, 0))]
    assert violations[0].discrepancy == pytest.approx(1e-3)
    assert all(v.indices in orbit_members(1, 1, 1, 0) for v in violations)


def test_validate_symmetry_reports_non_finite_pair_matrix_entry(h2):
    w = h2.pair_matrix.copy()
    w[0, 2] = np.nan  # (00|11), above the diagonal of W
    violations = validate_symmetry(MolecularIntegrals(2, 2, h2.core_energy, h2.one_body, w))
    assert [(v.relation, v.indices) for v in violations] == [("two_body finite", (0, 0, 1, 1))]


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


# Planted in whole orbits: zeros of both signs and non-finite values.
_PLANTED = [0.0, -0.0, np.inf, -np.inf, np.nan]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_symmetric_tensor_round_trips_through_pair_matrix(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(canonical_orbits(n)))
    planted = rng.integers(values.size, size=rng.integers(values.size + 1))
    values[planted] = np.take(_PLANTED, rng.integers(len(_PLANTED), size=planted.size))
    g = fill_orbits(n, values)
    m = MolecularIntegrals(n, n, 0.0, np.zeros((n, n)), g)
    assert m.pair_matrix.shape == (n * (n + 1) // 2,) * 2
    assert np.array_equal(m.two_body, g, equal_nan=True)
    assert np.array_equal(np.signbit(m.two_body), np.signbit(g))


@pytest.mark.parametrize("shift", [1e-6, np.nan, np.inf])
@pytest.mark.parametrize("slot", [(0, 1, 2, 1), (2, 1, 1, 0)])  # non-canonical, canonical
def test_one_slot_off_its_orbit_refused(h4, shift, slot):
    g = h4.two_body
    g[slot] += shift
    with pytest.raises(ValueError, match="not 8-fold symmetric"):
        MolecularIntegrals(4, 4, 0.0, h4.one_body, g)


def test_tensor_packed_from_canonical_slots_within_tolerance(h4):
    # As the fixture generator's basis transform leaves them: slots of one
    # orbit that differ by about 1e-15.
    rng = np.random.default_rng(5)
    g = h4.two_body + 1e-15 * rng.standard_normal((4,) * 4)
    m = MolecularIntegrals(4, 4, h4.core_energy, h4.one_body, g)
    for rep in canonical_orbits(4):
        assert m.two_body[rep] == g[rep]
    assert parse_fcidump(write_fcidump(m)) == m


def test_pair_matrix_stored_as_given(h2):
    w = h2.pair_matrix.copy()
    m = MolecularIntegrals(2, 2, 0.0, h2.one_body, w)
    assert m.pair_matrix is w
    assert m == MolecularIntegrals(2, 2, 0.0, h2.one_body, h2.two_body)
    with pytest.raises(ValueError, match="pair_matrix shape"):
        MolecularIntegrals(2, 2, 0.0, h2.one_body, np.zeros((2, 2)))


def test_parse_memory_bounded_by_records_not_text(monkeypatch, tmp_path):
    # An input of 11 blocks (1.4 MiB, blocks of 128 KiB).  The whole-array
    # reader holds one block of text and 16 bytes a record (key and value),
    # kept in arrays that grow by doubling; a copy of the whole body would
    # take it past 1.5 times.  The parse then adds W, filled from views of
    # the keys and values.  Read from a file, no more than a block of the
    # text is held at once.
    monkeypatch.setattr(integrals, "_PLAIN_BLOCK", 1 << 17)
    data = write_fcidump(make_integrals(integrals, 24, 240, 0, 0)).encode("ascii")
    assert len(data) >= 10 * integrals._PLAIN_BLOCK
    norb, _, n_header = integrals._parse_header(integrals._lines(data))
    body = io.BytesIO(data)
    body.seek(integrals._header_end(data, n_header))
    entries, peak = traced(integrals._plain_entries, integrals._file_blocks(body), norb)
    assert entries is not None and peak <= 1.5 * len(data)
    del entries
    mol, peak = traced(parse_fcidump, data)
    assert mol.n_orbitals == norb and peak <= 1.3 * len(data)
    path = tmp_path / "n24.fcidump"
    path.write_bytes(data)
    del data
    loaded, peak = traced(integrals.load_fcidump, path)
    assert loaded == mol and peak <= 1.5 * path.stat().st_size


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
        adj2 = adjusted_one_body(scaled(h2, 2.0))
        np.testing.assert_allclose(adj2.h_tilde, 2 * adj.h_tilde, rtol=1e-14)
        np.testing.assert_allclose(adj2.l_minus1, 2 * adj.l_minus1, rtol=1e-14)
        assert adj2.scalar_shift == pytest.approx(2 * adj.scalar_shift, rel=1e-14)

    def test_matrices_symmetric(self, h4):
        adj = adjusted_one_body(h4)
        assert np.abs(adj.h_tilde - adj.h_tilde.T).max() < 1e-12
        assert np.abs(adj.l_minus1 - adj.l_minus1.T).max() < 1e-12
