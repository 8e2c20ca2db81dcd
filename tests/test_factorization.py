import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdf import factorization
from qdf.factorization import (
    EIGENVALUE_CUTOFF,
    CacheHeader,
    NotPositiveSemidefiniteError,
    SingleFactorization,
    alpha_df,
    double_factorize,
    load_cache,
    read_cache,
    reconstruct_two_body,
    save_cache,
    schatten_squares,
    single_factorize,
)
from qdf.integrals import AdjustedOneBody, MolecularIntegrals, adjusted_one_body, load_fcidump
from qdf.truncation import score_eigenpairs, truncate
from tests.conftest import (
    entrywise_norm,
    factorize,
    fixture_path,
    packed,
    random_molecular_integrals,
    schatten_norm,
    sealed,
    traced,
    without_pair,
)


def _tensor_from_factors(factors):
    n = factors[0].shape[0]
    g = np.zeros((n, n, n, n))
    for a in factors:
        g += np.einsum("ij,kl->ijkl", a, a)
    return g


def _instance(n, factors, h1=None):
    h1 = np.zeros((n, n)) if h1 is None else h1
    return MolecularIntegrals(n, n, 0.0, h1, _tensor_from_factors(factors))


def _supermatrix(m):
    """The ERI supermatrix W[(i*N + j), (k*N + l)] = (ij|kl) that the
    pivoted Cholesky factorizes."""
    n = m.n_orbitals
    return m.two_body.reshape(n * n, n * n)


class TestSupermatrix:
    def test_single_orbital(self):
        m = MolecularIntegrals(1, 1, 0.0, np.zeros((1, 1)), np.full((1, 1, 1, 1), 0.37))
        w = _supermatrix(m)
        assert w.shape == (1, 1)
        assert w[0, 0] == 0.37

    def test_symmetric_for_random_tensor(self, rng):
        m = random_molecular_integrals(2, rng=rng)
        w = _supermatrix(m)
        np.testing.assert_array_equal(w, w.T)

    def test_h2_supermatrix_psd(self, h2):
        w = _supermatrix(h2)
        assert np.linalg.eigvalsh(w).min() >= -1e-10


class TestSingleFactorize:
    def test_rank_one_exact(self, rng):
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        sf = single_factorize(_instance(3, [a]), tol=1e-12)
        assert sf.rank == 1
        assert sf.residual_sup_norm <= 1e-12
        recovered = sf.factors[0]
        assert min(
            np.abs(recovered - a).max(), np.abs(recovered + a).max()
        ) <= 1e-10

    def test_zero_tensor_rank_zero(self):
        m = MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        sf = single_factorize(m, tol=1e-12)
        assert sf.rank == 0
        assert sf.residual_sup_norm == 0.0

    def test_rank_five_recovery(self, rng):
        factors = []
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            factors.append(0.5 * (a + a.T))
        m = _instance(4, factors)
        sf = single_factorize(m, tol=1e-10)
        assert sf.rank == 5
        recon = _tensor_from_factors(sf.factors)
        assert np.abs(recon - m.two_body).max() <= 1e-10

    def test_tolerance_must_be_positive(self, h2):
        with pytest.raises(ValueError):
            single_factorize(h2, tol=0.0)

    def test_indefinite_supermatrix_rejected(self, rng):
        a = rng.normal(size=(2, 2))
        a = 0.5 * (a + a.T)
        m = MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), -_tensor_from_factors([a]))
        with pytest.raises(NotPositiveSemidefiniteError):
            single_factorize(m, tol=1e-10)

    def test_factors_symmetric(self, h4):
        sf = single_factorize(h4, tol=1e-10)
        for f in sf.factors:
            assert np.abs(f - f.T).max() <= 1e-12


class TestDoubleFactorize:
    def test_diagonal_factor_eigenpairs(self):
        adj = adjusted_one_body(
            MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        )
        sf_like = single_factorize(
            _instance(2, [np.diag([2.0, -1.0])]), tol=1e-12
        )
        df = double_factorize(sf_like, adj)
        lams = df.eigenvalues[0]
        assert lams.tolist() == pytest.approx([2.0, -1.0])
        assert df.schatten_norms[0] == pytest.approx(3.0)

    def test_offdiagonal_factor_eigenpairs(self):
        vals, vecs = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted(vals) == pytest.approx([-1.0, 1.0])
        # textbook eigenvectors (1, +-1)/sqrt(2)
        np.testing.assert_allclose(np.abs(vecs), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_random_factor_reconstruction(self, rng):
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        m = _instance(5, [a])
        df = double_factorize(single_factorize(m, tol=1e-12), adjusted_one_body(m))
        rebuilt = df.factor_matrix(0)
        assert np.abs(rebuilt - df_factor_reference(df, 0)).max() <= 1e-12
        assert np.abs(np.abs(rebuilt) - np.abs(a)).max() <= 1e-8

    def test_eigenvectors_unit_norm(self, h4_df):
        n = h4_df.n_orbitals
        assert h4_df.eigenvectors.shape == (h4_df.rank, n, n)
        kept = h4_df.eigenvalues != 0.0
        assert h4_df.total_eigenpairs == kept.sum() < h4_df.rank * n
        for vec in h4_df.eigenvectors[kept]:
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        # a slot with no eigenpair holds a zero eigenvector row
        assert not h4_df.eigenvectors[~kept].any()

    def test_deterministic_sign_convention(self, h4):
        df1 = double_factorize(single_factorize(h4, tol=1e-10), adjusted_one_body(h4))
        df2 = double_factorize(single_factorize(h4, tol=1e-10), adjusted_one_body(h4))
        np.testing.assert_array_equal(df1.eigenvectors, df2.eigenvectors)
        for vec in df1.eigenvectors[df1.eigenvalues != 0.0]:
            leading = vec[np.abs(vec) > 1e-12][0]
            assert leading > 0

    @pytest.mark.parametrize("failing, message", [
        ([2, 3], "eigendecomposition failed for factor 2: did not converge"),
        ([], "eigendecomposition failed for one-body matrix 0: did not converge"),
    ])
    @pytest.mark.parametrize("chunk", [1 << 20, 8 * 4 * 4], ids=["one-chunk", "a-factor-a-chunk"])
    def test_failed_eigendecomposition_names_first_matrix(self, h4, monkeypatch, failing, message,
                                                          chunk):
        # The factors go to batched eighs, one a chunk; when one fails, the
        # error still names the first matrix that fails on its own, by its rank.
        monkeypatch.setattr(factorization, "_EIGH_CHUNK", chunk)
        sf = single_factorize(h4, tol=1e-10)
        adj = adjusted_one_body(h4)
        marked = [sf.factors[r] for r in failing] or [adj.l_minus1]
        real_eigh = np.linalg.eigh

        def eigh(a):
            stack = np.reshape(a, (-1,) + a.shape[-2:])
            if any(np.array_equal(m, x) for m in marked for x in stack):
                raise np.linalg.LinAlgError("did not converge")
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(ArithmeticError, match=message):
            double_factorize(sf, adj)


def df_factor_reference(df, r):
    n = df.n_orbitals
    out = np.zeros((n, n))
    for m in np.flatnonzero(df.eigenvalues[r]):
        out += df.eigenvalues[r, m] * np.outer(df.eigenvectors[r, m], df.eigenvectors[r, m])
    return out


class TestNorms:
    def test_all_ones_matrix(self):
        a = np.ones((4, 4))
        assert schatten_norm(a) == pytest.approx(4.0, abs=1e-12)
        assert entrywise_norm(a) == 16.0

    def test_single_diagonal_entry(self):
        a = np.zeros((3, 3))
        a[1, 1] = 1.0
        assert schatten_norm(a) == pytest.approx(1.0, abs=1e-12)
        assert entrywise_norm(a) == 1.0

    def test_identity_entrywise(self):
        assert entrywise_norm(np.eye(3)) == 3.0

    def test_schatten_at_least_frobenius(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            a = 0.5 * (a + a.T)
            assert schatten_norm(a) >= np.linalg.norm(a, "fro") - 1e-12

    def test_entrywise_matches_loop(self, rng):
        a = rng.normal(size=(4, 4))
        loop = sum(abs(a[i, j]) for i in range(4) for j in range(4))
        assert entrywise_norm(a) == pytest.approx(loop, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_norm_inequality_chain(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        ew = entrywise_norm(a)
        sh = schatten_norm(a)
        assert ew / n - 1e-10 <= sh <= ew + 1e-10


class TestAlphas:
    def test_alpha_df_one_body_only(self):
        m = MolecularIntegrals(
            2, 2, 0.0, np.diag([1.0, -2.0]), np.zeros((2, 2, 2, 2))
        )
        df = double_factorize(single_factorize(m, tol=1e-10), adjusted_one_body(m))
        assert df.rank == 0
        assert alpha_df(df) == pytest.approx(6.0)

    def test_alpha_df_single_factor(self):
        # one factor with eigenvalues (1, 1) and vanishing one-body part
        m = _instance(2, [np.eye(2)])
        adj = adjusted_one_body(m)
        df = double_factorize(single_factorize(m, tol=1e-12), adj)
        two_body_part = 0.25 * sum(
            sum(abs(lam) for lam in row) ** 2 for row in df.eigenvalues
        )
        assert two_body_part == pytest.approx(1.0, abs=1e-12)

    def test_alpha_cd_single_identity_factor(self):
        m = _instance(2, [np.eye(2)])
        sf = single_factorize(m, tol=1e-12)
        adj = adjusted_one_body(
            MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        )
        assert 2.0 * sum(entrywise_norm(f) ** 2 for f in sf.factors) == pytest.approx(8.0)

    def test_alpha_df_h2_against_eigenvalue_sum_oracle(self, h2, h2_df):
        # independent evaluation straight from eigvalsh sums of the matrices
        adj = adjusted_one_body(h2)
        one_body = np.abs(np.linalg.eigvalsh(adj.l_minus1)).sum()
        sf = single_factorize(h2, tol=1e-10)
        two_body = sum(np.abs(np.linalg.eigvalsh(f)).sum() ** 2 for f in sf.factors)
        assert alpha_df(h2_df) == pytest.approx(2 * one_body + 0.25 * two_body, rel=1e-12)

    def test_alpha_cd_dominates_alpha_df(self, rng):
        for _ in range(10):
            m = random_molecular_integrals(3, rng=rng, scale=0.8)
            adj = adjusted_one_body(m)
            sf = single_factorize(m, tol=1e-10)
            df = double_factorize(sf, adj)
            # alpha_CD = 2 ||h_tilde||_EW + 2 sum_r ||L^(r)||_EW^2 (entrywise norms)
            alpha_cd = 2 * entrywise_norm(adj.h_tilde) + 2 * sum(
                entrywise_norm(f) ** 2 for f in sf.factors)
            assert alpha_cd >= alpha_df(df) - 1e-10

    def test_alpha_overflow_names_the_schatten_sum(self):
        with pytest.raises(OverflowError, match=r"Schatten sum 1e\+200 is out of float range"):
            schatten_squares(np.array([1.0, 1e200, 2.0]))

    def test_alpha_df_monotone_under_removal(self, h4_df):
        previous = alpha_df(h4_df)
        current = h4_df
        for _ in range(6):
            _, scores = score_eigenpairs(current)
            if not scores.size:
                break
            # removing the next-smallest eigenpair must never raise alpha
            current, _ = truncate(current, "coherent", float(scores[0]))
            value = alpha_df(current)
            assert value <= previous + 1e-12
            previous = value


class TestReconstruction:
    def test_untruncated_identity(self, h4, h4_df):
        recon = reconstruct_two_body(h4_df)
        assert np.abs(recon - h4.pair_matrix).max() <= 1e-8

    def test_everything_removed_gives_zero(self, h2_df):
        reduced, _ = truncate(h2_df, "coherent", 1e9)
        assert reduced.total_eigenpairs == 0
        assert np.abs(reconstruct_two_body(reduced)).max() == 0.0

    def test_single_removal_difference_structure(self, h2_df):
        # drop exactly the smallest-score eigenpair by hand
        (index, *_), _ = score_eigenpairs(h2_df)
        r, m = divmod(int(index), h2_df.n_orbitals)
        vec = h2_df.eigenvectors[r, m]
        b = h2_df.eigenvalues[r, m] * np.outer(vec, vec)
        a = df_factor_reference(h2_df, r)
        reduced = without_pair(h2_df, index)

        diff = reconstruct_two_body(h2_df) - reconstruct_two_body(reduced)
        # A(x)A - (A-B)(x)(A-B) = A(x)B + B(x)A - B(x)B for the affected factor
        expected = packed(
            np.einsum("ij,kl->ijkl", a, b)
            + np.einsum("ij,kl->ijkl", b, a)
            - np.einsum("ij,kl->ijkl", b, b)
        )
        np.testing.assert_allclose(diff, expected, atol=1e-10)


class TestCache:
    def test_roundtrip(self, h4_df, tmp_path):
        path = tmp_path / "h4.qdfcache"
        digest = hashlib.sha256(b"h4").digest()
        save_cache(h4_df, path, digest, 1e-10, ["first warning", "second warning"])
        header, again = read_cache(path)
        assert header == CacheHeader(digest, 1e-10, EIGENVALUE_CUTOFF,
                                     ("first warning", "second warning"))
        assert again.n_orbitals == h4_df.n_orbitals
        assert again.rank == h4_df.rank
        np.testing.assert_array_equal(again.schatten_norms, h4_df.schatten_norms)
        np.testing.assert_array_equal(again.one_body.l_minus1, h4_df.one_body.l_minus1)
        assert again.one_body.core_energy == h4_df.one_body.core_energy
        assert_same_arrays(again, h4_df)
        assert not (again.eigenvalues.flags.writeable or again.eigenvectors.flags.writeable)

    def test_empty_rank_roundtrip(self, h4_df, tmp_path):
        # every eigenpair of rank 1 removed leaves an all-zero row, which is read back as it is
        emptied = h4_df
        for m in np.flatnonzero(h4_df.eigenvalues[1]):
            emptied = without_pair(emptied, h4_df.n_orbitals + m)
        assert not emptied.eigenvalues[1].any()
        path = tmp_path / "emptied.qdfcache"
        save_cache(emptied, path, hashlib.sha256(b"h4").digest(), 1e-10)
        again = load_cache(path)
        assert again.rank == emptied.rank == h4_df.rank
        assert_same_arrays(again, emptied)

    @pytest.mark.parametrize("fault, message", [
        ("nan_eigenvalue", "non-finite"),
        ("negative_norm", "negative Schatten norm"),
        ("texts_not_ascii", "not ASCII"),
    ])
    def test_wrong_writer_rejected(self, h4_df, tmp_path, fault, message):
        # The digest is recomputed over each planted fault, so only the
        # checks on the values can catch it.
        path = tmp_path / "h4.qdfcache"
        save_cache(h4_df, path, hashlib.sha256(b"h4").digest(), 1e-10, ["a warning"])
        blob = bytearray(path.read_bytes())
        n, r = h4_df.n_orbitals, h4_df.rank
        norms_at = 96 + 8 * (2 + 3 * n * n + n)
        planted = {
            "nan_eigenvalue": (norms_at + 8 * r, np.float64(np.nan).tobytes()),
            "negative_norm": (norms_at, np.float64(-1.0).tobytes()),
            "texts_not_ascii": (len(blob) - 1, b"\xe9"),
        }
        at, value = planted[fault]
        blob[at:at + len(value)] = value
        path.write_bytes(sealed(bytes(blob)))
        with pytest.raises(ValueError, match=message):
            load_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.qdfcache"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_cache(path)


def assert_same_arrays(a, b):
    for name in ("eigenvalues", "eigenvectors", "schatten_norms"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for x, y in zip(a.one_body_eigs, b.one_body_eigs):
        np.testing.assert_array_equal(x, y)
    for name in ("h_tilde", "l_minus1", "scalar_shift", "core_energy"):
        np.testing.assert_array_equal(getattr(a.one_body, name), getattr(b.one_body, name))
    assert a.n_orbitals == b.n_orbitals


# The v4 digest of the H2 and H4 caches: bytes 4-36, the SHA-256 of every
# later byte.  Their eigenpairs are those of the v3 caches (digests 4b1fb0ae...
# and 6a05fd06...) bit for bit, in the padded layout, with zeros in the slots
# of no eigenpair.
CACHE_SHA256 = {
    "h2": "6feff05b4359ad9ea86afc23ad19634d7ee6bf51264668d0772df86c1daca6aa",
    "h4": "ddb55dac139cf18a193f4894554e978ccb68bb88081529f2934fb6abd831c86d",
}


class TestCacheFormat:
    @pytest.mark.parametrize("name", ["h2", "h4"])
    def test_writer_bytes_unchanged(self, name, tmp_path):
        path = tmp_path / f"{name}.qdfcache"
        fcidump = fixture_path(f"{name}_sto3g.fcidump")
        with open(fcidump, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        save_cache(factorize(load_fcidump(fcidump)), path, digest, 1e-10)
        blob = path.read_bytes()
        assert blob[:4] == b"QDF4" and blob[36:68] == digest
        assert blob[4:36] == hashlib.sha256(blob[36:]).digest()
        assert blob[4:36].hex() == CACHE_SHA256[name]

    def test_truncated_cache_rejected(self, h4_df, tmp_path):
        path = tmp_path / "cut.qdfcache"
        save_cache(h4_df, path, hashlib.sha256(b"h4").digest(), 1e-10)
        blob = path.read_bytes()
        for size in (3, 20, 60, 300, len(blob) - 8, len(blob) - 1, len(blob) + 3):
            # a cut fails the digest; sealed, it fails the magic or the length
            for cut in (blob + b"\0" * 8)[:size], sealed((blob + b"\0" * 8)[:size]):
                path.write_bytes(cut)
                with pytest.raises(ValueError):
                    load_cache(path)


def test_double_factorize_and_cache_memory_bounded_by_outputs(monkeypatch, tmp_path):
    # A stack of 16 chunks of 64 KiB.  The eigendecomposition holds the
    # arrays it returns, sized for every eigenpair, and the working set of
    # one chunk: its eigh, the gathered eigenvector rows and their signs, a
    # few times the chunk.  The cache is hashed and written from the arrays
    # themselves.  One batched eigh over the whole stack, or a joined copy of
    # the cache body, would add more than the whole stack again.
    chunk = 1 << 16
    monkeypatch.setattr(factorization, "_EIGH_CHUNK", chunk)
    n, rank = 16, 512
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rank + 1, n, n))
    factors = 0.5 * (a + a.transpose(0, 2, 1))
    assert factors[:rank].nbytes == 16 * chunk
    sf = SingleFactorization(factors[:rank], 0.0)
    adj = AdjustedOneBody(factors[rank], factors[rank], 0.0)

    def factorize_and_save():
        df = double_factorize(sf, adj)
        save_cache(df, tmp_path / "memory.qdfcache", bytes(32), 1e-10)
        return df

    df, peak = traced(factorize_and_save)
    assert df.total_eigenpairs == rank * n
    returned = 8 * (rank * n + rank * n * n + rank + n * n + n)
    assert peak <= returned + 6 * chunk
