import math

import numpy as np
import pytest

from qdf.factorization import DoubleFactorization, alpha_df
from qdf.integrals import AdjustedOneBody
from qdf.truncation import (
    TruncationScheme,
    default_grid,
    score_eigenpairs,
    threshold_sweep,
    truncate,
)


def make_df(groups, n=2, l_minus1=None):
    """DoubleFactorization with prescribed eigenvalues per factor; vectors are
    standard basis vectors (orthonormal within each factor)."""
    l_minus1 = np.zeros((n, n)) if l_minus1 is None else l_minus1
    adj = AdjustedOneBody(h_tilde=np.zeros((n, n)), l_minus1=l_minus1, scalar_shift=0.0)
    vals, vecs = np.linalg.eigh(l_minus1)
    eigenvalues = [lam for lams in groups for lam in lams]
    return DoubleFactorization(
        one_body=adj,
        one_body_eigs=(vals, vecs),
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        eigenvectors=np.eye(n)[[m % n for lams in groups for m in range(len(lams))]].reshape(-1, n),
        offsets=np.concatenate(([0], np.cumsum([len(lams) for lams in groups]))).astype(int),
        schatten_norms=np.asarray([sum(abs(x) for x in lams) for lams in groups], dtype=float),
        n_orbitals=n,
    )


def scored(df):
    """score_eigenpairs as ((r, m), score) pairs."""
    order, scores = score_eigenpairs(df)
    r, m = (a[order].tolist() for a in df.pair_index)
    return list(zip(zip(r, m), scores.tolist()))


class TestScores:
    def test_single_factor_hand_values(self):
        df = make_df([[3.0, 1.0]])
        # ||L||_SH = 4: scores 4*1 = 4 for (0,1) and 4*3 = 12 for (0,0)
        assert scored(df) == [(((0, 1)), 4.0), (((0, 0)), 12.0)]

    def test_equal_magnitudes_give_equal_scores(self):
        df = make_df([[0.5, -0.5, 0.5]])
        pairs = scored(df)
        assert all(s == pytest.approx(1.5 * 0.5) for _, s in pairs)
        # ties resolve lexicographically by (r, m)
        assert [key for key, _ in pairs] == [(0, 0), (0, 1), (0, 2)]

    def test_two_factors_interleave_like_flat_sort(self, h4_df):
        flat = sorted(
            (float(h4_df.schatten_norms[r]) * abs(float(lam)), (r, m))
            for r in range(h4_df.rank)
            for m, lam in enumerate(h4_df.eigenvalues[h4_df.offsets[r]:h4_df.offsets[r + 1]])
        )
        assert [key for _, key in flat] == [key for key, _ in scored(h4_df)]

    def test_scores_use_untruncated_norms(self):
        df = make_df([[2.0, 1.0, 0.1]])
        reduced, _ = truncate(df, "coherent", 0.32)  # removes the 0.1 pair
        assert reduced.total_eigenpairs == 2
        # frozen norm is still 3.1, not 3.0
        assert scored(reduced)[0][1] == pytest.approx(3.1 * 1.0)


class TestTruncate:
    def test_zero_epsilon_removes_only_zero_scores(self):
        df = make_df([[1.0, 0.0, 2.0]])
        # an exactly-zero eigenvalue would be dropped at construction in the
        # real pipeline; placed here it has score zero and is removable
        reduced, plan = truncate(df, "coherent", 0.0)
        assert plan.removed == [(0, 1)]
        assert reduced.total_eigenpairs == 2

    def test_boundary_inclusive(self):
        df = make_df([[3.0, 1.0]])
        _, plan = truncate(df, "coherent", 4.0)
        assert plan.removed == [(0, 1)]
        assert plan.coherent_score == pytest.approx(4.0)

    def test_incoherent_hand_accumulation(self):
        # scores 1e-4, 2e-4, 5e-4; budget 3e-4 admits the first two:
        # sqrt(1e-8 + 4e-8) = 2.24e-4 <= 3e-4, adding the third gives 5.48e-4
        df = make_df([[1e-4, 2e-4, 5e-4]], n=3)
        object.__setattr__(df, "schatten_norms", np.array([1.0]))
        _, plan = truncate(df, "incoherent", 3e-4)
        assert plan.removed == [(0, 0), (0, 1)]
        assert plan.incoherent_score == pytest.approx(math.sqrt(5e-8))

    def test_empty_ranks_dropped(self):
        df = make_df([[1.0], [100.0]])
        reduced, plan = truncate(df, "coherent", 1.0)
        assert plan.surviving_R == 1
        assert reduced.rank == 1
        assert reduced.eigenvalues.tolist() == [100.0]
        np.testing.assert_array_equal(reduced.schatten_norms, [100.0])

    def test_one_body_never_truncated(self, h4_df):
        reduced, _ = truncate(h4_df, "incoherent", 1e6)
        assert reduced.total_eigenpairs == 0
        np.testing.assert_array_equal(
            reduced.one_body_eigs[0], h4_df.one_body_eigs[0]
        )

    def test_negative_epsilon_rejected(self, h2_df):
        with pytest.raises(ValueError):
            truncate(h2_df, "coherent", -1e-3)

    def test_non_finite_epsilon_rejected(self, h2_df):
        # A NaN budget admits nothing in the loop form but everything in a
        # searchsorted, so it is refused before either could run.
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                truncate(h2_df, "coherent", epsilon)
            with pytest.raises(ValueError, match="finite and non-negative"):
                threshold_sweep(h2_df, "incoherent", [1e-3, epsilon])

    def test_determinism(self, h4_df):
        _, p1 = truncate(h4_df, "incoherent", 1e-2)
        _, p2 = truncate(h4_df, "incoherent", 1e-2)
        assert p1.removed == p2.removed

    def test_plan_invariants(self, h4_df):
        scores = dict(scored(h4_df))
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            _, plan = truncate(h4_df, "coherent", eps)
            assert plan.coherent_score <= eps
            removed_scores = [scores[key] for key in plan.removed]
            assert removed_scores == sorted(removed_scores)
            _, plan = truncate(h4_df, "incoherent", eps)
            assert plan.incoherent_score <= eps


class TestSweep:
    def test_trivial_grid_matches_untruncated(self, h4_df):
        rows = threshold_sweep(h4_df, "incoherent", [0.0])
        eps, r, m, m_max, alpha, coherent, incoherent = rows[0]
        assert (r, m, m_max) == (h4_df.rank, h4_df.total_eigenpairs, h4_df.max_eigenpairs_per_rank)
        assert alpha == alpha_df(h4_df)
        assert (coherent, incoherent) == (0.0, 0.0)

    def test_matches_pointwise_truncation(self, h4_df):
        grid = np.concatenate(([0.0], default_grid(1e-6, 10.0, 64)))
        for scheme in ("coherent", "incoherent"):
            rows = threshold_sweep(h4_df, scheme, grid)
            assert len(rows) == grid.size
            for (eps, r, m, m_max, alpha, coherent, incoherent) in rows:
                reduced, plan = truncate(h4_df, scheme, eps)
                assert (r, m) == (plan.surviving_R, plan.surviving_M)
                assert m_max == reduced.max_eigenpairs_per_rank
                assert alpha == alpha_df(reduced)
                assert (coherent, incoherent) == (plan.coherent_score, plan.incoherent_score)

    def test_monotone_along_grid(self, h4_df):
        rows = threshold_sweep(h4_df, "coherent", default_grid())
        ms = [row[2] for row in rows]
        alphas = [row[4] for row in rows]
        assert all(b <= a for a, b in zip(ms, ms[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:]))

    def test_unsorted_grid_rejected(self, h4_df):
        with pytest.raises(ValueError):
            threshold_sweep(h4_df, "coherent", [1e-2, 1e-3])

    def test_default_grid_pattern(self):
        grid = default_grid()
        assert len(grid) == 16
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e-1)
        leading = sorted({round(g / 10 ** math.floor(math.log10(g)), 2) for g in grid})
        assert leading == [1.0, 1.58, 2.51, 3.98, 6.31]


def test_scheme_coercion():
    assert TruncationScheme("coherent") is TruncationScheme.COHERENT
    df = make_df([[1.0]])
    _, plan = truncate(df, TruncationScheme.INCOHERENT, 0.0)
    assert plan.scheme is TruncationScheme.INCOHERENT
