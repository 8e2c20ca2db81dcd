"""Eigenvalue truncation of a double factorization.

Removing eigenpair (r, m) perturbs the Hamiltonian by at most
``score(r, m) = ||L^(r)||_SH * |lambda_m^(r)|`` in spectral norm, where the
Schatten norm is that of the untruncated factor.  The coherent scheme budgets
the linear sum of removed scores against epsilon; the incoherent scheme
budgets the square root of the sum of squares.  Both remove smallest-score
eigenpairs first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from qdf.factorization import DoubleFactorization, alpha_from_rank_sums, rank_sums

__all__ = [
    "TruncationPlan",
    "TruncationScheme",
    "default_grid",
    "score_eigenpairs",
    "threshold_sweep",
    "truncate",
]


class TruncationScheme(str, enum.Enum):
    COHERENT = "coherent"
    INCOHERENT = "incoherent"


@dataclass(frozen=True)
class TruncationPlan:
    """Result of one truncation: what was removed and the predicted errors.

    ``removed`` is sorted ascending by score (ties by (r, m));
    ``coherent_score`` is the linear sum of removed scores and
    ``incoherent_score`` the root-sum-square, both in Hartree regardless of
    which scheme drove the removal.
    """

    scheme: TruncationScheme
    epsilon: float
    removed: list[tuple[int, int]]
    coherent_score: float
    incoherent_score: float
    surviving_R: int
    surviving_M: int


def _coerce_scheme(scheme) -> TruncationScheme:
    if isinstance(scheme, TruncationScheme):
        return scheme
    return TruncationScheme(str(scheme).lower())


def score_eigenpairs(df: DoubleFactorization) -> tuple[np.ndarray, np.ndarray]:
    """Removal scores ||L^(r)||_SH * |lambda_m^(r)| in ascending order.

    Returns ``(order, scores)``: ``order[i]`` is the flat index (row of
    ``df.eigenvalues``) of the i-th smallest score ``scores[i]``.  Flat
    indices run in (r, m) order, so the stable sort breaks ties by (r, m).
    """
    scores = df.schatten_norms[df.pair_index[0]] * np.abs(df.eigenvalues)
    order = np.argsort(scores, kind="stable")
    return order, scores[order]


def _removal_prefixes(df: DoubleFactorization, scheme: TruncationScheme, epsilons):
    """The truncation kernel shared by ``truncate`` and ``threshold_sweep``.

    Returns the order of ``score_eigenpairs`` and, per threshold, how many
    leading eigenpairs the budget admits and their linear and root-sum-square
    scores.  ``np.cumsum`` adds left to right like the loop ``acc + s <= eps``
    (or ``sqrt(acc_sq + s * s) <= eps``), and both prefix sums are
    non-decreasing, so the admitted count is a ``searchsorted``.
    """
    eps = np.asarray(epsilons, dtype=float)
    if not (np.isfinite(eps).all() and (eps >= 0).all()):
        raise ValueError(f"epsilon must be finite and non-negative, got {eps.tolist()}")
    order, scores = score_eigenpairs(df)
    linear = np.concatenate(([0.0], np.cumsum(scores)))
    with np.errstate(over="ignore"):  # a score above 1e154 squares to inf, which no budget admits
        root_sq = np.concatenate(([0.0], np.sqrt(np.cumsum(scores * scores))))
    used = linear if scheme is TruncationScheme.COHERENT else root_sq
    counts = np.searchsorted(used[1:], eps, side="right")
    return order, counts, linear[counts], root_sq[counts]


def truncate(
    df: DoubleFactorization, scheme, epsilon: float
) -> tuple[DoubleFactorization, TruncationPlan]:
    """Greedily remove eigenpairs in ascending score order within the budget.

    Returns the reduced factorization (ranks left with no eigenpairs are
    dropped; surviving factors keep their frozen Schatten norms) and the plan.
    ``epsilon = 0`` removes only exactly-zero scores.  Raises ValueError
    unless ``epsilon`` is finite and non-negative.
    """
    scheme = _coerce_scheme(scheme)
    order, counts, coherent, incoherent = _removal_prefixes(df, scheme, [epsilon])
    removed = order[: counts[0]]
    keep = np.ones(df.total_eigenpairs, dtype=bool)
    keep[removed] = False

    rank_of, local = df.pair_index
    kept_counts = np.bincount(rank_of[keep], minlength=df.rank)
    alive = kept_counts > 0
    reduced = replace(
        df,
        eigenvalues=df.eigenvalues[keep],
        eigenvectors=df.eigenvectors[keep],
        offsets=np.concatenate(([0], np.cumsum(kept_counts[alive]))),
        schatten_norms=df.schatten_norms[alive],
    )
    plan = TruncationPlan(
        scheme=scheme,
        epsilon=epsilon,
        removed=list(zip(rank_of[removed].tolist(), local[removed].tolist())),
        coherent_score=float(coherent[0]),
        incoherent_score=float(incoherent[0]),
        surviving_R=reduced.rank,
        surviving_M=reduced.total_eigenpairs,
    )
    return reduced, plan


def default_grid(lo: float = 1e-4, hi: float = 1e-1, n: int = 16) -> np.ndarray:
    """Log-spaced threshold grid; the default spans 1e-4..1e-1 Hartree in 16
    points (five per decade: 1.00, 1.58, 2.51, 3.98, 6.31 x 10^k)."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


def threshold_sweep(
    df: DoubleFactorization, scheme, grid
) -> list[tuple[float, int, int, int, float, float, float]]:
    """(epsilon, R, M, m_max, alpha_df, coherent_score, incoherent_score) per
    grid threshold, bit for bit those of ``truncate`` there: R, M, m_max (the
    most eigenpairs left in one rank) and ``alpha_df`` of the reduced
    factorization, and the plan's scores.  The scores are sorted once; the
    grid must be ascending, so each point only removes pairs its predecessor
    kept.
    """
    scheme = _coerce_scheme(scheme)
    grid = [float(e) for e in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    order, counts, coherent, incoherent = _removal_prefixes(df, scheme, grid)

    rank_of, local = df.pair_index
    # kept |lambda| per rank; a removed pair becomes a 0.0, which leaves the
    # left-to-right rank sums of alpha_df unchanged
    kept_abs = df.padded_abs_eigenvalues()
    kept_counts = np.diff(df.offsets)
    rows, done = [], 0
    for eps, count, coh, inc in zip(grid, counts.tolist(), coherent.tolist(), incoherent.tolist()):
        newly = order[done:count]
        kept_abs[rank_of[newly], local[newly]] = 0.0
        kept_counts -= np.bincount(rank_of[newly], minlength=df.rank)
        done = count
        alpha = alpha_from_rank_sums(df.one_body_eigs[0], rank_sums(kept_abs))
        rows.append((eps, int(np.count_nonzero(kept_counts)), df.total_eigenpairs - count,
                     int(kept_counts.max(initial=0)), alpha, coh, inc))
    return rows
