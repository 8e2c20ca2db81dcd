"""Eigenvalue truncation of a double factorization.

Removing eigenpair (r, m) perturbs the Hamiltonian by at most
``score(r, m) = ||L^(r)||_SH * |lambda_m^(r)|`` in spectral norm, where the
Schatten norm is that of the untruncated factor.  The coherent scheme budgets
the linear sum of removed scores against epsilon; the incoherent scheme
budgets the square root of the sum of squares.  Both remove smallest-score
eigenpairs first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qdf.factorization import DoubleFactorization, alpha_from_squares, rank_sums, schatten_squares

__all__ = [
    "SCHEMES",
    "TruncationPlan",
    "default_grid",
    "score_eigenpairs",
    "threshold_sweep",
    "truncate",
]

SCHEMES = ("coherent", "incoherent")


@dataclass(frozen=True)
class TruncationPlan:
    """Result of one truncation: what was removed and the predicted errors.

    ``removed`` holds the flat indices r * N + m of the eigenpairs removed,
    ascending by score (ties by index); ``coherent_score`` is the linear sum
    of removed scores and ``incoherent_score`` the root-sum-square, both in
    Hartree regardless of which scheme drove the removal.
    """

    scheme: str
    epsilon: float
    removed: np.ndarray
    coherent_score: float
    incoherent_score: float


def score_eigenpairs(df: DoubleFactorization) -> tuple[np.ndarray, np.ndarray]:
    """Removal scores ||L^(r)||_SH * |lambda_m^(r)| in ascending order.

    Returns ``(order, scores)``: ``order[i]`` is the flat index r * N + m
    (into ``df.eigenvalues.reshape(-1)``) of the i-th smallest score
    ``scores[i]``.  Flat indices run in (r, m) order, so the stable sort
    breaks ties by (r, m).
    """
    values = df.eigenvalues.reshape(-1)
    flat = np.flatnonzero(values)
    scores = df.schatten_norms[flat // df.n_orbitals] * np.abs(values[flat])
    order = np.argsort(scores, kind="stable")
    return flat[order], scores[order]


def _removal_prefixes(df: DoubleFactorization, scheme, epsilons):
    """The truncation kernel shared by ``truncate`` and ``threshold_sweep``.

    Returns the order of ``score_eigenpairs`` and, per threshold, how many
    leading eigenpairs the budget admits and their linear and root-sum-square
    scores.  ``np.cumsum`` adds left to right like the loop ``acc + s <= eps``
    (or ``sqrt(acc_sq + s * s) <= eps``), and both prefix sums are
    non-decreasing, so the admitted count is a ``searchsorted``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    eps = np.asarray(epsilons, dtype=float)
    if not (np.isfinite(eps).all() and (eps >= 0).all()):
        raise ValueError(f"epsilon must be finite and non-negative, got {eps.tolist()}")
    order, scores = score_eigenpairs(df)
    linear = np.concatenate(([0.0], np.cumsum(scores)))
    with np.errstate(over="ignore"):  # a score above 1e154 squares to inf, which no budget admits
        root_sq = np.concatenate(([0.0], np.sqrt(np.cumsum(scores * scores))))
    used = linear if scheme == "coherent" else root_sq
    counts = np.searchsorted(used[1:], eps, side="right")
    return order, counts, linear[counts], root_sq[counts]


def truncate(
    df: DoubleFactorization, scheme, epsilon: float
) -> tuple[DoubleFactorization, TruncationPlan]:
    """Greedily remove eigenpairs in ascending score order within the budget.

    Returns the reduced factorization (removed eigenvalues become 0.0, ranks
    left with no eigenpairs are dropped, surviving factors keep their frozen
    Schatten norms) and the plan.  ``epsilon = 0`` removes only exactly-zero
    scores.  Raises ValueError unless ``scheme`` is one of ``SCHEMES`` and
    ``epsilon`` is finite and non-negative.
    """
    order, counts, coherent, incoherent = _removal_prefixes(df, scheme, [epsilon])
    removed = order[: counts[0]]
    values = df.eigenvalues.copy()
    values.reshape(-1)[removed] = 0.0
    alive = values.any(axis=1)
    reduced = replace(df, eigenvalues=values[alive], eigenvectors=df.eigenvectors[alive],
                      schatten_norms=df.schatten_norms[alive])
    plan = TruncationPlan(scheme=scheme, epsilon=epsilon, removed=removed,
                          coherent_score=float(coherent[0]), incoherent_score=float(incoherent[0]))
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
    grid = [float(e) for e in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    order, counts, coherent, incoherent = _removal_prefixes(df, scheme, grid)

    # kept |lambda| per rank; a removed pair becomes a 0.0, which leaves alpha_df's left-to-right
    # rank sums unchanged.  After the first point only ranks that lose a pair are summed again.
    kept_abs = np.abs(df.eigenvalues)
    kept_counts = np.count_nonzero(kept_abs, axis=1)
    total = int(kept_counts.sum())
    squares = np.empty(df.rank)
    rows, done = [], 0
    for eps, count, coh, inc in zip(grid, counts.tolist(), coherent.tolist(), incoherent.tolist()):
        newly = order[done:count]
        kept_abs.reshape(-1)[newly] = 0.0
        lost = np.bincount(newly // df.n_orbitals, minlength=df.rank)
        kept_counts -= lost
        done = count
        changed = np.flatnonzero(lost) if rows else slice(None)
        squares[changed] = schatten_squares(rank_sums(kept_abs[changed]))
        alpha = alpha_from_squares(df.one_body_eigs[0], squares)
        rows.append((eps, int(np.count_nonzero(kept_counts)), total - count,
                     int(kept_counts.max(initial=0)), alpha, coh, inc))
    return rows
