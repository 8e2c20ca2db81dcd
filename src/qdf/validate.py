"""The checks of ``qdf validate``.  Each call goes through its module
(``oracle.build_from_df``, never a name imported from it), so that a wrapper
set on the module attribute sees it."""

from __future__ import annotations

import numpy as np

from qdf import factorization, integrals, oracle, truncation

__all__ = ["checks"]


def checks(mol, df, scheme: str):
    """Each check of the integrals ``mol`` and their factorization ``df`` as
    (name, passed, detail), in output order; ``scheme`` is the sweep's."""
    violations = integrals.validate_symmetry(mol)
    yield ("validate_symmetry", not violations,
           "no violations" if not violations else "; ".join(str(v) for v in violations[:5]))

    # W and l_minus1, each rebuilt from its eigenpairs.
    recon = factorization.reconstruct_two_body(df)
    l_minus1 = factorization.from_eigenpairs(*df.one_body_eigs)
    recon_err = max(float(np.abs(recon - mol.pair_matrix).max()),
                    float(np.abs(l_minus1 - df.one_body.l_minus1).max()))
    yield "factorization_reconstruction", recon_err <= 1e-8, f"sup-norm error {recon_err:.3e}"

    h_ref = oracle.build_from_integrals(mol)
    h_df = oracle.build_from_df(df)
    diff = h_ref - h_df
    ident_err = max(float(np.abs(stack + diff.shift * np.eye(stack.shape[-1])).max())
                    for _, stack in diff.blocks)
    yield "representation_identity", ident_err <= 1e-8, f"sup-norm error {ident_err:.3e}"

    number_comm = oracle.particle_number_commutator_norm(h_ref)
    yield "particle_number_symmetry", number_comm <= 1e-10, f"[H, N] max entry {number_comm:.3e}"
    del h_ref, diff  # the rest needs h_df alone

    # ||G_L|| = ||L||_SH for each factor, and equals its stored Schatten norm,
    # which equals the sum of its stored |lambda|: an eigenvalue in a slot
    # whose eigenvector row is zero moves no rebuilt factor, only that sum.
    g_norms, s_norms = oracle.one_body_norm_check(df.factor_matrices())
    sums = factorization.rank_sums(np.abs(df.eigenvalues))
    norm_dev = float(max(np.abs(g_norms - s_norms).max(initial=0.0),
                         np.abs(g_norms - df.schatten_norms).max(initial=0.0),
                         np.abs(sums - df.schatten_norms).max(initial=0.0)))
    yield "one_body_norm_identity", norm_dev <= 1e-8, f"max |deviation| {norm_dev:.3e}"

    alpha = factorization.alpha_df(df)
    # The norms come from the eigenvalues, as in alpha_df, so that a damaged
    # stored norm fails one_body_norm_identity alone.
    t2_const = 0.25 * float(np.sum(sums**2))
    shift = df.one_body.scalar_shift + df.one_body.core_energy + t2_const
    norm_shifted = oracle.spectral_norm(h_df - shift)
    yield ("alpha_dominates_spectral_norm", norm_shifted <= alpha + 1e-8,
           f"||H - shift|| = {norm_shifted:.6g} vs alpha_df = {alpha:.6g}")

    # Each grid point's truncation error H_df - H_trunc is built from the
    # ranks it removes eigenpairs from.  One sweep gives every point's count
    # of removed eigenpairs and scores; a scheme removes eigenpairs in the one
    # fixed order of score_eigenpairs, so the count names the set, and points
    # that remove the same set share one error: its norm (coherent) or the
    # ground-energy shift on the n_electrons sectors (incoherent).  Only the
    # coherent score is a rigorous bound; the incoherent sweep never fails.
    order = truncation.score_eigenpairs(df)[0]
    coherent = scheme == "coherent"
    if coherent:
        def error(removed):
            return oracle.spectral_norm(oracle.build_from_df(df, removed))
    else:
        n_electrons = mol.n_electrons
        h_df = oracle.build_from_df(df, n_electrons=n_electrons)
        e0 = oracle.ground_energy(h_df, n_electrons)

        def error(removed):
            h_trunc = h_df - oracle.build_from_df(df, removed, n_electrons)
            return abs(e0 - oracle.ground_energy(h_trunc, n_electrons))
    known, sound, slack = {0: 0.0}, True, []
    grid = truncation.default_grid()
    for _, _, m, _, _, coh, inc in truncation.threshold_sweep(df, scheme, grid):
        count = df.total_eigenpairs - m
        if count not in known:
            known[count] = error(order[:count])
        bound = coh if coherent else inc
        sound &= known[count] <= bound + 1e-10
        if count:  # a point that removes nothing has error = bound = 0, which shows no slack
            slack.append(known[count] - bound)
    label = "error - bound" if coherent else "|dE0| - score"
    detail = f"worst ({label}) = {max(slack):.3e}" if slack else "no grid point removes an eigenpair"
    if coherent:
        yield "truncation_soundness", sound, detail
    else:
        yield "truncation_sweep", True, f"{detail} (informational)"
