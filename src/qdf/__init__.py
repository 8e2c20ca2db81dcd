"""Classical resource estimation for qubitized quantum phase estimation of
double-factorized electronic-structure Hamiltonians.

The pipeline is: parse molecular integrals (FCIDUMP), factorize the
two-electron tensor (pivoted Cholesky, then per-factor eigendecomposition),
truncate eigenpairs against an error budget, and evaluate fault-tolerant
Toffoli/qubit costs for phase estimation.  A dense exact-diagonalization
oracle validates the factorization identities and truncation error bounds at
small orbital counts.
"""

__version__ = "0.1.0"
