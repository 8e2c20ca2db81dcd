"""Fault-tolerant cost model for qubitized phase estimation on the
double-factorized Hamiltonian.

Costs are counted in Toffoli gates and logical qubits.  The primitives are
data-lookup oracles (clean- or dirty-ancilla assisted, with measurement-based
uncomputation) and coherent state preparation; the walk-operator cost composes
them, and its qubit breakdown is the one place where registers are counted.
All divisions take ceilings: gate counts are integers.

Two walk-cost figures are computed side by side: a detailed sum over the
primitive costs (``walk_toffoli``) and the compact closed-form bound
``4*(M/(1+lam) + lam*(N*beta+1)/2 + 2*N*beta + N)`` (``closed_form_toffoli``).
They differ by design: the closed form books the angle lookup and basis
rotations twice per walk step, while the detailed sum loads angle data once
and cancels the inner rotation layers between the two reflections-conjugated
applications.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

__all__ = [
    "CostReport",
    "ErrorBudget",
    "PrecisionParams",
    "WalkCost",
    "closed_form_walk_toffoli",
    "estimate",
    "lookup_clean",
    "lookup_clean_uncompute",
    "lookup_dirty",
    "lookup_dirty_uncompute",
    "pe_repetitions",
    "sparse_multiplexed_lookup",
    "state_prep_cost",
    "state_prep_uncompute_cost",
    "walk_operator_cost",
]

#: Upper bound of the ancilla-tradeoff scan in :func:`estimate`.
LAMBDA_SCAN_MAX = 64

#: Shares of the target energy standard deviation spent on phase estimation
#: and on walk-operator synthesis.
PE_SHARE = 0.9
SYNTH_SHARE = 0.1

#: Toffoli-to-wall-clock conversions reported alongside totals (seconds per
#: Toffoli for fast and slow error-corrected architectures).
SECONDS_PER_TOFFOLI_FAST = 1e-5
SECONDS_PER_TOFFOLI_SLOW = 1e-2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _iceil(x: float) -> int:
    """Ceiling with a tiny guard so that binary-float noise at exact decimal
    boundaries does not bump a count by one."""
    return math.ceil(x - 1e-9)


def _clog2(x: int) -> int:
    """Bits needed to index x items: ceil(log2(x)), 0 for x <= 1."""
    return (int(x) - 1).bit_length() if x > 1 else 0


def _tradeoff_min(num: int, step: int, lo: int, hi: int) -> int:
    """min over integers x in [lo, hi] (0 <= lo <= hi, step >= 1) of
    ceil(num/(1+x)) + step*x, the ancilla tradeoff of every data lookup.

    With y = 1 + x, F(y) = ceil(num/y) + step*y and c(y) = num/y + step*y,
    c(y) <= F(y) < c(y) + 1.  So U = F(y0) at a feasible y0 (sqrt(num/step)
    rounded down, clamped) bounds the minimum, and any y with F(y) <= U has
    c(y) <= U, i.e. step*y^2 - U*y + num <= 0: y lies between the roots
    (U -+ sqrt(D)) / (2 step), D = U^2 - 4 num step >= 0, as y0 does.  Since
    ceil(t/k) = ceil(ceil(t)/k) and floor(t/k) = floor(floor(t)/k) for integer
    k >= 1, with s = isqrt(D) these are exactly the integers
    ceil((U - s)/(2 step)) .. floor((U + s)/(2 step)); only they are scanned.
    """
    y0 = min(max(math.isqrt(num // step), lo + 1), hi + 1)
    best = u = _ceil_div(num, y0) + step * y0
    s = math.isqrt(u * u - 4 * num * step)
    first, last = max(lo + 1, _ceil_div(u - s, 2 * step)), min(hi + 1, (u + s) // (2 * step))
    for y in range(first, last + 1):
        cost = -(-num // y) + step * y  # _ceil_div inlined: the cost model's hottest loop
        if cost < best:
            best = cost
    return best - step


def lookup_clean(d: int, b: int, lam: int) -> int:
    """Toffolis for a clean-ancilla data lookup of ``d`` entries of ``b`` bits:
    min over lam' in [0, lam] of ceil(d/(1+lam')) + lam'*b."""
    if d <= 1:
        return 0
    if b < 1:
        raise ValueError("b must be >= 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return _tradeoff_min(d, b, 0, lam)


def lookup_clean_uncompute(d: int, lam: int) -> int:
    """Toffolis for measurement-based uncomputation of a clean lookup:
    min over lam' in [0, lam] of ceil(d/(1+lam')) + lam'."""
    return lookup_clean(d, 1, lam)


def lookup_dirty(d: int, b: int, dirty_budget: int) -> int:
    """Toffolis for a dirty-ancilla-assisted lookup, capped by the plain cost:
    min(d, min over lam' in [1, dirty_budget // b] of
    ceil(2d/(1+lam')) + 4*lam'*b).  With fewer than ``b`` dirty qubits there
    is no assistance and the cost is ``d``."""
    if d <= 1:
        return 0
    if b < 1 or dirty_budget < 0:
        raise ValueError("b must be >= 1 and dirty_budget >= 0")
    hi = dirty_budget // b
    return d if hi < 1 else min(d, _tradeoff_min(2 * d, 4 * b, 1, hi))


def lookup_dirty_uncompute(d: int, dirty_budget: int) -> int:
    """Uncompute analog of :func:`lookup_dirty`:
    min(d, min over lam' in [1, dirty_budget] of ceil(2d/(1+lam')) + 4*lam')."""
    return lookup_dirty(d, 1, dirty_budget)


def sparse_multiplexed_lookup(q: int, j: int, b: int, lam: int) -> tuple[int, int]:
    """Doubly-indexed lookup over ``q`` total entries grouped under ``j``
    outer indices, each entry ``b`` bits.

    The outer shift table is looked up with dirty-qubit assistance borrowed
    from the ``1 + b*(1+lam)`` output registers; the flattened index is
    formed by two ceil(log2 q)-bit adders; the main table uses the clean
    lookup with budget ``lam``.  Uncomputation replaces the main lookup by
    its measurement-based variant with budget ``lam * b`` (the
    1-bit-per-copy reinterpretation of the same register block).

    Returns (compute Toffolis, uncompute Toffolis).
    """
    if not (q >= j >= 1):
        raise ValueError("need q >= j >= 1")
    n_dirty = 1 + b * (1 + lam)
    bits_q = _clog2(q)
    shift = 0
    if bits_q >= 1:
        shift = lookup_dirty(j, bits_q, n_dirty) + lookup_dirty_uncompute(j, n_dirty)
    adders = 2 * bits_q
    compute = shift + lookup_clean(q, b, lam) + adders
    uncompute = shift + lookup_clean_uncompute(q, lam * b) + adders
    return compute, uncompute


def state_prep_cost(d: int, mu: int, dirty_budget: int, width: int) -> int:
    """Toffolis for coherent-alias state preparation over ``d`` coefficients
    at ``mu`` bits of precision, with the keep/alt table of ``width``-bit
    entries looked up using dirty-qubit assistance: mu + the dirty lookup.
    The prepared amplitudes satisfy |p_j - a_j/||a||_1| <= 2^-mu / d, hence an
    l1 (block-encoding) error of at most 2^-mu."""
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    return mu + lookup_dirty(d, width, dirty_budget)


def state_prep_uncompute_cost(d: int, mu: int, budget: int) -> int:
    """Measurement-based inversion of :func:`state_prep_cost`: the inner
    lookup is uncomputed at 1 bit per ancilla copy."""
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    return mu + lookup_clean_uncompute(d, budget)


@dataclass(frozen=True)
class ErrorBudget:
    """Target energy standard deviation ``delta_e``, split PE_SHARE to phase
    estimation and SYNTH_SHARE to walk-operator synthesis."""

    delta_e: float

    def __post_init__(self):
        if self.delta_e <= 0:
            raise ValueError("delta_e must be positive")

    def walk_error(self, alpha: float) -> float:
        """Allowed spectral-norm error of the walk operator,
        SYNTH_SHARE * delta_e / alpha (dimensionless)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return SYNTH_SHARE * self.delta_e / alpha


@dataclass(frozen=True)
class PrecisionParams:
    """Bit precisions for the block encodings at walk error ``eps``.

    Two-electron path: beta = ceil(5.652 + log2(N/eps)) rotation bits and
    mu = ceil(2.5 + log2(1/eps)) state-preparation bits.  One-electron path:
    beta1 = ceil(5.152 + log2(N/eps)), mu1 = 2 + ceil(log2(1/eps)).
    """

    beta: int
    mu: int
    beta1: int
    mu1: int

    @classmethod
    def from_error(cls, n: int, eps: float) -> "PrecisionParams":
        if n < 1 or eps <= 0:
            raise ValueError("need n >= 1 and eps > 0")
        return cls(
            beta=_iceil(5.652 + math.log2(n / eps)),
            mu=_iceil(2.5 + math.log2(1.0 / eps)),
            beta1=_iceil(5.152 + math.log2(n / eps)),
            mu1=2 + _iceil(math.log2(1.0 / eps)),
        )


@dataclass(frozen=True)
class WalkCost:
    """Toffoli and qubit cost of one walk step, with breakdowns."""

    toffoli: int
    toffoli_breakdown: dict
    qubits: int
    qubit_breakdown: dict
    precision: PrecisionParams


def closed_form_walk_toffoli(n: int, m_total: int, beta: int, lam: int) -> int:
    """Compact walk-step bound 4*(M/(1+lam) + (lam/2)*(N*beta+1) + 2*N*beta + N),
    rounded up to an integer."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    value = 4.0 * (m_total / (1 + lam) + lam * (n * beta + 1) / 2.0 + 2 * n * beta + n)
    return _iceil(value)


def walk_operator_cost(
    n: int,
    rank: int,
    m_total: int,
    m_max: int,
    budget: ErrorBudget,
    alpha: float,
    lam: int,
) -> WalkCost:
    """Toffoli and qubit cost of one qubitized walk step.

    Composition per step: the two-electron term loads the basis-rotation
    angles once through the doubly-indexed sparse lookup (compute +
    measurement-based uncompute), applies 4*N*beta phase-gradient rotation
    Toffolis and 4*N controlled swaps, and performs two state preparations
    plus two measurement-based unpreparations over the ``m_total``
    coefficients; the one-electron term adds its own angle lookup over N
    entries, 4*N*beta1 rotations, 2*N controlled swaps, and one
    prepare/unprepare pair; the qubitization reflection is charged one
    Toffoli per ancilla-register qubit.

    ``lam`` fixes the angle-data ancilla budget: the data register holds
    N*beta*(1+lam) qubits and dominates the footprint.
    """
    if min(n, rank, m_total, m_max) < 1:
        raise ValueError("n, rank, m_total, m_max must all be >= 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    eps_w = budget.walk_error(alpha)
    prec = PrecisionParams.from_error(n, eps_w)
    beta, mu, beta1, mu1 = prec.beta, prec.mu, prec.beta1, prec.mu1
    nb = n * beta

    dirty_pool = nb * (1 + lam) + 2 * n

    comp, uncomp = sparse_multiplexed_lookup(m_total, rank, nb, lam)
    rotations_2e = 4 * nb
    swaps_2e = 4 * n
    prep_width = 2 * _clog2(m_max) + 2 * _clog2(rank) + mu + 1
    prep_2e = state_prep_cost(m_total, mu, dirty_pool, prep_width)
    unprep_2e = state_prep_uncompute_cost(m_total, mu, dirty_pool)
    state_prep_total = 2 * prep_2e + 2 * unprep_2e

    nb1 = n * beta1
    comp_1e = lookup_clean(n, nb1, lam)
    uncomp_1e = lookup_clean_uncompute(n, lam * nb1)
    rotations_1e = 4 * nb1
    swaps_1e = 2 * n
    prep_1e = state_prep_cost(n, mu1, dirty_pool, _clog2(n) + mu1 + 1)
    unprep_1e = state_prep_uncompute_cost(n, mu1, dirty_pool)
    state_prep_total += prep_1e + unprep_1e

    index_bits = _clog2(m_total) + _clog2(rank)
    garbage_bits = 2 * mu + _clog2(m_total) + 1
    misc_bits = 2  # spin and sign qubits
    reflection = index_bits + garbage_bits + misc_bits

    breakdown = {
        "lookup_compute": comp + comp_1e,
        "lookup_uncompute": uncomp + uncomp_1e,
        "rotations": rotations_2e + rotations_1e,
        "controlled_swaps": swaps_2e + swaps_1e,
        "state_prep": state_prep_total,
        "reflection": reflection,
    }
    toffoli = sum(breakdown.values())

    qubit_breakdown = {
        "system": 2 * n,
        "angle_data": nb * (1 + lam),
        "index": index_bits,
        "state_prep_garbage": garbage_bits,
        "misc": misc_bits,
    }
    qubits = sum(qubit_breakdown.values())

    return WalkCost(
        toffoli=toffoli,
        toffoli_breakdown=breakdown,
        qubits=qubits,
        qubit_breakdown=qubit_breakdown,
        precision=prec,
    )


def pe_repetitions(alpha: float, budget: ErrorBudget) -> int:
    """Walk applications for one phase estimate:
    ceil(pi * alpha / (2 * PE_SHARE * delta_e))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _iceil(math.pi * alpha / (2.0 * PE_SHARE * budget.delta_e))


@dataclass(frozen=True)
class CostReport:
    """Complete cost estimate for one phase-estimation run."""

    n_orbitals: int
    rank_R: int
    eigvec_M: int
    alpha_df: float
    beta: int
    mu: int
    lambda_ancilla: int
    walk_toffoli: int
    walk_toffoli_breakdown: dict
    logical_qubits: int
    logical_qubit_breakdown: dict
    pe_repetitions: int
    total_toffoli: int
    closed_form_toffoli: int
    closed_form_total: int
    mode: str
    delta_e: float
    runtime_seconds_fast: float = field(init=False, default=0.0)
    runtime_seconds_slow: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.total_toffoli != self.walk_toffoli * self.pe_repetitions:
            raise ValueError("total_toffoli must equal walk_toffoli * pe_repetitions")
        object.__setattr__(
            self, "runtime_seconds_fast", self.total_toffoli * SECONDS_PER_TOFFOLI_FAST
        )
        object.__setattr__(
            self, "runtime_seconds_slow", self.total_toffoli * SECONDS_PER_TOFFOLI_SLOW
        )

    def to_dict(self) -> dict:
        return {"schema": "qdf-cost/1", **asdict(self)}


def estimate(
    *,
    n: int,
    rank: int,
    m_total: int,
    m_max: int | None = None,
    alpha: float,
    budget: ErrorBudget | None = None,
    mode: str = "min_toffoli",
    lam: int | None = None,
) -> CostReport:
    """Full phase-estimation cost estimate for N orbitals, ``rank`` factors,
    ``m_total`` eigenpairs (at most ``m_max`` in one factor, by default
    ``min(m_total, n)``) and block-encoding normalization ``alpha``.  A rank or
    eigenpair count below 1 (a fully truncated factorization) counts as 1.

    Modes
    -----
    ``min_toffoli``
        The smallest lam in [0, LAMBDA_SCAN_MAX] with the least total Toffoli
        count.  The walk cost is non-increasing in lam: every term that
        depends on lam is a minimum over an integer interval whose upper end
        does not fall as lam grows (``lookup_clean`` up to lam and its
        uncompute up to lam*b; ``lookup_dirty`` up to budget // b, where the
        budget is N*beta*(1+lam) + 2N or 1 + b*(1+lam)), and the other terms
        and the repetitions do not depend on lam.  So the least count is the
        one at LAMBDA_SCAN_MAX, and the scan stops at the first lam that
        reaches it.
    ``min_qubits``
        Pin lam = 1, the small-footprint configuration (lam = 0 is used only
        when the Toffoli-optimal lam is 0, i.e. the instance is so small that
        extra ancillas buy nothing).  By the same monotonicity, the walk costs
        at lam = 0, 1 and LAMBDA_SCAN_MAX decide it.
    ``fixed``
        Use ``lam`` as given.
    """
    if budget is None:
        budget = ErrorBudget(delta_e=1e-3)
    if m_max is None:
        m_max = min(m_total, n)
    n, alpha = int(n), float(alpha)
    rank, m_total, m_max = (max(int(x), 1) for x in (rank, m_total, m_max))

    reps = pe_repetitions(alpha, budget)
    walks: dict[int, tuple[int, WalkCost]] = {}

    def total_at(lam_value: int) -> tuple[int, WalkCost]:
        """(total Toffolis, walk cost) at ``lam_value``, each computed once."""
        if lam_value not in walks:
            wc = walk_operator_cost(n, rank, m_total, m_max, budget, alpha, lam_value)
            walks[lam_value] = wc.toffoli * reps, wc
        return walks[lam_value]

    if mode == "fixed":
        if lam is None:
            raise ValueError("fixed mode requires lam")
        chosen = int(lam)
    elif mode == "min_toffoli":
        floor = total_at(LAMBDA_SCAN_MAX)[0]
        chosen = next(lam_value for lam_value in range(LAMBDA_SCAN_MAX + 1)
                      if total_at(lam_value)[0] == floor)
    elif mode == "min_qubits":
        # lam = 0 only when it is Toffoli-optimal, i.e. no lam >= 1 is cheaper:
        # the cost being non-increasing in lam, the floor at LAMBDA_SCAN_MAX
        # decides, unless lam = 1 already beats lam = 0.
        t0 = total_at(0)[0]
        chosen = int(total_at(1)[0] < t0 or total_at(LAMBDA_SCAN_MAX)[0] < t0)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    total, wc = total_at(chosen)

    cf = closed_form_walk_toffoli(n, m_total, wc.precision.beta, chosen)
    return CostReport(
        n_orbitals=n,
        rank_R=rank,
        eigvec_M=m_total,
        alpha_df=alpha,
        beta=wc.precision.beta,
        mu=wc.precision.mu,
        lambda_ancilla=chosen,
        walk_toffoli=wc.toffoli,
        walk_toffoli_breakdown=wc.toffoli_breakdown,
        logical_qubits=wc.qubits,
        logical_qubit_breakdown=wc.qubit_breakdown,
        pe_repetitions=reps,
        total_toffoli=total,
        closed_form_toffoli=cf,
        closed_form_total=cf * reps,
        mode=mode,
        delta_e=budget.delta_e,
    )

