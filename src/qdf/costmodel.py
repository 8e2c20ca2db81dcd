"""Fault-tolerant cost model for qubitized phase estimation on the
double-factorized Hamiltonian.

Costs are counted in Toffoli gates and logical qubits.  The primitives are
data-lookup oracles (clean- or dirty-ancilla assisted, with measurement-based
uncomputation), coherent state preparation with garbage, and programmable
rotation arrays; the walk-operator cost composes them.  All divisions take
ceilings: gate counts are integers.

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

import numpy as np

__all__ = [
    "CostReport",
    "ErrorBudget",
    "PrecisionParams",
    "WalkCost",
    "angles_to_unit_vector",
    "closed_form_walk_toffoli",
    "estimate",
    "lookup_clean",
    "lookup_clean_uncompute",
    "lookup_dirty",
    "lookup_dirty_uncompute",
    "majorana_angles",
    "pe_repetitions",
    "rotation_array_cost",
    "rotation_bits",
    "sparse_multiplexed_lookup",
    "state_prep_cost",
    "state_prep_uncompute_cost",
    "trotter_step_bound",
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


def sparse_multiplexed_lookup(q: int, j: int, b: int, lam: int) -> tuple[int, int, int]:
    """Doubly-indexed lookup over ``q`` total entries grouped under ``j``
    outer indices, each entry ``b`` bits.

    The outer shift table is looked up with dirty-qubit assistance borrowed
    from the ``1 + b*(1+lam)`` output registers; the flattened index is
    formed by two ceil(log2 q)-bit adders; the main table uses the clean
    lookup with budget ``lam``.  Uncomputation replaces the main lookup by
    its measurement-based variant with budget ``lam * b`` (the
    1-bit-per-copy reinterpretation of the same register block).

    Returns (compute Toffolis, uncompute Toffolis, clean qubits).
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
    clean_qubits = max(bits_q, _clog2(j)) + lam * b
    return compute, uncompute, clean_qubits


def state_prep_cost(
    d: int, mu: int, dirty_budget: int, width: int | None = None
) -> tuple[int, int, int]:
    """Coherent-alias state preparation over ``d`` coefficients at ``mu`` bits
    of precision, with the keep/alt table looked up using dirty-qubit
    assistance.

    ``width`` is the lookup output width; by default ceil(log2 d) + mu.  The
    prepared amplitudes satisfy |p_j - a_j/||a||_1| <= 2^-mu / d, hence an
    l1 (block-encoding) error of at most 2^-mu.

    Returns (Toffolis, garbage qubits, clean qubits).
    """
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    if width is None:
        width = _clog2(d) + mu
    toffoli = mu + lookup_dirty(d, width, dirty_budget)
    garbage = 2 * mu + _clog2(d)
    clean = _clog2(d)
    return toffoli, garbage, clean


def state_prep_uncompute_cost(d: int, mu: int, budget: int) -> int:
    """Measurement-based inversion of :func:`state_prep_cost`: the inner
    lookup is uncomputed at 1 bit per ancilla copy."""
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    return mu + lookup_clean_uncompute(d, budget)


def rotation_bits(n_rotations: int, eps: float) -> int:
    """Bits of angle precision so that ``n_rotations`` binary-encoded
    rotations accumulate spectral error at most ``eps``:
    ceil(1/2 + log2(n * pi / eps))."""
    if n_rotations < 1 or eps <= 0:
        raise ValueError("need n_rotations >= 1 and eps > 0")
    return _iceil(0.5 + math.log2(n_rotations * math.pi / eps))


def rotation_array_cost(m_rot: int, k: int, b: int, kappa: int, lam: int) -> int:
    """Toffolis for the lookups of a programmable rotation array applying
    ``m_rot`` rotations of ``b`` angle bits through a ``kappa``-qubit data
    register with up to ``lam`` clean helper qubits:

        ceil(m_rot*b/kappa + 1) * (ceil(k / floor(1 + lam'/kappa)) + lam'),

    minimized over lam' in [0, lam].
    """
    if kappa < b:
        raise ValueError("kappa must be >= b")
    if m_rot < 1 or k < 1 or lam < 0:
        raise ValueError("need m_rot >= 1, k >= 1, lam >= 0")
    # Within a block of kappa helpers the cost grows linearly in lam', so the
    # minimum sits at a block start lam' = j*kappa, where it costs
    # ceil(k/(1+j)) + j*kappa per slice.
    return _iceil(m_rot * b / kappa + 1) * _tradeoff_min(k, kappa, 0, lam // kappa)


def majorana_angles(u: np.ndarray) -> np.ndarray:
    """Rotation-chain angles theta_0..theta_{N-2} realizing the unit vector
    ``u``:

        u_p     = cos(2 theta_p) * prod_{j<p} sin(2 theta_j)   (p < N-1)
        u_{N-1} = prod_j sin(2 theta_j)

    Solved stably with tail norms: cos(2 theta_p) = u_p / ||u[p:]||.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a 1-D vector")
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"u must be unit-norm, got ||u|| = {norm!r}")
    n = u.size
    if n == 1:
        return np.zeros(0)
    # tail[p] = ||u[p:]||_2, computed backwards for stability.
    tail = np.sqrt(np.cumsum(u[::-1] ** 2)[::-1])
    theta = np.zeros(n - 1)
    for p in range(n - 1):
        if tail[p] <= 1e-15:
            break  # remaining components are all zero
        if p < n - 2:
            theta[p] = 0.5 * math.atan2(tail[p + 1], u[p])
        else:
            theta[p] = 0.5 * math.atan2(u[n - 1], u[n - 2])
    return theta


def angles_to_unit_vector(theta: np.ndarray, n: int | None = None) -> np.ndarray:
    """Forward evaluation of the rotation chain (inverse of
    :func:`majorana_angles`)."""
    theta = np.asarray(theta, dtype=float)
    if n is None:
        n = theta.size + 1
    u = np.zeros(n)
    prefix = 1.0
    for p in range(n - 1):
        u[p] = math.cos(2 * theta[p]) * prefix
        prefix *= math.sin(2 * theta[p])
    u[n - 1] = prefix
    return u


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

    comp, uncomp, _ = sparse_multiplexed_lookup(m_total, rank, nb, lam)
    rotations_2e = 4 * nb
    swaps_2e = 4 * n
    prep_width = 2 * _clog2(m_max) + 2 * _clog2(rank) + mu + 1
    prep_2e, _, _ = state_prep_cost(m_total, mu, dirty_pool, width=prep_width)
    unprep_2e = state_prep_uncompute_cost(m_total, mu, dirty_pool)
    state_prep_total = 2 * prep_2e + 2 * unprep_2e

    nb1 = n * beta1
    comp_1e = lookup_clean(n, nb1, lam)
    uncomp_1e = lookup_clean_uncompute(n, lam * nb1)
    rotations_1e = 4 * nb1
    swaps_1e = 2 * n
    prep_1e, _, _ = state_prep_cost(n, mu1, dirty_pool, width=_clog2(n) + mu1 + 1)
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
        Scan lam in [0, LAMBDA_SCAN_MAX] and keep the smallest total Toffoli
        count (smallest lam on ties).
    ``min_qubits``
        Pin lam = 1, the small-footprint configuration (lam = 0 is used only
        when the Toffoli-optimal lam is 0, i.e. the instance is so small that
        extra ancillas buy nothing).
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

    def total_at(lam_value: int) -> tuple[int, WalkCost]:
        wc = walk_operator_cost(n, rank, m_total, m_max, budget, alpha, lam_value)
        return wc.toffoli * reps, wc

    if mode == "fixed":
        if lam is None:
            raise ValueError("fixed mode requires lam")
        chosen = int(lam)
        total, wc = total_at(chosen)
    elif mode == "min_toffoli":
        chosen = 0
        total, wc = total_at(0)
        for lam_value in range(1, LAMBDA_SCAN_MAX + 1):
            candidate = total_at(lam_value)
            if candidate[0] < total:
                chosen, (total, wc) = lam_value, candidate
    elif mode == "min_qubits":
        # The Toffoli-optimal lam is 0 exactly when no lam >= 1 is strictly
        # cheaper than lam = 0; otherwise lam = 1 is chosen, so the scan stops
        # at the first lam that beats lam = 0.
        chosen = 0
        total, wc = total_at(0)
        for lam_value in range(1, LAMBDA_SCAN_MAX + 1):
            candidate = total_at(lam_value)
            if lam_value == 1:
                at_one = candidate
            if candidate[0] < total:
                chosen, (total, wc) = 1, at_one
                break
    else:
        raise ValueError(f"unknown mode {mode!r}")

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


def trotter_step_bound(h_fragments: list[np.ndarray]) -> float:
    """Second-order product-formula error coefficient: the step error is
    bounded by bound * t^3 for

        bound = (1/12) * sum_b [ sum_{c>b} sum_{a>b} ||[H_a, [H_b, H_c]]||
                                 + (1/2) sum_{c>b} ||[H_b, [H_b, H_c]]|| ].

    Dense spectral norms; intended for oracle-scale fragments (dimension at
    most 4096).
    """
    frags = [np.asarray(h) for h in h_fragments]
    if not frags:
        return 0.0
    dim = frags[0].shape
    if any(f.shape != dim for f in frags):
        raise ValueError("all fragments must share one dense dimension")
    if dim[0] != dim[1]:
        raise ValueError("fragments must be square")
    if dim[0] > 4096:
        raise ValueError("dense Trotter bound capped at dimension 4096")

    def comm(a, b):
        return a @ b - b @ a

    total = 0.0
    nfrag = len(frags)
    for b in range(nfrag):
        for c in range(b + 1, nfrag):
            inner = comm(frags[b], frags[c])
            for a in range(b + 1, nfrag):
                total += np.linalg.norm(comm(frags[a], inner), 2)
            total += 0.5 * np.linalg.norm(comm(frags[b], inner), 2)
    return total / 12.0
