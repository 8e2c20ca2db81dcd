import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdf.costmodel import (
    ErrorBudget,
    PrecisionParams,
    _tradeoff_min,
    closed_form_walk_toffoli,
    estimate,
    lookup_clean,
    lookup_clean_uncompute,
    lookup_dirty,
    lookup_dirty_uncompute,
    pe_repetitions,
    sparse_multiplexed_lookup,
    state_prep_cost,
    walk_operator_cost,
)
from qdf.factorization import alpha_df
from tests.conftest import (
    angles_to_unit_vector,
    majorana_angles,
    rotation_array_cost,
    rotation_bits,
    trotter_step_bound,
)

# ---------------------------------------------------------------------------
# Brute-force reference scans (no windowing, no shortcuts)
# ---------------------------------------------------------------------------


def _exhaustive_min(num, step, lo, hi):
    """min of ceil(num/(1+x)) + step*x over every integer x in [lo, hi]."""
    x = np.arange(lo, hi + 1, dtype=np.int64)
    return int((-(-num // (1 + x)) + step * x).min())


def bf_clean(d, b, lam):
    return 0 if d <= 1 else _exhaustive_min(d, b, 0, lam)


def bf_clean_unc(d, lam):
    return 0 if d <= 1 else _exhaustive_min(d, 1, 0, lam)


def bf_dirty(d, b, budget):
    if d <= 1:
        return 0
    hi = budget // b
    if hi < 1:
        return d
    return min(d, _exhaustive_min(2 * d, 4 * b, 1, hi))


def bf_dirty_unc(d, budget):
    if d <= 1:
        return 0
    if budget < 1:
        return d
    return min(d, _exhaustive_min(2 * d, 4, 1, budget))


class TestLookupClean:
    def test_no_helpers_is_sequential(self):
        assert lookup_clean(1024, 10, 0) == 1024

    def test_seven_helpers(self):
        # exhaustive scan over lam' in 0..7 bottoms out at lam'=7: 128 + 70
        assert lookup_clean(1024, 10, 7) == 198

    def test_sqrt_scaling_with_ample_helpers(self):
        for d in (64, 500, 1024, 10000, 65536):
            for b in (1, 4, 10, 33):
                assert lookup_clean(d, b, 10**6) <= 2 * math.sqrt(b * d) + b

    def test_never_exceeds_entry_count(self):
        for d in (2, 17, 1000):
            for lam in (0, 3, 50):
                assert lookup_clean(d, 8, lam) <= d

    def test_single_entry_free(self):
        assert lookup_clean(1, 64, 10) == 0


class TestLookupCleanUncompute:
    def test_no_helpers(self):
        assert lookup_clean_uncompute(1024, 0) == 1024

    def test_scan_minimum(self):
        # continuous optimum lam' = sqrt(1024) - 1 = 31: 32 + 31 = 63
        assert lookup_clean_uncompute(1024, 63) == 63

    def test_sqrt_scaling(self):
        for d in (100, 1024, 30000):
            assert lookup_clean_uncompute(d, 10**6) <= 2 * math.sqrt(d) + 1


class TestLookupDirty:
    def test_insufficient_budget_falls_back(self):
        assert lookup_dirty(1024, 10, 9) == 1024

    def test_ample_budget(self):
        # lam'=6: ceil(2048/7) + 240 = 533
        assert lookup_dirty(1024, 10, 10**6) == 533

    def test_capped_by_entry_count(self):
        for d in (2, 100, 4096):
            for budget in (0, 10, 1000):
                assert lookup_dirty(d, 7, budget) <= d

    def test_uncompute_variant(self):
        assert lookup_dirty_uncompute(1024, 0) == 1024
        assert lookup_dirty_uncompute(1, 100) == 0
        assert lookup_dirty_uncompute(1024, 10**6) <= 4 * math.sqrt(2 * 1024) + 4

    def test_negative_budget_rejected(self):
        for budget in (-1, -10**6):
            with pytest.raises(ValueError):
                lookup_dirty(1024, 10, budget)
            with pytest.raises(ValueError):
                lookup_dirty_uncompute(1024, budget)


class TestSparseMultiplexedLookup:
    def test_single_outer_index_degenerates(self):
        q, b, lam = 512, 16, 2
        comp, unc = sparse_multiplexed_lookup(q, 1, b, lam)
        bits = math.ceil(math.log2(q))
        # shift lookup on one entry costs nothing; two adders remain
        assert comp == lookup_clean(q, b, lam) + 2 * bits
        assert unc == lookup_clean_uncompute(q, lam * b) + 2 * bits

    def test_catalyst_scale_configuration_pinned(self):
        # frozen from the exhaustive-scan reference implementation
        comp, unc = sparse_multiplexed_lookup(23566, 613, 52 * 33, 3)
        assert comp == 11693
        assert unc == 960

    def test_compute_dominates_main_lookup(self):
        for (q, j, b, lam) in [(100, 10, 8, 2), (5000, 200, 64, 4), (64, 64, 3, 0)]:
            comp, _ = sparse_multiplexed_lookup(q, j, b, lam)
            assert comp >= lookup_clean(q, b, lam)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            sparse_multiplexed_lookup(10, 20, 4, 1)


class TestStatePrep:
    def test_single_coefficient_costs_mu_only(self):
        assert state_prep_cost(1, 12, 1000, 12) == 12

    def test_catalyst_scale_pinned(self):
        # frozen from the exhaustive scan: width 10 + 12, dirty-assisted
        assert state_prep_cost(613, 12, 5000, 10 + 12) == 583

    def test_amplitude_error_bound_documented(self):
        # per-coefficient error 2^-mu/d implies l1 error 2^-mu
        d, mu = 64, 8
        per_coeff = 2.0**-mu / d
        assert per_coeff * d == 2.0**-mu


class TestRotationBits:
    def test_boundary_single_rotation(self):
        assert rotation_bits(1, math.pi / math.sqrt(2)) == 1

    def test_two_electron_constant_consistency(self):
        # ceil(5.652 + log2(N/eps)) coincides with the generic formula at
        # 8*sqrt(2)*N rotations: 1/2 + log2(8*sqrt(2)*pi) = 5.6515
        for n in (10, 54, 250):
            for eps in (1e-5, 2.7e-7, 1e-9):
                direct = math.ceil(5.652 + math.log2(n / eps) - 1e-9)
                generic = rotation_bits(round(8 * math.sqrt(2) * n), eps)
                assert abs(direct - generic) <= 1

    def test_doubling_rotations_adds_one_bit(self):
        b1 = rotation_bits(100, 1e-6)
        b2 = rotation_bits(200, 1e-6)
        assert b2 - b1 in (0, 1)
        assert rotation_bits(4096 * 100, 1e-6) - b1 == 12


class TestRotationArray:
    def test_full_width_register_two_slices(self):
        m_rot, b = 16, 8
        kappa = m_rot * b
        cost = rotation_array_cost(m_rot, 100, b, kappa, 0)
        assert cost == 2 * 100

    def test_bit_packing_slice_count(self):
        # 4 rotations of 2 bits through a 3-qubit register: ceil(8/3 + 1) = 4
        cost = rotation_array_cost(4, 10, 2, 3, 0)
        assert cost == 4 * 10

    def test_minimum_matches_brute_force(self):
        k, kappa = 4096, 64
        direct = rotation_array_cost(8, k, 8, kappa, 4095)
        slices = math.ceil(8 * 8 / kappa + 1)
        brute = min(
            slices * (-(-k // (1 + lp // kappa)) + lp) for lp in range(4096)
        )
        assert direct == brute

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64), st.integers(1, 10**8), st.integers(1, 5000),
        st.integers(0, 5000), st.integers(0, 10**5),
    )
    def test_matches_brute_force_over_every_helper_count(self, m_rot, k, b, spare, lam):
        # every lam' in [0, lam], not only the block starts j*kappa
        kappa = b + spare
        slices = -(-(m_rot * b + kappa) // kappa)
        lp = np.arange(lam + 1, dtype=np.int64)
        brute = slices * int((-(-k // (1 + lp // kappa)) + lp).min())
        assert rotation_array_cost(m_rot, k, b, kappa, lam) == brute

    def test_minimum_near_sqrt_k_kappa(self):
        k, kappa = 4096, 64
        opt = math.sqrt(k * kappa)  # ~512 helper qubits
        near = rotation_array_cost(8, k, 8, kappa, int(2 * opt))
        starved = rotation_array_cost(8, k, 8, kappa, int(opt / 8))
        assert near < starved

    def test_kappa_must_cover_bits(self):
        with pytest.raises(ValueError):
            rotation_array_cost(4, 10, 8, 4, 0)


class TestMajoranaAngles:
    def test_basis_vector_all_zero_angles(self):
        u = np.zeros(8)
        u[0] = 1.0
        np.testing.assert_array_equal(majorana_angles(u), np.zeros(7))

    def test_second_basis_vector(self):
        theta = majorana_angles(np.array([0.0, 1.0]))
        assert theta == pytest.approx([math.pi / 4])

    def test_roundtrip_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 17))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            theta = majorana_angles(u)
            assert np.abs(angles_to_unit_vector(theta, n) - u).max() <= 1e-12

    def test_roundtrip_with_internal_zeros(self):
        u = np.array([0.0, 0.6, 0.0, -0.8, 0.0])
        theta = majorana_angles(u)
        np.testing.assert_allclose(angles_to_unit_vector(theta, 5), u, atol=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            majorana_angles(np.array([1.0, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        theta = majorana_angles(u)
        assert np.abs(angles_to_unit_vector(theta, n) - u).max() <= 1e-10


class TestBudgetsAndRepetitions:
    def test_budget_shares_validated(self):
        with pytest.raises(ValueError):
            ErrorBudget(delta_e=0.0)

    def test_walk_error(self):
        budget = ErrorBudget(delta_e=1e-3)
        assert budget.walk_error(100.0) == pytest.approx(1e-6)

    def test_unit_boundary(self):
        budget = ErrorBudget(delta_e=1e-3)
        alpha = 2 * 0.9 * 1e-3 / math.pi
        assert pe_repetitions(alpha, budget) == 1

    def test_catalyst_values(self):
        budget = ErrorBudget(delta_e=1e-3)
        # ceil(pi * alpha / 1.8e-3), computed independently with math.ceil
        assert pe_repetitions(193.8, budget) == 338245
        assert pe_repetitions(339.1, budget) == 591842
        assert math.ceil(math.pi * 193.8 / 1.8e-3) == 338245

    def test_linear_scaling_in_alpha(self):
        budget = ErrorBudget(delta_e=1e-3)
        for alpha in (1.0, 17.3, 193.8, 7349.6):
            k = pe_repetitions(alpha, budget)
            k2 = pe_repetitions(2 * alpha, budget)
            assert k2 in (2 * k - 1, 2 * k, 2 * k + 1)


class TestPrecisionParams:
    def test_known_configuration(self):
        # N=54, eps = 0.1 * 1e-3 / 339.1
        prec = PrecisionParams.from_error(54, 0.1 * 1e-3 / 339.1)
        assert prec.beta == 34
        assert prec.mu == 25
        assert prec.beta1 == 33
        assert prec.mu1 == 24

    def test_positive(self):
        prec = PrecisionParams.from_error(2, 0.5)
        assert prec.beta >= 1 and prec.mu >= 1


class TestWalkOperatorCost:
    BUDGET = ErrorBudget(delta_e=1e-3)

    def test_closed_form_cross_check(self):
        # hand arithmetic: 4*(4800 + 3674 + 3672 + 54) = 48800 at lam=4
        assert closed_form_walk_toffoli(54, 24000, 34, 4) == 48800
        wc = walk_operator_cost(54, 567, 24000, 54, self.BUDGET, 339.1, 4)
        assert wc.toffoli <= 1.35 * 48800
        assert wc.toffoli >= 48800 / 1.35

    def test_no_two_body_terms_reduces_to_one_electron(self):
        wc = walk_operator_cost(8, 1, 1, 1, self.BUDGET, 5.0, 2)
        prec = wc.precision
        # the two-electron lookup degenerates to nothing (one entry); what is
        # left of the lookup cost is the one-electron block's N entries
        assert wc.toffoli_breakdown["rotations"] == 4 * 8 * prec.beta + 4 * 8 * prec.beta1
        assert wc.toffoli_breakdown["controlled_swaps"] == 4 * 8 + 2 * 8
        assert wc.toffoli_breakdown["lookup_compute"] == 8

    def test_qubit_core_term(self):
        wc = walk_operator_cost(52, 613, 23566, 52, self.BUDGET, 193.8, 1)
        core = wc.qubit_breakdown["angle_data"] + wc.qubit_breakdown["system"]
        assert core == 52 * 33 * 2 + 104 == 3536
        assert abs(wc.qubits - 3447) / 3447 <= 0.10

    def test_total_equals_breakdown_sum(self):
        wc = walk_operator_cost(20, 50, 800, 20, self.BUDGET, 40.0, 3)
        assert wc.toffoli == sum(wc.toffoli_breakdown.values())
        assert wc.qubits == sum(wc.qubit_breakdown.values())

    def test_lookup_costs_monotone_in_budget(self):
        # every lookup cost function is non-increasing in its ancilla budget
        for d, b in [(1024, 10), (613, 33), (97, 1)]:
            clean = [lookup_clean(d, b, lam) for lam in range(0, 40)]
            unc = [lookup_clean_uncompute(d, lam) for lam in range(0, 40)]
            dirty = [lookup_dirty(d, b, q) for q in range(0, 40 * b, b)]
            dirty_unc = [lookup_dirty_uncompute(d, q) for q in range(0, 40)]
            for seq in (clean, unc, dirty, dirty_unc):
                assert all(y <= x for x, y in zip(seq, seq[1:]))

    def test_state_prep_and_rotation_array_monotone_in_budget(self):
        preps = [state_prep_cost(613, 12, q, 10 + 12) for q in range(0, 4000, 40)]
        assert all(y <= x for x, y in zip(preps, preps[1:]))
        arrays = [rotation_array_cost(8, 4096, 8, 64, lam) for lam in range(0, 2000, 16)]
        assert all(y <= x for x, y in zip(arrays, arrays[1:]))


def estimate_df(df, **kwargs):
    """``estimate`` of a double factorization, with the scalars ``qdf
    estimate`` passes."""
    return estimate(n=df.n_orbitals, rank=df.rank, m_total=df.total_eigenpairs,
                    m_max=df.max_eigenpairs_per_rank, alpha=alpha_df(df), **kwargs)


class TestEstimate:
    def test_total_is_product(self):
        rpt = estimate(n=54, rank=567, m_total=24000, alpha=339.1, mode="min_qubits")
        assert rpt.total_toffoli == rpt.walk_toffoli * rpt.pe_repetitions

    def test_min_toffoli_beats_min_qubits_on_toffolis(self):
        kwargs = dict(n=54, rank=567, m_total=24000, alpha=339.1)
        rpt_t = estimate(mode="min_toffoli", **kwargs)
        rpt_q = estimate(mode="min_qubits", **kwargs)
        assert rpt_t.total_toffoli <= rpt_q.total_toffoli
        assert rpt_q.logical_qubits <= rpt_t.logical_qubits

    def test_fixed_mode(self):
        rpt = estimate(n=54, rank=567, m_total=24000, alpha=339.1, mode="fixed", lam=7)
        assert rpt.lambda_ancilla == 7
        with pytest.raises(ValueError):
            estimate(n=54, rank=567, m_total=24000, alpha=339.1, mode="fixed")

    def test_deterministic_tie_break_smallest_lambda(self):
        a = estimate(n=6, rank=3, m_total=10, alpha=2.0, mode="min_toffoli")
        b = estimate(n=6, rank=3, m_total=10, alpha=2.0, mode="min_toffoli")
        assert a.lambda_ancilla == b.lambda_ancilla
        assert a.to_dict() == b.to_dict()

    def test_min_qubits_mode_tracks_toffoli_optimal_zero(self):
        # tiny instance where extra ancillas buy nothing: both modes sit at 0
        rpt_t = estimate(n=2, rank=1, m_total=2, alpha=0.5, mode="min_toffoli")
        rpt_q = estimate(n=2, rank=1, m_total=2, alpha=0.5, mode="min_qubits")
        assert rpt_t.lambda_ancilla == 0
        assert rpt_q.lambda_ancilla == 0
        assert rpt_q.logical_qubits <= rpt_t.logical_qubits

    @pytest.mark.parametrize("scalars, mode, lam, calls, chosen", [
        (dict(n=54, rank=567, m_total=24000, alpha=339.1), "fixed", 7, 1, 7),
        # lam = 1 already beats lam = 0, so the scan stops there
        (dict(n=54, rank=567, m_total=24000, alpha=339.1), "min_qubits", None, 2, 1),
        # the walk cost at LAMBDA_SCAN_MAX is the floor; the scan stops at the first lam on it
        (dict(n=54, rank=567, m_total=24000, alpha=339.1), "min_toffoli", None, 5, 3),
        # no lam beats lam = 0: lam = 1 and the floor at LAMBDA_SCAN_MAX show it
        (dict(n=2, rank=1, m_total=2, alpha=0.5), "min_qubits", None, 3, 0),
    ])
    def test_walk_cost_calls_per_mode(self, monkeypatch, scalars, mode, lam, calls, chosen):
        from qdf import costmodel

        seen = []
        real = costmodel.walk_operator_cost

        def counting(*args):
            seen.append(args[-1])
            return real(*args)

        monkeypatch.setattr(costmodel, "walk_operator_cost", counting)
        rpt = costmodel.estimate(**scalars, mode=mode, lam=lam)
        assert (len(seen), rpt.lambda_ancilla) == (calls, chosen)
        assert len(set(seen)) == len(seen)

    def test_df_input(self, h2_df):
        rpt = estimate_df(h2_df, mode="min_qubits")
        assert rpt.n_orbitals == 2
        assert rpt.rank_R == h2_df.rank
        assert rpt.eigvec_M == h2_df.total_eigenpairs
        assert rpt.total_toffoli > 0

    def test_fully_truncated_df_reduces_to_one_electron_block(self, h2_df):
        from qdf.truncation import truncate

        emptied, _ = truncate(h2_df, "coherent", 1e9)
        assert emptied.total_eigenpairs == 0
        rpt = estimate_df(emptied, mode="min_qubits")
        assert rpt.total_toffoli > 0
        # the two-electron sector degenerates to a single-entry lookup (free),
        # leaving the one-electron block's N-entry lookup and 4N + 2N swaps
        assert rpt.walk_toffoli_breakdown["controlled_swaps"] == 4 * 2 + 2 * 2
        assert rpt.walk_toffoli_breakdown["lookup_compute"] <= 2

    def test_runtime_annotations(self):
        rpt = estimate(n=10, rank=10, m_total=100, alpha=5.0, mode="min_qubits")
        assert rpt.runtime_seconds_fast == pytest.approx(rpt.total_toffoli * 1e-5)
        assert rpt.runtime_seconds_slow == pytest.approx(rpt.total_toffoli * 1e-2)

    def test_largest_active_space_row(self):
        # N=250 reference row: 2276 factors, 443046 eigenvectors, alpha 7349.6
        # -> 20019 qubits and 1.07e13 Toffolis.  The qubit count comes from
        # the small-footprint configuration; the Toffoli count is reproduced
        # by the compact closed-form figure at that configuration (the
        # detailed sum is lower: measurement-based uncomputation and the
        # shared angle load cut the dominant lookup nearly in half here).
        rpt = estimate(
            n=250, rank=2276, m_total=443046, alpha=7349.6, mode="min_qubits"
        )
        assert rpt.lambda_ancilla == 1
        assert abs(rpt.logical_qubits - 20019) / 20019 <= 0.10
        assert abs(rpt.closed_form_total - 1.07e13) / 1.07e13 <= 0.35
        assert rpt.total_toffoli < rpt.closed_form_total


class TestTrotterBound:
    def test_commuting_fragments_vanish(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.diag([0.5, -0.5, 1.5, 0.0])
        assert trotter_step_bound([a, b]) == 0.0

    def test_pauli_fragments_pinned(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2)
        val = trotter_step_bound([np.kron(x, eye), np.kron(z, eye)])
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trotter_step_bound([np.eye(2), np.eye(4)])

    def test_h2_fragments_positive_and_pinned(self, h2_df):
        from tests.reference import df_fragments

        val = trotter_step_bound(df_fragments(h2_df))
        assert val > 0
        assert val == pytest.approx(0.027426073962500592, rel=1e-9)


GRID_POINTS = [
    (d, b, lam)
    for d in (1, 2, 3, 7, 10, 64, 100, 613, 1024, 4097)
    for b in (1, 2, 10, 33, 57)
    for lam in (0, 1, 7, 63)
]


def test_exhaustive_grid_equivalence():
    assert len(GRID_POINTS) == 200
    for d, b, lam in GRID_POINTS:
        assert lookup_clean(d, b, lam) == bf_clean(d, b, lam), (d, b, lam)
        assert lookup_clean_uncompute(d, lam) == bf_clean_unc(d, lam), (d, lam)
        budget = b * lam
        assert lookup_dirty(d, b, budget) == bf_dirty(d, b, budget), (d, b, budget)
        assert lookup_dirty_uncompute(d, budget) == bf_dirty_unc(d, budget), (d, budget)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10**8), st.integers(1, 5000), st.integers(0, 10**5), st.integers(0, 10**6)
)
def test_brute_force_equivalence_at_paper_scale(d, b, lam, budget):
    # the ranges walk_operator_cost reaches at paper scale, far past the grid's lam <= 63
    assert lookup_clean(d, b, lam) == bf_clean(d, b, lam), (d, b, lam)
    assert lookup_clean_uncompute(d, lam) == bf_clean_unc(d, lam), (d, lam)
    assert lookup_dirty(d, b, budget) == bf_dirty(d, b, budget), (d, b, budget)
    assert lookup_dirty_uncompute(d, budget) == bf_dirty_unc(d, budget), (d, budget)


def test_tradeoff_min_matches_exhaustive_scan_on_a_box():
    # every num <= 128, step <= 8 and 0 <= lo <= hi <= 24: for a fixed lo the
    # exhaustive min over [lo, hi] is the running minimum of the costs from lo
    xs = np.arange(25)
    for num in range(129):
        for step in range(1, 9):
            costs = -(-num // (1 + xs)) + step * xs
            for lo in range(25):
                expected = np.minimum.accumulate(costs[lo:]).tolist()
                assert expected[-1] == _exhaustive_min(num, step, lo, 24)
                got = [_tradeoff_min(num, step, lo, hi) for hi in range(lo, 25)]
                assert got == expected, (num, step, lo)


@pytest.mark.parametrize("num, step, lo, hi, expected", [
    (3, 8, 0, 10, 3),  # num < step: no helper pays
    (100, 2, 5, 5, 27),  # lo = hi: ceil(100/6) + 10
    (100, 10, 6, 20, 75),  # optimum x ~ 2.2 clamped at lo: ceil(100/7) + 60
    (10000, 1, 0, 9, 1009),  # optimum x = 99 clamped at hi: 1000 + 9
    (192, 3, 0, 30, 45),  # num = 8^2 * step: U^2 = 4 num step, one candidate y = 8
])
def test_tradeoff_min_hand_cases(num, step, lo, hi, expected):
    assert _tradeoff_min(num, step, lo, hi) == expected == _exhaustive_min(num, step, lo, hi)
