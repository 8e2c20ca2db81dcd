"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference resource-table rows (label, N, R, M, alpha/Hartree, logical qubits,
Toffoli count) are the published double-factorization estimates for the
Ru-catalyst structures and the FeMoco active space at a 1 mHartree truncation
threshold; they serve as regression targets at the stated tolerances.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from qdf.costmodel import (
    ErrorBudget,
    angles_to_unit_vector,
    closed_form_walk_toffoli,
    estimate,
    lookup_clean,
    lookup_clean_uncompute,
    lookup_dirty,
    lookup_dirty_uncompute,
    majorana_angles,
    pe_repetitions,
    rotation_array_cost,
    state_prep_cost,
    trotter_step_bound,
)
from qdf.factorization import reconstruct_two_body, schatten_norm
from qdf.oracle import (
    build_from_df,
    build_from_integrals,
    ground_energy,
    spectral_norm,
)
from qdf.truncation import default_grid, truncate
from tests.conftest import entrywise_norm, factorize, fixture_path, random_molecular_integrals
from tests.reference import df_fragments

REFERENCE_ROWS = [
    # label, N, R, M, alpha_df, qubits, toffoli
    ("I",       52, 613, 23566, 193.8, 3447, 1.81e10),
    ("II",      62, 734, 33629, 492.5, 4232, 3.96e10),
    ("II-III",  65, 783, 38122, 547.7, 4566, 4.93e10),
    ("V",       60, 670, 29319, 480.5, 4095, 3.65e10),
    ("VIII",    65, 794, 39088, 573.3, 4566, 4.91e10),
    ("VIII-IX", 59, 666, 29286, 530.5, 4027, 3.28e10),
    ("IX",      62, 638, 28945, 488.8, 4231, 4.21e10),
    ("XVIII",   56, 705, 29594, 389.6, 3823, 2.70e10),
    ("FeMoco",  54, 567, 24000, 339.1, 3700, 3.00e10),
]

TOFFOLI_FACTOR = 1.35
QUBIT_RTOL = 0.10


def report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status}  {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_cost_table_reproduction():
    """Direct-mode reproduction of the nine reference rows: qubit counts from
    the small-footprint configuration within 10%, Toffoli counts from the
    Toffoli-optimal configuration within a factor of 1.35.

    Each row's published Toffoli count divided by our pe_repetitions(alpha)
    is the walk cost the table implies.  A walk cost that does not fall as N,
    R, M and alpha rise gives row a at least row b's when a is at least b in
    all four; if a's implied walk cost is nevertheless smaller, one of the two
    rows is off by a factor of at least sqrt(implied_b / implied_a).  The
    largest such factor is the table's own floor for the worst factor."""
    budget = ErrorBudget(delta_e=1e-3)
    t0 = time.perf_counter()
    worst_q = 0.0
    worst_t = 1.0
    implied = {}
    for label, n, r, m, alpha, q_ref, t_ref in REFERENCE_ROWS:
        rq = estimate(n=n, rank=r, m_total=m, alpha=alpha, budget=budget, mode="min_qubits")
        rt = estimate(n=n, rank=r, m_total=m, alpha=alpha, budget=budget, mode="min_toffoli")
        dq = abs(rq.logical_qubits - q_ref) / q_ref
        ratio = rt.total_toffoli / t_ref
        implied[label] = t_ref / pe_repetitions(alpha, budget)
        print(
            f"  {label:8s} qubits {rq.logical_qubits:5d} vs {q_ref:5d} ({dq:+.1%})  "
            f"toffoli {rt.total_toffoli:.3e} vs {t_ref:.2e} (x{ratio:.3f})  "
            f"walk {rt.walk_toffoli:6d} vs implied {implied[label]:8.1f}"
        )
        worst_q = max(worst_q, dq)
        worst_t = max(worst_t, ratio, 1.0 / ratio)
        assert dq <= QUBIT_RTOL, f"{label}: qubit deviation {dq:.1%}"
        assert 1.0 / TOFFOLI_FACTOR <= ratio <= TOFFOLI_FACTOR, f"{label}: ratio {ratio:.3f}"
    floor, floor_rows = 1.0, "no dominated pair"
    for a in REFERENCE_ROWS:
        for b in REFERENCE_ROWS:
            if all(x >= y for x, y in zip(a[1:5], b[1:5])) and implied[a[0]] < implied[b[0]]:
                factor = math.sqrt(implied[b[0]] / implied[a[0]])
                if factor > floor:
                    floor, floor_rows = factor, f"{a[0]} dominates {b[0]}"
    print(f"  implied walk-cost floor x{floor:.3f} ({floor_rows})")
    assert floor <= TOFFOLI_FACTOR, f"the table's floor {floor:.3f} exceeds the gate"
    assert worst_t >= floor, f"worst factor {worst_t:.3f} below the table's floor {floor:.3f}"
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (cost tables, 9 rows)",
        elapsed < 1.0,
        f"worst qubit dev {worst_q:.1%}, worst factor {worst_t:.3f}, "
        f"floor {floor:.3f}, {elapsed:.2f}s",
    )


def test_criterion_02_closed_form_arithmetic():
    """The compact walk bound at (N=54, M=24000, beta=34) matches exact
    rational arithmetic for lam in 1..8, and its minimum times the repetition
    count lands within 10% of 3.0e10."""
    n, m, beta = 54, 24000, 34
    values = {}
    for lam in range(1, 9):
        exact = 4 * (
            Fraction(m, 1 + lam) + Fraction(lam * (n * beta + 1), 2) + 2 * n * beta + n
        )
        oracle_value = int(math.ceil(exact))
        values[lam] = oracle_value
        assert closed_form_walk_toffoli(n, m, beta, lam) == oracle_value, lam
    best = min(values.values())
    reps = pe_repetitions(339.1, ErrorBudget(delta_e=1e-3))
    total = best * reps
    rel = abs(total - 3.0e10) / 3.0e10
    report(
        "criterion 2 (closed-form arithmetic)",
        rel <= 0.10,
        f"min {best} x {reps} = {total:.3e}, off by {rel:.1%}",
    )


def test_criterion_03_norm_inequality_suite():
    """(1/N) ||h||_EW <= ||h||_SH <= ||h||_EW over 500 random symmetric
    matrices, with both tight cases achieving equality."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(500):
        n = int(rng.integers(2, 13))
        h = rng.normal(size=(n, n))
        h = 0.5 * (h + h.T)
        ew = entrywise_norm(h)
        sh = schatten_norm(h)
        assert ew / n - 1e-10 <= sh <= ew + 1e-10, (trial, n)
    ones = np.ones((4, 4))
    assert abs(schatten_norm(ones) - entrywise_norm(ones) / 4) <= 1e-12
    single = np.zeros((4, 4))
    single[2, 2] = 1.0
    assert abs(schatten_norm(single) - entrywise_norm(single)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report("criterion 3 (norm inequality, 500 matrices)", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_04_factorization_identity(h2, h4):
    """Tensor reconstruction and many-body representation identity within
    1e-8 on 111 random PSD instances (100 with N=2..4, ten with N=5, one with
    N=6) and the committed fixtures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_recon = 0.0
    worst_ident = 0.0
    cases = [(h2, None), (h4, None)]
    for _ in range(100):
        n = int(rng.integers(2, 5))
        cases.append((random_molecular_integrals(n, rng=rng, scale=0.7), None))
    for n in [5] * 10 + [6]:
        cases.append((random_molecular_integrals(n, rng=rng, scale=0.7), None))
    for mol, _ in cases:
        df = factorize(mol)
        recon = reconstruct_two_body(df)
        worst_recon = max(worst_recon, float(np.abs(recon - mol.two_body).max()))
        a = build_from_integrals(mol)
        b = build_from_df(df)
        worst_ident = max(worst_ident, float(np.abs(a.matrix - b.matrix).max()))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4 (factorization identity, 113 instances)",
        worst_recon <= 1e-8 and worst_ident <= 1e-8 and elapsed < 60.0,
        f"recon {worst_recon:.2e}, identity {worst_ident:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_truncation_soundness():
    """Coherent truncation: dense ||H - H~|| <= budget at all 16 sweep points
    of 55 random instances (50 with N=2..4, five with N=5; zero violations).
    Incoherent truncation: |dE0| <= score for at least 95% of instances
    (logged statistic)."""
    rng = np.random.default_rng(5)
    grid = default_grid()
    coherent_violations = 0
    incoherent_ok = 0
    n_instances = 55
    for i in range(n_instances):
        n = int(rng.integers(2, 5)) if i < 50 else 5
        mol = random_molecular_integrals(n, rng=rng, scale=0.5)
        df = factorize(mol)
        h_full = build_from_df(df)
        e_full = ground_energy(h_full, mol.n_electrons)
        instance_ok = True
        for eps in grid:
            reduced, plan = truncate(df, "coherent", float(eps))
            h_trunc = build_from_df(reduced)
            err = spectral_norm(h_full.matrix - h_trunc.matrix)
            if err > plan.coherent_score + 1e-9:
                coherent_violations += 1
            reduced_in, plan_in = truncate(df, "incoherent", float(eps))
            e_trunc = ground_energy(build_from_df(reduced_in), mol.n_electrons)
            if abs(e_full - e_trunc) > plan_in.incoherent_score + 1e-9:
                instance_ok = False
        incoherent_ok += instance_ok
    fraction = incoherent_ok / n_instances
    print(f"  incoherent |dE0| within score for {incoherent_ok}/{n_instances} instances")
    report(
        "criterion 5 (truncation soundness)",
        coherent_violations == 0 and fraction >= 0.95,
        f"coherent violations {coherent_violations}, incoherent fraction {fraction:.0%}",
    )


def test_criterion_06_one_body_norm_identity():
    """Spectral norm of the Majorana-pair operator equals the Schatten norm
    of its coefficient matrix on 50 random instances."""
    from qdf.oracle import one_body_norm_check

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        l_matrix = rng.normal(size=(n, n))
        l_matrix = 0.5 * (l_matrix + l_matrix.T)
        g_norm, s_norm = one_body_norm_check(l_matrix)
        worst = max(worst, abs(g_norm - s_norm))
    report("criterion 6 (one-body norm identity)", worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_07_majorana_roundtrip():
    """1000 random unit vectors (dimension up to 32) round-trip through the
    rotation-chain angles within 1e-10, including vectors with internal zeros."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 33))
        u = rng.normal(size=n)
        if trial % 3 == 0:
            # zero out a random subset, keeping at least one component
            mask = rng.random(n) < 0.4
            mask[rng.integers(n)] = False
            u[mask] = 0.0
        norm = np.linalg.norm(u)
        if norm == 0.0:
            continue
        u /= norm
        theta = majorana_angles(u)
        worst = max(worst, float(np.abs(angles_to_unit_vector(theta, n) - u).max()))
    report("criterion 7 (rotation-chain round trip)", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_08_cost_function_oracle_equivalence():
    """All lookup, state-preparation, and rotation-array cost functions agree
    with exhaustive brute-force scans over their ancilla parameter (integer
    equality) on a 200-point grid."""
    grid = [
        (d, b, lam)
        for d in (1, 2, 3, 7, 10, 64, 100, 613, 1024, 4097)
        for b in (1, 2, 10, 33, 57)
        for lam in (0, 1, 7, 63)
    ]
    assert len(grid) == 200
    checked = 0
    for d, b, lam in grid:
        def ceil_div(a, q):
            return -(-a // q)

        bf = 0 if d <= 1 else min(ceil_div(d, 1 + lp) + lp * b for lp in range(lam + 1))
        assert lookup_clean(d, b, lam) == bf, (d, b, lam)

        bf = 0 if d <= 1 else min(ceil_div(d, 1 + lp) + lp for lp in range(lam + 1))
        assert lookup_clean_uncompute(d, lam) == bf, (d, lam)

        budget = b * lam
        if d <= 1:
            bf = 0
        elif budget // b < 1:
            bf = d
        else:
            bf = min(d, min(ceil_div(2 * d, 1 + lp) + 4 * lp * b for lp in range(1, budget // b + 1)))
        assert lookup_dirty(d, b, budget) == bf, (d, b, budget)

        if d <= 1:
            bf = 0
        elif budget < 1:
            bf = d
        else:
            bf = min(d, min(ceil_div(2 * d, 1 + lp) + 4 * lp for lp in range(1, budget + 1)))
        assert lookup_dirty_uncompute(d, budget) == bf, (d, budget)

        mu = 5
        if d >= 1:
            width = ((d - 1).bit_length() if d > 1 else 0) + mu
            if d <= 1:
                bf = mu
            elif budget // width < 1:
                bf = mu + d
            else:
                bf = mu + min(
                    d,
                    min(
                        ceil_div(2 * d, 1 + lp) + 4 * lp * width
                        for lp in range(1, budget // width + 1)
                    ),
                )
            assert state_prep_cost(d, mu, budget)[0] == bf, (d, mu, budget)

        if b <= 8 and d >= 1:
            kappa = 8
            slices = math.ceil(4 * b / kappa + 1 - 1e-9)
            bf = min(slices * (ceil_div(d, 1 + lp // kappa) + lp) for lp in range(lam + 1))
            assert rotation_array_cost(4, d, b, kappa, lam) == bf, (d, b, lam)
        checked += 1
    report("criterion 8 (cost-function oracle equivalence)", checked == 200, f"{checked} points")


def test_criterion_09_sweep_determinism(tmp_path):
    """Two sweep runs over the same fixture produce byte-identical files."""
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "qdf.cli", "sweep",
                "--fcidump", fixture_path("h4_sto3g.fcidump"),
                "--scheme", "incoherent", "--format", "csv", "--out", str(out),
            ],
            check=True,
        )
        blobs.append(out.read_bytes())
    report("criterion 9 (sweep determinism)", blobs[0] == blobs[1], f"{len(blobs[0])} bytes")


def test_criterion_10_trotter_bound_sanity(h2_df):
    """Zero for commuting fragments; positive and regression-pinned for the
    committed two-orbital fixture's fragment set.  Full-scale product-formula
    reproduction is out of scope (needs spectral norms of ~1e8 commutators of
    100-qubit operators)."""
    commuting = [np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([0.1, 0.2, 0.3, 0.4])]
    zero = trotter_step_bound(commuting)
    fragments = df_fragments(h2_df)
    value = trotter_step_bound(fragments)
    pinned = 0.027426073962500592  # frozen from the dense commutator oracle
    report(
        "criterion 10 (product-formula bound sanity)",
        zero == 0.0 and value > 0 and abs(value - pinned) / pinned <= 1e-9,
        f"commuting {zero}, fixture {value:.12g}",
    )
