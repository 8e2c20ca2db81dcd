"""Command-line interface: estimate | cost | sweep | validate.

Outputs are deterministic: identical configuration yields byte-identical
data files.  Diagnostics go to stderr; data goes to stdout or --out.
Exit codes: 1 parse error, 2 numeric/validation error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from qdf import costmodel, factorization, integrals, oracle, truncation

EXIT_PARSE = 1
EXIT_NUMERIC = 2
EXIT_CONFIG = 3

ESTIMATE_CSV_COLUMNS = ["Step", "epsilon_in", "N", "R", "M", "alpha_df", "Qubits", "Toffoli"]
SWEEP_CSV_COLUMNS = [
    "epsilon", "R", "M", "alpha_df", "coherent_score", "incoherent_score", "Qubits", "Toffoli",
]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _report_table(report: costmodel.CostReport) -> str:
    d = report.to_dict()
    lines = ["quantity                 value", "-" * 40]
    order = [
        "n_orbitals", "rank_R", "eigvec_M", "alpha_df", "beta", "mu",
        "lambda_ancilla", "walk_toffoli", "closed_form_toffoli", "logical_qubits",
        "pe_repetitions", "total_toffoli", "closed_form_total",
    ]
    for key in order:
        lines.append(f"{key:24s} {d[key]}")
    for key, val in sorted(d["walk_toffoli_breakdown"].items()):
        lines.append(f"  toffoli.{key:14s} {val}")
    for key, val in sorted(d["logical_qubit_breakdown"].items()):
        lines.append(f"  qubits.{key:15s} {val}")
    lines.append(f"{'runtime @ 10us/Toffoli':24s} {_human_time(d['runtime_seconds_fast'])}")
    lines.append(f"{'runtime @ 10ms/Toffoli':24s} {_human_time(d['runtime_seconds_slow'])}")
    return "\n".join(lines) + "\n"


def _human_time(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.3g} s"
    if seconds < 2 * 86400:
        return f"{seconds / 3600:.3g} h"
    return f"{seconds / 86400:.3g} days"


def _mode_name(raw: str) -> str:
    return {"min-qubits": "min_qubits", "min-toffolis": "min_toffoli", "fixed": "fixed"}[raw]


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi and n >= 1):
            raise ValueError("needs finite 0 < lo <= hi and n >= 1")
    except ValueError as exc:
        raise CliError(f"bad --grid {spec!r} (expected lo:hi:n): {exc}", EXIT_CONFIG) from None
    return truncation.default_grid(lo, hi, n)


def _checked(kind, accept, requirement: str):
    """argparse type function: ``kind(text)`` if ``accept`` holds for it."""

    def parse(text: str):
        try:
            if accept(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")

    return parse


_epsilon = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_lambda = _checked(int, lambda v: v >= 0, "an integer >= 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 3 with one line."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}", EXIT_CONFIG)


def _fcidump_path(args) -> str:
    if not args.fcidump:
        raise CliError("--fcidump is required", EXIT_CONFIG)
    if not os.path.exists(args.fcidump):
        raise CliError(f"no such file: {args.fcidump}", EXIT_PARSE)
    return args.fcidump


def _warn(texts) -> None:
    for text in texts:
        warnings.warn(text)


def _parse(path: str) -> tuple[integrals.MolecularIntegrals, list[str]]:
    """The parsed FCIDUMP and the texts of the parser's warnings, which are
    shown (also when the parse fails) as a cache hit shows them again."""
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            mol = integrals.load_fcidump(path)
        except integrals.FcidumpError as exc:
            failure = CliError(f"{path}: {exc}", EXIT_PARSE)
        except OSError as exc:
            failure = CliError(f"cannot read {path}: {exc.strerror}", EXIT_PARSE)
    texts = [str(w.message) for w in caught]
    _warn(texts)
    if failure is not None:
        raise failure
    return mol, texts


def _file_sha256(path: str) -> bytes:
    """SHA-256 of the file, read in 1 MiB blocks so that its bytes are never
    all held at once."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_PARSE) from None
    return digest.digest()


def _cache_hit(path: str, fcidump_sha256: bytes):
    """The header and factorization of the cache at ``path`` when it is a hit:
    a v2 cache whose every header field matches the FCIDUMP's digest and the
    factorization settings.  Anything else is a miss, reported in one stderr
    line, except a missing file, which is a silent miss."""
    try:
        header, df = factorization.read_cache(path)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        reason = f"is unreadable ({exc})"
    else:
        if header is None:
            reason = "is a v1 cache, which is not bound to its input"
        elif header.fcidump_sha256 != fcidump_sha256:
            reason = "was built from other integrals"
        elif (header.tol, header.eigenvalue_cutoff) != (
                factorization.CHOLESKY_TOL, factorization.EIGENVALUE_CUTOFF):
            reason = "was built with other factorization settings"
        else:
            return header, df
    sys.stderr.write(f"cache {path} {reason}; rebuilding it\n")
    return None


def _factorization(args, parsed=None) -> factorization.DoubleFactorization:
    """The double factorization of --fcidump.  With --cache, a hit is loaded
    without parsing the FCIDUMP (its stored parser warnings are shown again);
    on a miss the factorization is computed and written over the cache.
    ``parsed`` is the caller's ``_parse`` result, if it has one."""
    path = _fcidump_path(args)
    digest = _file_sha256(path) if args.cache else None
    hit = _cache_hit(args.cache, digest) if args.cache else None
    if hit is not None:
        header, df = hit
        if parsed is None:
            _warn(header.warnings)
        return df
    mol, texts = parsed or _parse(path)
    try:
        sf = factorization.single_factorize(mol, tol=factorization.CHOLESKY_TOL)
        df = factorization.double_factorize(sf, integrals.adjusted_one_body(mol))
    except (factorization.NotPositiveSemidefiniteError, ArithmeticError) as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from None
    if args.cache:
        try:
            factorization.save_cache(df, args.cache, digest, factorization.CHOLESKY_TOL, texts)
        except OSError as exc:
            raise CliError(f"cannot write cache {args.cache}: {exc.strerror}", EXIT_CONFIG) from None
    return df


def _write_report(report: costmodel.CostReport, args, step: str, epsilon: float, extra: dict):
    """One cost report as JSON (with the ``extra`` keys), a one-row CSV or a table."""
    if args.format == "json":
        _emit(_json_dumps({**report.to_dict(), **extra}), args.out)
    elif args.format == "csv":
        row = [
            step, epsilon, report.n_orbitals, report.rank_R, report.eigvec_M,
            report.alpha_df, report.logical_qubits, report.total_toffoli,
        ]
        _emit(_csv([row], ESTIMATE_CSV_COLUMNS), args.out)
    else:
        _emit(_report_table(report), args.out)


def _cost(args, **scalars) -> costmodel.CostReport:
    """The cost estimate of ``n, rank, m_total, m_max, alpha`` under
    --delta-e, --mode and --lambda."""
    return costmodel.estimate(**scalars, budget=costmodel.ErrorBudget(delta_e=args.delta_e),
                              mode=_mode_name(args.mode), lam=args.lam)


def cmd_estimate(args) -> int:
    df = _factorization(args)
    reduced, plan = truncation.truncate(df, args.scheme, args.epsilon)
    report = _cost(args, n=reduced.n_orbitals, rank=reduced.rank, m_total=reduced.total_eigenpairs,
                   m_max=reduced.max_eigenpairs_per_rank, alpha=factorization.alpha_df(reduced))
    step = os.path.splitext(os.path.basename(args.fcidump))[0]
    truncated = {
        "scheme": plan.scheme.value,
        "epsilon": plan.epsilon,
        "removed": len(plan.removed),
        "coherent_score": plan.coherent_score,
        "incoherent_score": plan.incoherent_score,
    }
    _write_report(report, args, step, args.epsilon, {"step": step, "truncation": truncated})
    return 0


def cmd_cost(args) -> int:
    for name in ("n", "r", "m", "alpha"):
        if getattr(args, name) is None:
            raise CliError(f"--{name} is required for cost", EXIT_CONFIG)
    report = _cost(args, n=args.n, rank=args.r, m_total=args.m, m_max=args.m_max, alpha=args.alpha)
    _write_report(report, args, "direct", 0.0, {})
    return 0


def _sweep_rows(df, args):
    grid = _parse_grid(args.grid)
    rows = []
    for eps, r, m, m_max, alpha, coh, inc in truncation.threshold_sweep(df, args.scheme, grid):
        report = _cost(args, n=df.n_orbitals, rank=r, m_total=m, m_max=m_max, alpha=alpha)
        values = [eps, r, m, alpha, coh, inc, report.logical_qubits, report.total_toffoli]
        rows.append(dict(zip(SWEEP_CSV_COLUMNS, values)))
    return rows


def cmd_sweep(args) -> int:
    df = _factorization(args)
    rows = _sweep_rows(df, args)
    if args.format == "json":
        payload = {"schema": "qdf-sweep/1", "scheme": str(args.scheme), "rows": rows}
        _emit(_json_dumps(payload), args.out)
    else:
        table = [[r[c] for c in SWEEP_CSV_COLUMNS] for r in rows]
        _emit(_csv(table, SWEEP_CSV_COLUMNS), args.out)
    return 0


def cmd_validate(args) -> int:
    mol, warned = _parse(_fcidump_path(args))
    if mol.n_orbitals > oracle.DENSE_ORBITAL_CAP:
        raise CliError(
            f"validate needs N <= {oracle.DENSE_ORBITAL_CAP} (dense oracle cap), "
            f"got N={mol.n_orbitals}",
            EXIT_CONFIG,
        )
    df = _factorization(args, (mol, warned))

    checks = []

    def check(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    violations = integrals.validate_symmetry(mol)
    check(
        "validate_symmetry",
        not violations,
        "no violations" if not violations else "; ".join(str(v) for v in violations[:5]),
    )

    # The two-electron tensor and l_minus1, each rebuilt from its eigenpairs.
    recon = factorization.reconstruct_two_body(df)
    ob_vals, ob_vecs = df.one_body_eigs
    recon_err = max(float(np.abs(recon - mol.two_body).max()),
                    float(np.abs((ob_vecs * ob_vals) @ ob_vecs.T - df.one_body.l_minus1).max()))
    check("factorization_reconstruction", recon_err <= 1e-8, f"sup-norm error {recon_err:.3e}")

    h_ref = oracle.build_from_integrals(mol)
    h_df = oracle.build_from_df(df)
    ident_err = float(np.abs(h_ref.matrix - h_df.matrix).max())
    check("representation_identity", ident_err <= 1e-8, f"sup-norm error {ident_err:.3e}")

    number_comm = oracle.particle_number_commutator_norm(h_ref)
    check("particle_number_symmetry", number_comm <= 1e-10, f"[H, N] max entry {number_comm:.3e}")

    # ||G_L|| = ||L||_SH for each factor, and equals its stored Schatten norm.
    norm_dev = 0.0
    for r in range(df.rank):
        g_norm, s_norm = oracle.one_body_norm_check(df.factor_matrix(r))
        norm_dev = max(norm_dev, abs(g_norm - s_norm), abs(g_norm - df.schatten_norms[r]))
    check("one_body_norm_identity", norm_dev <= 1e-8, f"max |deviation| {norm_dev:.3e}")

    alpha = factorization.alpha_df(df)
    # The norms come from the eigenvalues, as in alpha_df, so that a damaged
    # stored norm fails one_body_norm_identity alone.
    t2_const = 0.25 * float(np.sum(factorization.rank_sums(df.padded_abs_eigenvalues())**2))
    shift = df.one_body.scalar_shift + df.one_body.core_energy + t2_const
    shifted = h_df.matrix - shift * np.eye(h_df.dim)
    norm_shifted = oracle.spectral_norm(shifted)
    check(
        "alpha_dominates_spectral_norm",
        norm_shifted <= alpha + 1e-8,
        f"||H - shift|| = {norm_shifted:.6g} vs alpha_df = {alpha:.6g}",
    )

    grid = truncation.default_grid()
    sound = True
    worst = 0.0
    if args.sweep_scheme == "incoherent":
        e_full = oracle.ground_energy(h_df, mol.n_electrons)
    for eps in grid:
        reduced, plan = truncation.truncate(df, args.sweep_scheme, float(eps))
        h_trunc = oracle.build_from_df(reduced)
        err = oracle.spectral_norm(h_df.matrix - h_trunc.matrix)
        bound = plan.coherent_score if plan.scheme is truncation.TruncationScheme.COHERENT else None
        if bound is not None:
            sound &= err <= bound + 1e-10
            worst = max(worst, err - bound)
        else:
            e_trunc = oracle.ground_energy(h_trunc, mol.n_electrons)
            # Informational for the incoherent scheme: the score is not a
            # rigorous bound, so record the worst exceedance without failing.
            worst = max(worst, abs(e_full - e_trunc) - plan.incoherent_score)
    if args.sweep_scheme == "coherent":
        check("truncation_soundness", sound, f"worst (error - bound) = {worst:.3e}")
    else:
        check("truncation_sweep", True, f"worst (|dE0| - score) = {worst:.3e} (informational)")

    payload = {"schema": "qdf-validate/1", "n_orbitals": mol.n_orbitals, "checks": checks}
    all_passed = all(c["passed"] for c in checks)

    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        sys.stdout.write(f"{c['name']:{width}s}  {status}  {c['detail']}\n")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(_json_dumps(payload))

    if not all_passed:
        failing = ", ".join(c["name"] for c in checks if not c["passed"])
        sys.stderr.write(f"validation failed: {failing}\n")
        return EXIT_NUMERIC
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdf",
        description="Resource estimation for qubitized phase estimation of "
        "double-factorized molecular Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fcidump=True):
        if fcidump:
            p.add_argument("--fcidump", help="FCIDUMP input file")
            p.add_argument("--cache", help="binary factorization cache path")
        p.add_argument("--delta-e", type=_positive, default=1e-3, dest="delta_e",
                       help="target energy standard deviation, Hartree (default 1e-3)")
        p.add_argument("--mode", choices=["min-qubits", "min-toffolis", "fixed"],
                       default="min-qubits")
        p.add_argument("--lambda", type=_lambda, default=None, dest="lam",
                       help="ancilla tradeoff parameter for --mode fixed")
        p.add_argument("--format", choices=["json", "csv", "table"], default="table")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_est = sub.add_parser("estimate", help="full pipeline from an FCIDUMP file")
    common(p_est)
    p_est.add_argument("--scheme", choices=["coherent", "incoherent"], default="incoherent")
    p_est.add_argument("--epsilon", type=_epsilon, default=1e-3,
                       help="truncation threshold, Hartree (default 1e-3)")
    p_est.set_defaults(func=cmd_estimate)

    p_cost = sub.add_parser("cost", help="direct cost model from table parameters")
    common(p_cost, fcidump=False)
    p_cost.add_argument("--n", type=_count, help="spatial orbitals")
    p_cost.add_argument("--r", type=_count, help="factorization rank R")
    p_cost.add_argument("--m", type=_count, help="total retained eigenvectors M")
    p_cost.add_argument("--m-max", type=_count, default=None, dest="m_max",
                        help="max eigenvectors in one factor (default min(M, N))")
    p_cost.add_argument("--alpha", type=_positive, help="block-encoding normalization, Hartree")
    p_cost.set_defaults(func=cmd_cost)

    p_sweep = sub.add_parser("sweep", help="threshold sweep with per-point costs")
    common(p_sweep)
    p_sweep.add_argument("--scheme", choices=["coherent", "incoherent"], default="incoherent")
    p_sweep.add_argument("--grid", default="1e-4:1e-1:16", help="lo:hi:n log grid (Hartree)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="exact-diagonalization validation (N <= 6)")
    common(p_val)
    p_val.add_argument("--sweep-scheme", choices=["coherent", "incoherent"],
                       default="coherent", dest="sweep_scheme")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except integrals.FcidumpError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (factorization.NotPositiveSemidefiniteError, ArithmeticError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
