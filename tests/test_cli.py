import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from qdf import factorization
from qdf.cli import main
from qdf.integrals import MolecularIntegrals
from tests.conftest import fixture_path, sealed

VALIDATE_CHECKS = [
    "validate_symmetry", "factorization_reconstruction", "representation_identity",
    "particle_number_symmetry", "one_body_norm_identity", "alpha_dominates_spectral_norm",
    "truncation_soundness",
]

H2 = fixture_path("h2_sto3g.fcidump")
H4 = fixture_path("h4_sto3g.fcidump")
SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "qdf", "schemas")


def perturbed_h4(delta: float) -> str:
    """The H4 FCIDUMP text with ``delta`` added to the (01|23) orbit."""
    from qdf.integrals import canonical_orbit

    lines = open(H4).read().splitlines()
    for i, line in enumerate(lines):
        value, *index = line.split()
        if len(index) == 4 and index[0].isdigit():
            if canonical_orbit(*(int(x) - 1 for x in index)) == canonical_orbit(0, 1, 2, 3):
                lines[i] = " ".join([repr(float(value) + delta), *index])
                return "\n".join(lines) + "\n"
    raise AssertionError("no (01|23) record in the H4 fixture")


def run_cli(args):
    """In-process invocation capturing stdout; returns (exit_code, text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def run_captured(args):
    """In-process invocation: (exit code, stdout, stderr without its
    ``warning:`` lines, the texts of those lines).  No Python warning may
    escape: the parser's notes reach the user as stderr lines only."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines(keepends=True)
    notes = [line for line in lines if line.startswith("warning: ")]
    rest = "".join(line for line in lines if line not in notes)
    return code, out.getvalue(), rest, [line[len("warning: "):-1] for line in notes]


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


class TestEstimate:
    def test_h2_matches_golden_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "estimate", "--fcidump", H2, "--format", "json", "--out", str(out),
        ])
        assert code == 0
        with open(fixture_path("h2_estimate_golden.json"), "rb") as fh:
            golden = fh.read()
        assert out.read_bytes() == golden

    def test_h2_report_contract(self):
        code, text = run_cli(["estimate", "--fcidump", H2, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["rank_R"] <= 3
        assert payload["eigvec_M"] <= 6
        assert payload["total_toffoli"] > 0
        jsonschema.validate(payload, load_schema("cost_report.schema.json"))

    def test_csv_column_order(self):
        code, text = run_cli(["estimate", "--fcidump", H2, "--format", "csv"])
        assert code == 0
        header = text.splitlines()[0]
        assert header == "Step,epsilon_in,N,R,M,alpha_df,Qubits,Toffoli"

    def test_csv_values_match_json(self):
        _, csv_text = run_cli(["estimate", "--fcidump", H2, "--format", "csv"])
        _, json_text = run_cli(["estimate", "--fcidump", H2, "--format", "json"])
        payload = json.loads(json_text)
        row = csv_text.splitlines()[1].split(",")
        assert int(row[2]) == payload["n_orbitals"]
        assert int(row[3]) == payload["rank_R"]
        assert int(row[4]) == payload["eigvec_M"]
        assert float(row[5]) == payload["alpha_df"]
        assert int(row[6]) == payload["logical_qubits"]
        assert int(row[7]) == payload["total_toffoli"]

    def test_missing_file_exit_one(self, capsys):
        assert main(["estimate", "--fcidump", "/no/such/file.fcidump"]) == 1
        assert "/no/such/file.fcidump" in capsys.readouterr().err

    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "h4.qdfcache"
        code1, text1 = run_cli([
            "estimate", "--fcidump", H4, "--cache", str(cache), "--format", "json",
        ])
        assert code1 == 0 and cache.exists()
        code2, text2 = run_cli([
            "estimate", "--fcidump", H4, "--cache", str(cache), "--format", "json",
        ])
        assert code2 == 0
        assert text1 == text2

    @pytest.mark.parametrize("target", ["the fcidump", "a text file"])
    def test_other_file_is_never_overwritten(self, tmp_path, capsys, target):
        fcidump = tmp_path / "h4.fcidump"
        fcidump.write_bytes(Path(H4).read_bytes())
        cache = fcidump if target == "the fcidump" else tmp_path / "notes.txt"
        if target == "a text file":
            cache.write_text("notes on H4\n")
        before = cache.read_bytes()
        assert run_cli(["estimate", "--fcidump", str(fcidump), "--cache", str(cache)]) == (3, "")
        assert capsys.readouterr().err == (
            f"error: --cache {cache} is not a qdf cache (bad cache magic {before[:4]!r}); "
            "it is left as it is\n")
        assert cache.read_bytes() == before

    @pytest.mark.parametrize("foreign", ["scaled_h4", "h2"])
    def test_foreign_cache_is_rebuilt(self, tmp_path, capsys, foreign):
        from qdf.integrals import MolecularIntegrals, load_fcidump, write_fcidump

        path = H2
        if foreign == "scaled_h4":
            m = load_fcidump(H4)
            path = str(tmp_path / "other.fcidump")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(write_fcidump(MolecularIntegrals(
                    m.n_orbitals, m.n_electrons, m.core_energy, 1.1 * m.one_body, 0.9 * m.two_body,
                )))
        cache, fresh = tmp_path / "h4.qdfcache", tmp_path / "fresh.qdfcache"
        assert run_cli(["estimate", "--fcidump", H4, "--cache", str(cache)])[0] == 0
        code, text = run_cli(["estimate", "--fcidump", path, "--cache", str(cache), "--format", "json"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rebuilding" in err
        _, expected = run_cli(["estimate", "--fcidump", path, "--cache", str(fresh), "--format", "json"])
        assert text == expected
        assert cache.read_bytes() == fresh.read_bytes()

    def test_cache_of_other_two_body_integrals_is_rebuilt(self, tmp_path, capsys):
        # (01|23) has four distinct indices: the perturbed file has the same
        # one-body data, so only the cache's binding to the file's bytes can
        # tell the two inputs apart
        perturbed = tmp_path / "h4_01_23.fcidump"
        perturbed.write_text(perturbed_h4(0.01))
        cache, fresh = tmp_path / "h4.qdfcache", tmp_path / "fresh.qdfcache"
        assert run_cli(["estimate", "--fcidump", H4, "--cache", str(cache)])[0] == 0
        _, expected = run_cli(["estimate", "--fcidump", str(perturbed), "--format", "json"])
        capsys.readouterr()
        code, text = run_cli([
            "estimate", "--fcidump", str(perturbed), "--cache", str(cache), "--format", "json",
        ])
        assert code == 0 and text == expected
        assert "rebuilding" in capsys.readouterr().err
        payload = json.loads(text)
        assert (payload["alpha_df"], payload["total_toffoli"]) == (8.09707413787217, 15899625)
        run_cli(["estimate", "--fcidump", str(perturbed), "--cache", str(fresh)])
        assert cache.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("content, message", [
        (b"&FCI NORB=0,NELEC=2,\n&END\n0.5 0 0 0 0\n", "line 1: NORB must be positive, got 0"),
        (b"&FCI NORB=1,NELEC=-2,\n&END\n0.5 1 1 1 1\n", "line 1: NELEC must be non-negative"),
        (b"&FCI NORB=1,NELEC=2,\n&END\n0.5 1 1 1 1\n0.\xe9 0 0 0 0\n", "line 4: non-ASCII byte 0xe9"),
        (b"&FCI NORB=1000000,NELEC=2,\n&END\n0.5 1 1 1 1\n", "line 1: NORB=1000000 is too large"),
        # Past 55108 orbitals (ij|kl) cannot be indexed in int64: refused at
        # the header, before the record keys overflow.
        (b"&FCI NORB=10000000000,NELEC=2,\n&END\n0.5 1 1 1 1\n",
         "line 1: NORB=10000000000 is too large"),
    ])
    def test_bad_fcidump_exit_one_with_one_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.fcidump"
        path.write_bytes(content)
        assert main(["estimate", "--fcidump", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCost:
    def test_direct_mode_json(self):
        code, text = run_cli([
            "cost", "--n", "54", "--r", "567", "--m", "24000", "--alpha", "339.1",
            "--delta-e", "1e-3", "--mode", "min-qubits", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        jsonschema.validate(payload, load_schema("cost_report.schema.json"))
        assert payload["pe_repetitions"] == 591842
        assert abs(payload["logical_qubits"] - 3700) / 3700 <= 0.10
        assert abs(payload["total_toffoli"] - 3.0e10) / 3.0e10 <= 0.35

    def test_missing_flag_exit_three(self, capsys):
        assert main(["cost", "--n", "54", "--r", "567", "--m", "24000"]) == 3
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "0", "argument --n: expected an integer >= 1"),
        ("--r", "-2", "argument --r: expected an integer >= 1"),
        ("--m", "1.5", "argument --m: expected an integer >= 1"),
        ("--m-max", "0", "argument --m-max: expected an integer >= 1"),
        ("--m-max", "5", "--m-max 5 exceeds min(--m, --n) = 4"),
        ("--alpha", "inf", "argument --alpha: expected a finite number > 0"),
        ("--alpha", "nan", "argument --alpha: expected a finite number > 0"),
        ("--alpha", "0", "argument --alpha: expected a finite number > 0"),
    ])
    def test_bad_flag_exit_three_with_one_line(self, capsys, flag, value, message):
        flags = {"--n": "4", "--r": "2", "--m": "4", "--alpha": "1", flag: value}
        assert main(["cost", *(token for item in flags.items() for token in item)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSweep:
    def test_default_grid_has_16_rows(self):
        code, text = run_cli([
            "sweep", "--fcidump", H4, "--scheme", "incoherent", "--format", "csv",
        ])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 17  # header + 16 thresholds
        assert lines[0].startswith("epsilon,R,M,alpha_df")

    def test_rows_monotone(self):
        _, text = run_cli([
            "sweep", "--fcidump", H4, "--scheme", "incoherent", "--format", "csv",
        ])
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        ms = [int(r[2]) for r in rows]
        tofs = [int(r[7]) for r in rows]
        assert all(b <= a for a, b in zip(ms, ms[1:]))
        assert all(b <= a for a, b in zip(tofs, tofs[1:]))

    def test_json_validates_against_schema(self):
        code, text = run_cli([
            "sweep", "--fcidump", H4, "--scheme", "coherent", "--format", "json",
        ])
        assert code == 0
        jsonschema.validate(json.loads(text), load_schema("sweep.schema.json"))

    def test_csv_values_match_json(self):
        _, csv_text = run_cli(["sweep", "--fcidump", H4, "--format", "csv"])
        _, json_text = run_cli(["sweep", "--fcidump", H4, "--format", "json"])
        rows = json.loads(json_text)["rows"]
        for line, row in zip(csv_text.strip().splitlines()[1:], rows):
            cells = line.split(",")
            assert float(cells[0]) == row["epsilon"]
            assert int(cells[1]) == row["R"]
            assert int(cells[2]) == row["M"]
            assert float(cells[3]) == row["alpha_df"]
            assert float(cells[4]) == row["coherent_score"]
            assert float(cells[5]) == row["incoherent_score"]
            assert int(cells[6]) == row["Qubits"]
            assert int(cells[7]) == row["Toffoli"]

    def test_custom_grid(self):
        _, text = run_cli([
            "sweep", "--fcidump", H2, "--grid", "1e-3:1e-2:3", "--format", "json",
        ])
        rows = json.loads(text)["rows"]
        assert [r["epsilon"] for r in rows] == pytest.approx([1e-3, 10**-2.5, 1e-2])

    def test_bad_grid_exit_three(self, capsys):
        assert main(["sweep", "--fcidump", H2, "--grid", "nope"]) == 3
        capsys.readouterr()

    def test_grid_count_refused_before_the_grid_is_built(self, capsys, monkeypatch, tmp_path):
        from qdf import cli

        def unreachable(*args):
            raise AssertionError("the grid was built or the input read")

        assert cli._grid(f"1e-4:1e-1:{cli.GRID_MAX_POINTS}").size == cli.GRID_MAX_POINTS
        monkeypatch.setattr(cli.truncation, "default_grid", unreachable)
        monkeypatch.setattr(cli, "_factorization", unreachable)
        for fcidump in (H2, str(tmp_path / "missing.fcidump")):
            for count in (cli.GRID_MAX_POINTS + 1, 10**9):
                assert main(["sweep", "--fcidump", fcidump, "--grid", f"1e-4:1e-1:{count}"]) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (f"error: qdf sweep: argument --grid: expected lo:hi:n, "
                                        f"got '1e-4:1e-1:{count}': n is at most 1000000\n")

    def test_default_format_is_csv(self):
        _, default = run_cli(["sweep", "--fcidump", H4])
        _, csv_text = run_cli(["sweep", "--fcidump", H4, "--format", "csv"])
        assert default == csv_text

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.45 GiB for an array with shape (1000000000,)",
         "memory error: Unable to allocate 7.45 GiB for an array with shape (1000000000,)\n"),
        ("", "memory error: out of memory\n"),
    ])
    def test_memory_error_exit_three_with_one_line(self, capsys, monkeypatch, message, line):
        from qdf import cli

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.truncation, "threshold_sweep", exhausted)
        assert main(["sweep", "--fcidump", H2]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache-hit"])
    @pytest.mark.parametrize("scheme", ["coherent", "incoherent"])
    def test_h4_matches_golden_file(self, tmp_path, monkeypatch, scheme, cached):
        # On a cache hit the sweep reads the read-only arrays of the cache's bytes.
        out = tmp_path / "sweep.json"
        args = ["sweep", "--fcidump", H4, "--scheme", scheme, "--format", "json", "--out", str(out)]
        if cached:
            cache = tmp_path / "h4.qdfcache"
            assert run_cli(["estimate", "--fcidump", H4, "--cache", str(cache)])[0] == 0

            def refuse(*_, **__):
                raise AssertionError("a cache hit factorizes nothing")

            monkeypatch.setattr(factorization, "single_factorize", refuse)
            args += ["--cache", str(cache)]
        assert main(args) == 0
        with open(fixture_path(f"h4_sweep_{scheme}_golden.json"), "rb") as fh:
            assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("args, message", [
    (["estimate", "--epsilon", "nan"], "argument --epsilon: expected a finite number >= 0"),
    (["estimate", "--epsilon", "inf"], "argument --epsilon: expected a finite number >= 0"),
    (["estimate", "--epsilon=-1e-3"], "argument --epsilon: expected a finite number >= 0"),
    (["estimate", "--delta-e", "inf"], "argument --delta-e: expected a finite number > 0"),
    (["estimate", "--delta-e", "0"], "argument --delta-e: expected a finite number > 0"),
    (["estimate", "--lambda", "-1"], "argument --lambda: expected an integer >= 0"),
    (["estimate", "--lambda", "1.5"], "argument --lambda: expected an integer >= 0"),
    (["estimate", "--lambda", "7"],
     "--lambda applies only with --mode fixed, not --mode min-qubits"),
    (["estimate", "--mode", "min-toffolis", "--lambda", "7"],
     "--lambda applies only with --mode fixed, not --mode min-toffolis"),
    (["estimate", "--mode", "fixed"], "--mode fixed requires --lambda"),
    (["sweep", "--grid", "nan:1:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-3:inf:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "0:1e-2:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-2:1e-3:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-3:1e-2:0"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--delta-e", "nan"], "argument --delta-e: expected a finite number > 0"),
    (["sweep", "--format", "table"], "argument --format: invalid choice: 'table'"),
    (["validate", "--delta-e", "1e-3"], "unrecognized arguments: --delta-e 1e-3"),
    (["validate", "--mode", "fixed"], "unrecognized arguments: --mode fixed"),
    (["validate", "--lambda", "2"], "unrecognized arguments: --lambda 2"),
    (["validate", "--format", "json"], "unrecognized arguments: --format json"),
])
def test_bad_flag_exit_three_with_one_line(capsys, args, message):
    assert main([*args, "--fcidump", H2]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["estimate", "sweep", "validate"])
def test_missing_fcidump_exit_three_with_one_line(capsys, command):
    assert main([command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: qdf {command}: the following arguments are required: "
                            "--fcidump\n")


@pytest.mark.parametrize("command", ["estimate", "sweep", "validate"])
@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_missing_file_exit_one_with_one_line(tmp_path, capsys, command, cached):
    missing, cache = tmp_path / "missing.fcidump", tmp_path / "c.qdfcache"
    assert main([command, "--fcidump", str(missing), *(["--cache", str(cache)] * cached)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {missing}: No such file or directory\n"
    assert not cache.exists()


@pytest.mark.parametrize("command", ["estimate", "sweep", "validate"])
def test_not_psd_numeric_error_exit_two_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "not_psd.fcidump"
    path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n-0.5 1 1 1 1\n0.0 0 0 0 0\n")
    assert main([command, "--fcidump", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric error: residual diagonal -5.000e-01 at pair index 0 is below "
                            "-0.000e+00; ERI supermatrix is not PSD\n")


def test_parser_notes_are_stderr_lines_under_warnings_as_errors(tmp_path):
    # an orbital-energy record and a duplicate: a valid file with two notes,
    # shown once when parsed (cache miss) and again from the cache (hit)
    path, cache = tmp_path / "notes.fcidump", tmp_path / "notes.qdfcache"
    path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n0.5 1 1 1 1\n"
                    "-1.0 1 1 0 0\n-0.5 1 0 0 0\n0.0 0 0 0 0\n")
    args = ["estimate", "--fcidump", str(path), "--format", "json"]
    code, expected, rest, notes = run_captured(args)
    assert (code, rest, len(notes)) == (0, "", 2)
    for run in ("miss", "hit"):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qdf.cli", *args, "--cache", str(cache)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert (proc.returncode, proc.stdout) == (0, expected), (run, proc.stderr)
        assert proc.stderr == "".join(f"warning: {note}\n" for note in notes), run


@pytest.mark.parametrize("command", [
    ["estimate", "--fcidump", H2],
    ["sweep", "--fcidump", H2],
    ["validate", "--fcidump", H2],
    ["cost", "--n", "4", "--r", "8", "--m", "24", "--alpha", "8"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("target", ["missing_directory", "directory", "file_as_directory"])
def test_unwritable_out_exit_three_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    from qdf import costmodel, integrals

    (tmp_path / "file").write_text("")
    out = {"missing_directory": tmp_path / "missing" / "out.txt", "directory": tmp_path,
           "file_as_directory": tmp_path / "file" / "out.txt"}[target]

    def unreachable(*args, **kwargs):
        raise AssertionError("the input was read or a cost computed")

    # the refusal comes before any input is read or any cost is computed
    monkeypatch.setattr(integrals, "load_fcidump", unreachable)
    monkeypatch.setattr(costmodel, "estimate", unreachable)
    assert main([*command, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestValidate:
    def test_h2_passes(self, capsys):
        assert main(["validate", "--fcidump", H2]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("scheme, name, label, suffix", [
        ("coherent", "truncation_soundness", "worst (error - bound) = ", ""),
        ("incoherent", "truncation_sweep", "worst (|dE0| - score) = ", " (informational)"),
    ])
    def test_truncation_detail_shows_slack(self, tmp_path, capsys, scheme, name, label, suffix):
        # the worst error - bound over the points that remove an eigenpair,
        # which is negative on a passing input; a point that removes nothing
        # has error = bound = 0 and shows no slack
        def last_line(path):
            assert main(["validate", "--fcidump", str(path), "--sweep-scheme", scheme]) == 0
            name_, status, detail = capsys.readouterr().out.splitlines()[-1].split(maxsplit=2)
            assert (name_, status) == (name, "PASS") and detail.endswith(suffix)
            return detail

        for path in (H2, H4):
            detail = last_line(path)
            assert detail.startswith(label) and float(detail[len(label):].split()[0]) < 0, detail
        # one eigenpair, whose score is above the grid's top, 0.1
        one = tmp_path / "one_pair.fcidump"
        one.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n-1.0 1 1 0 0\n"
                       "0.0 0 0 0 0\n")
        assert last_line(one) == "no grid point removes an eigenpair" + suffix

    def test_incoherent_sweep_mode(self, capsys, tmp_path):
        report = tmp_path / "validation.json"
        code = main([
            "validate", "--fcidump", H2, "--sweep-scheme", "incoherent",
            "--out", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "qdf-validate/1"
        capsys.readouterr()

    @pytest.mark.parametrize("scheme, last", [
        ("coherent", "truncation_soundness"), ("incoherent", "truncation_sweep"),
    ])
    def test_out_json_matches_stdout(self, tmp_path, scheme, last):
        report = tmp_path / "validation.json"
        code, text = run_cli([
            "validate", "--fcidump", H4, "--sweep-scheme", scheme, "--out", str(report),
        ])
        assert code == 0
        checks = json.loads(report.read_text())["checks"]
        assert [c["name"] for c in checks] == [*VALIDATE_CHECKS[:-1], last]
        lines = [line.split(None, 2) for line in text.splitlines()]
        assert lines == [[c["name"], "PASS" if c["passed"] else "FAIL", c["detail"]]
                         for c in checks]

    def test_oracle_calls_go_through_the_module(self, monkeypatch):
        # perfbench/spans.py times the oracle by replacing these attributes
        from qdf import oracle

        calls = []

        def counted(name):
            fn = getattr(oracle, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("spectral_norm", "build_from_df"):
            monkeypatch.setattr(oracle, name, counted(name))
        assert run_cli(["validate", "--fcidump", H2])[0] == 0
        assert {"spectral_norm", "build_from_df"} <= set(calls)

    def test_symmetry_conflicting_record_caught_at_parse(self, tmp_path, capsys):
        # a record contradicting its own symmetry orbit never reaches the
        # validator: the parser rejects it (exit 1) with the line number
        lines = open(H2).read().splitlines()
        for i, line in enumerate(lines):
            if line.endswith("2 1 1 1"):
                value = float(line.split()[0])
                lines.insert(i + 1, f"{value + 1e-3} 1 2 1 1")
                break
        else:
            pytest.fail("no off-diagonal two-body record found")
        bad = tmp_path / "h2_bad.fcidump"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--fcidump", str(bad)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_corrupted_cache_exits_two(self, tmp_path, capsys):
        import numpy as np

        from qdf.factorization import load_cache, save_cache
        from tests.conftest import factorize
        from qdf.integrals import load_fcidump

        df = factorize(load_fcidump(H2))
        cache = tmp_path / "h2.qdfcache"
        with open(H2, "rb") as fh:
            save_cache(df, cache, hashlib.sha256(fh.read()).digest(), 1e-10)
        # flip one stored eigenvalue so the cached factorization no longer
        # reconstructs the input tensor
        clean = cache.read_bytes()
        blob = bytearray(clean)
        df_ref = load_cache(cache)
        target = df_ref.eigenvalues[0, 0]
        idx = blob.find(np.float64(target).tobytes())
        assert idx > 0
        blob[idx : idx + 8] = np.float64(target + 0.25).tobytes()
        args = ["validate", "--fcidump", H2, "--cache", str(cache)]
        assert_rebuilt(args, cache, bytes(blob), clean)
        cache.write_bytes(sealed(bytes(blob)))
        code = main(args)
        assert code == 2
        err = capsys.readouterr().err
        assert "factorization_reconstruction" in err or "representation_identity" in err

    def test_dense_cap_refusal(self, tmp_path, capsys):
        import numpy as np

        from qdf.integrals import MolecularIntegrals, write_fcidump

        m = MolecularIntegrals(8, 8, 0.0, np.eye(8), np.zeros((8, 8, 8, 8)))
        path = tmp_path / "n8.fcidump"
        path.write_text(write_fcidump(m))
        assert main(["validate", "--fcidump", str(path)]) == 3
        assert "N <= 7" in capsys.readouterr().err

    def test_dense_cap_refused_before_factorizing(self, tmp_path, capsys):
        from qdf.integrals import MolecularIntegrals, write_fcidump

        m = MolecularIntegrals(8, 8, 0.0, np.eye(8), np.zeros((8, 8, 8, 8)))
        path = tmp_path / "n8.fcidump"
        path.write_text(write_fcidump(m))
        cache = tmp_path / "n8.qdfcache"
        assert main(["validate", "--fcidump", str(path), "--cache", str(cache)]) == 3
        assert "N <= 7" in capsys.readouterr().err
        assert not cache.exists()


class TestStoredForm:
    """W is the only stored form of the two-electron integrals: the N^4
    tensor is built for the dense oracle alone."""

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_cost_paths_build_no_tensor(self, tmp_path, monkeypatch, command):
        args = [command, "--fcidump", H4]
        code, expected = run_cli(args)
        assert code == 0

        def refuse(self):
            raise AssertionError("the (N, N, N, N) tensor was built")

        monkeypatch.setattr(MolecularIntegrals, "two_body", property(refuse))
        cache = tmp_path / "h4.qdfcache"
        for _ in ("miss", "hit"):
            assert run_cli([*args, "--cache", str(cache)]) == (0, expected)
            assert cache.exists()

    def test_validate_builds_the_tensor_once_for_the_oracle(self, monkeypatch):
        callers = []
        expand = MolecularIntegrals.two_body.fget

        def record(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return expand(self)

        monkeypatch.setattr(MolecularIntegrals, "two_body", property(record))
        assert run_cli(["validate", "--fcidump", H4])[0] == 0
        assert callers == ["build_from_integrals"]


class TestDeterminism:
    def test_sweep_byte_identical_across_processes(self, tmp_path):
        env = dict(os.environ)
        outs = []
        for i in range(2):
            out = tmp_path / f"sweep{i}.csv"
            subprocess.run(
                [
                    sys.executable, "-m", "qdf.cli", "sweep", "--fcidump", H4,
                    "--scheme", "incoherent", "--format", "csv", "--out", str(out),
                ],
                check=True,
                env=env,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@dataclass(frozen=True)
class CleanRun:
    fcidump: Path
    cache: bytes
    out: str
    warned: list


class TestMalformedCache:
    """Every cut, overlong file and single-byte flip of a cache is a miss
    reported in one stderr line, rebuilt to the clean output, warnings and
    cache bytes; only a flip in the first three bytes, which makes it no qdf
    file, is refused instead.  A fault sealed with a recomputed digest
    models a wrong writer: it is a hit, and validate must catch it."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        # an orbital-energy record makes the parser warn, so that the cache
        # holds a warning text and the fuzz reaches that block too
        fcidump = tmp_path_factory.mktemp("cache") / "h4_warned.fcidump"
        fcidump.write_text(open(H4).read() + "-0.5 1 0 0 0\n")
        cache = fcidump.with_suffix(".qdfcache")
        code, out, err, warned = run_captured(estimate_args(fcidump, cache))
        assert code == 0 and err == "" and len(warned) == 1
        return CleanRun(fcidump, cache.read_bytes(), out, warned)

    def check(self, clean: CleanRun, blob: bytes):
        path = clean.fcidump.with_suffix(".case.qdfcache")
        path.write_bytes(blob)
        code, out, err, warned = run_captured(estimate_args(clean.fcidump, path))
        if len(blob) >= 3 and blob[:3] != b"QDF":
            assert (code, out, warned, path.read_bytes()) == (3, "", [], blob)
            assert err == (f"error: --cache {path} is not a qdf cache "
                           f"(bad cache magic {blob[:4]!r}); it is left as it is\n")
            return
        reason = (f"bad cache magic {blob[:4]!r}" if blob[:4] != b"QDF4"
                  else "cache digest does not match its bytes")
        assert (code, err) == (0, f"cache {path} is unreadable ({reason}); rebuilding it\n")
        assert (out, warned, path.read_bytes()) == (clean.out, clean.warned, clean.cache)

    @pytest.mark.parametrize("mask", [0x01, 0x10, 0x80])
    @pytest.mark.parametrize("field", ["one_body_eigenvalue", "schatten_norm"])
    def test_moved_value_fails_validate(self, clean, field, mask):
        # A flip in the high bytes of the first one-body eigenvalue or Schatten
        # norm, sealed with its digest, is a hit for estimate.
        from qdf.factorization import read_cache

        good = read_cache(clean.fcidump.with_suffix(".qdfcache"))[1]
        value = good.one_body_eigs[0][0] if field == "one_body_eigenvalue" else good.schatten_norms[0]
        blob = bytearray(clean.cache)
        at = blob.find(np.float64(value).tobytes())
        assert at > 0 and blob.count(np.float64(value).tobytes()) == 1
        blob[at + 6] ^= mask
        path = clean.fcidump.with_suffix(".moved.qdfcache")
        assert_rebuilt(estimate_args(clean.fcidump, path), path, bytes(blob), clean.cache)
        path.write_bytes(sealed(bytes(blob)))
        assert visible_to_validate(good, read_cache(path)[1])
        code, _, err, _ = run_captured(estimate_args(clean.fcidump, path))
        assert code == 0 and "rebuilding" not in err
        code, out, err, _ = run_captured(
            ["validate", "--fcidump", str(clean.fcidump), "--cache", str(path)])
        assert code == 2
        failing = "factorization_reconstruction" if field == "one_body_eigenvalue" else (
            "one_body_norm_identity")
        assert err == f"validation failed: {failing}\n"
        assert [line.split()[0] for line in out.splitlines()] == VALIDATE_CHECKS

    def test_eigenvalue_in_an_empty_slot_fails_validate(self, clean):
        # A slot with no eigenpair holds a zero eigenvector row, so an
        # eigenvalue sealed into it moves no rebuilt factor, only the sum of
        # the stored |lambda| of its rank: estimate reports one more eigenpair.
        from qdf.factorization import read_cache

        good = read_cache(clean.fcidump.with_suffix(".qdfcache"))[1]
        n = good.n_orbitals
        r, m = np.argwhere(good.eigenvalues == 0.0)[0].tolist()
        at = 96 + 8 * (2 + 3 * n * n + n + good.rank + r * n + m)
        blob = bytearray(clean.cache)
        assert blob[at:at + 8] == bytes(8)
        blob[at:at + 8] = np.float64(1.0).tobytes()
        path = clean.fcidump.with_suffix(".slot.qdfcache")
        path.write_bytes(sealed(bytes(blob)))
        assert read_cache(path)[1].total_eigenpairs == good.total_eigenpairs + 1
        code, out, err, _ = run_captured(
            ["validate", "--fcidump", str(clean.fcidump), "--cache", str(path)])
        assert (code, err) == (2, "validation failed: one_body_norm_identity\n")
        assert [line.split()[0] for line in out.splitlines()] == VALIDATE_CHECKS

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cut_or_overlong(self, clean, data):
        size = data.draw(st.integers(0, len(clean.cache) + 8).filter(lambda k: k != len(clean.cache)))
        self.check(clean, (clean.cache + b"\0" * 8)[:size])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_single_byte_flip(self, clean, data):
        blob = bytearray(clean.cache)
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        self.check(clean, bytes(blob))

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_overflow_names_the_schatten_sum(self, tmp_path, command):
        # an eigenvalue of 1e307 is finite, so the sealed cache loads and is a hit
        from qdf.factorization import read_cache

        cache = tmp_path / "h4.qdfcache"
        args = [command, "--fcidump", H4, "--cache", str(cache)]
        assert run_cli(args)[0] == 0
        value = np.float64(read_cache(cache)[1].eigenvalues[0, 0]).tobytes()
        blob = cache.read_bytes()
        assert blob.count(value) == 1
        damaged = blob.replace(value, np.float64(1e307).tobytes())
        assert_rebuilt(args, cache, damaged, blob)
        cache.write_bytes(sealed(damaged))
        proc = subprocess.run(
            [sys.executable, "-m", "qdf.cli", *args],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("numeric error: alpha_DF overflows: the square of Schatten "
                               "sum 1e+307 is out of float range\n")

    @pytest.mark.parametrize("command, bad", [
        ("estimate", "cut"), ("sweep", "directory"), ("validate", "v1"), ("sweep", "v2"),
        ("estimate", "garbage"), ("estimate", "two bytes"),
    ])
    def test_no_traceback(self, tmp_path, clean, command, bad):
        cache = tmp_path / "bad.qdfcache"
        v1 = open(fixture_path("h4_cache_v1.qdfcache"), "rb").read()
        if bad == "cut":
            cache.write_bytes(clean.cache[:100])
        elif bad == "directory":
            cache.mkdir()
        elif bad == "v1":
            cache.write_bytes(v1)
        elif bad == "v2":
            # the earlier v2 header, bound to H4, in front of its v1 stream
            sha = hashlib.sha256(open(H4, "rb").read()).digest()
            cache.write_bytes(struct.pack("<4sI32sddQI", b"QDF2", 2, sha, 1e-10, 1e-13,
                                          len(v1), 0) + v1)
        elif bad == "garbage":
            cache.write_bytes(b"QDF2" + b"\xff" * 80)
        else:
            # too short to tell from a cut cache, so it is rewritten
            cache.write_bytes(b"ab")
        proc = subprocess.run(
            [sys.executable, "-m", "qdf.cli", command, "--fcidump", H4, "--cache", str(cache)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"cache {cache} ")
        expected = 3 if bad == "directory" else 0
        assert proc.returncode == expected, proc.stderr


def assert_rebuilt(args, cache: Path, damaged: bytes, clean: bytes):
    """``damaged`` as the --cache of the CLI ``args`` is a miss, reported in
    one stderr line, after which the cache holds the ``clean`` bytes again."""
    cache.write_bytes(damaged)
    code, _, err, _ = run_captured(args)
    assert (code, err) == (
        0, f"cache {cache} is unreadable (cache digest does not match its bytes); rebuilding it\n")
    assert cache.read_bytes() == clean


def visible_to_validate(good, bad) -> bool:
    """Whether the one payload float in which the factorizations ``good`` and
    ``bad`` differ moved too far for validate's 1e-8 bounds to hide, with a
    margin for the clean cache's own error (below 1e-9)."""
    if not np.array_equal(good.eigenvalues, bad.eigenvalues):
        # With the moved eigenvalue's unit eigenvector v, the contraction
        # sum (g' - g)_ijkl v_i v_j v_k v_l is delta (2 lambda + delta), and
        # its size is at most N^2 times the sup-norm change of the rebuilt
        # tensor.
        values, moved = good.eigenvalues.reshape(-1), bad.eigenvalues.reshape(-1)
        m = int(np.flatnonzero(values != moved)[0])
        lam, delta = values[m], moved[m] - values[m]
        return abs(delta * (2 * lam + delta)) > good.n_orbitals**2 * 2e-8
    if not np.array_equal(good.one_body_eigs[0], bad.one_body_eigs[0]):
        # V diag(w) V^T moves by delta v v^T, whose largest entry is at least
        # delta / N for a unit vector v.
        delta = np.abs(good.one_body_eigs[0] - bad.one_body_eigs[0]).max()
        return delta > good.n_orbitals * 2e-8
    # A stored Schatten norm is compared with the spectral norm of G_L.
    return np.abs(good.schatten_norms - bad.schatten_norms).max() > 2e-8


def estimate_args(fcidump, cache):
    return ["estimate", "--fcidump", str(fcidump), "--cache", str(cache), "--format", "json"]
