import hashlib
import io
import json
import os
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

from qdf.cli import main
from tests.conftest import fixture_path

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
    """In-process invocation: (exit code, stdout, stderr, warning texts)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


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

    @pytest.mark.parametrize("scheme", ["coherent", "incoherent"])
    def test_h4_matches_golden_file(self, tmp_path, scheme):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--fcidump", H4, "--scheme", scheme, "--format", "json", "--out", str(out),
        ])
        assert code == 0
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
    (["sweep", "--grid", "nan:1:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-3:inf:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "0:1e-2:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-2:1e-3:3"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--grid", "1e-3:1e-2:0"], "needs finite 0 < lo <= hi and n >= 1"),
    (["sweep", "--delta-e", "nan"], "argument --delta-e: expected a finite number > 0"),
])
def test_bad_flag_exit_three_with_one_line(capsys, args, message):
    assert main([*args, "--fcidump", H2]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestValidate:
    def test_h2_passes(self, capsys):
        assert main(["validate", "--fcidump", H2]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

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
        blob = bytearray(cache.read_bytes())
        df_ref = load_cache(cache)
        target = df_ref.eigenvalues[0]
        idx = blob.find(np.float64(target).tobytes())
        assert idx > 0
        blob[idx : idx + 8] = np.float64(target + 0.25).tobytes()
        cache.write_bytes(bytes(blob))
        code = main(["validate", "--fcidump", H2, "--cache", str(cache)])
        assert code == 2
        err = capsys.readouterr().err
        assert "factorization_reconstruction" in err or "representation_identity" in err

    def test_dense_cap_refusal(self, tmp_path, capsys):
        import numpy as np

        from qdf.integrals import MolecularIntegrals, write_fcidump

        m = MolecularIntegrals(7, 7, 0.0, np.eye(7), np.zeros((7, 7, 7, 7)))
        path = tmp_path / "n7.fcidump"
        path.write_text(write_fcidump(m))
        assert main(["validate", "--fcidump", str(path)]) == 3
        assert "N <= 6" in capsys.readouterr().err

    def test_dense_cap_refused_before_factorizing(self, tmp_path, capsys):
        from qdf.integrals import MolecularIntegrals, write_fcidump

        m = MolecularIntegrals(7, 7, 0.0, np.eye(7), np.zeros((7, 7, 7, 7)))
        path = tmp_path / "n7.fcidump"
        path.write_text(write_fcidump(m))
        cache = tmp_path / "n7.qdfcache"
        assert main(["validate", "--fcidump", str(path), "--cache", str(cache)]) == 3
        assert "N <= 6" in capsys.readouterr().err
        assert not cache.exists()


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
    """Every prefix cut and single-byte flip of a v2 cache either misses and
    is rebuilt, or hits; a hit that moves an eigenvalue far enough for the
    reconstruction check to see it fails validate."""

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
        if err.startswith(f"cache {path} "):
            assert code == 0 and err.count("\n") == 1 and err.endswith("; rebuilding it\n")
            assert (out, warned, path.read_bytes()) == (clean.out, clean.warned, clean.cache)
            return
        assert path.read_bytes() == blob
        if out == clean.out:
            assert (code, err) == (0, "")
            return
        from qdf.factorization import read_cache

        # A hit whose output moved: the header is intact, so the flip sits in
        # one payload float that estimate reads.  The format has no payload
        # checksum; validate is what guards the payload.
        good = read_cache(clean.fcidump.with_suffix(".qdfcache"))[1]
        bad = read_cache(path)[1]
        moved = [name for name, a, b in (
            ("eigenvalues", good.eigenvalues, bad.eigenvalues),
            ("schatten_norms", good.schatten_norms, bad.schatten_norms),
            ("one_body_eigenvalues", good.one_body_eigs[0], bad.one_body_eigs[0]),
        ) if not np.array_equal(a, b)]
        assert len(moved) == 1
        if code != 0:
            # a value so large that the cost arithmetic overflows
            assert (code, out) == (2, "") and err.startswith("numeric error: ")
            assert err.count("\n") == 1
            return
        if visible_to_validate(good, bad):
            code, _, _, _ = run_captured(
                ["validate", "--fcidump", str(clean.fcidump), "--cache", str(path)])
            assert code == 2

    @pytest.mark.parametrize("mask", [0x01, 0x10, 0x80])
    @pytest.mark.parametrize("field", ["one_body_eigenvalue", "schatten_norm"])
    def test_moved_value_fails_validate(self, clean, field, mask):
        # A flip in the high bytes of the first one-body eigenvalue or Schatten
        # norm leaves the header intact, so estimate takes the cache as a hit.
        from qdf.factorization import read_cache

        good = read_cache(clean.fcidump.with_suffix(".qdfcache"))[1]
        value = good.one_body_eigs[0][0] if field == "one_body_eigenvalue" else good.schatten_norms[0]
        blob = bytearray(clean.cache)
        at = blob.find(np.float64(value).tobytes())
        assert at > 0 and blob.count(np.float64(value).tobytes()) == 1
        blob[at + 6] ^= mask
        path = clean.fcidump.with_suffix(".moved.qdfcache")
        path.write_bytes(bytes(blob))
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
        # an eigenvalue of 1e307 is finite, so the cache loads and is a hit
        from qdf.factorization import read_cache

        cache = tmp_path / "h4.qdfcache"
        assert run_cli(["estimate", "--fcidump", H4, "--cache", str(cache)])[0] == 0
        value = np.float64(read_cache(cache)[1].eigenvalues[0]).tobytes()
        blob = cache.read_bytes()
        assert blob.count(value) == 1
        cache.write_bytes(blob.replace(value, np.float64(1e307).tobytes()))
        proc = subprocess.run(
            [sys.executable, "-m", "qdf.cli", command, "--fcidump", H4, "--cache", str(cache)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("numeric error: alpha_DF overflows: the square of Schatten "
                               "sum 1e+307 is out of float range\n")

    @pytest.mark.parametrize("command, bad", [
        ("estimate", "cut"), ("sweep", "directory"), ("validate", "v1"), ("estimate", "garbage"),
    ])
    def test_no_traceback(self, tmp_path, clean, command, bad):
        cache = tmp_path / "bad.qdfcache"
        if bad == "cut":
            cache.write_bytes(clean.cache[:100])
        elif bad == "directory":
            cache.mkdir()
        elif bad == "v1":
            cache.write_bytes(open(fixture_path("h4_cache_v1.qdfcache"), "rb").read())
        else:
            cache.write_bytes(b"QDF2" + b"\xff" * 80)
        proc = subprocess.run(
            [sys.executable, "-m", "qdf.cli", command, "--fcidump", H4, "--cache", str(cache)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"cache {cache} ")
        expected = 3 if bad == "directory" else 0
        assert proc.returncode == expected, proc.stderr


def visible_to_validate(good, bad) -> bool:
    """Whether the one payload float in which the factorizations ``good`` and
    ``bad`` differ moved too far for validate's 1e-8 bounds to hide, with a
    margin for the clean cache's own error (below 1e-9)."""
    if not np.array_equal(good.eigenvalues, bad.eigenvalues):
        # With the moved eigenvalue's unit eigenvector v, the contraction
        # sum (g' - g)_ijkl v_i v_j v_k v_l is delta (2 lambda + delta), and
        # its size is at most N^2 times the sup-norm change of the rebuilt
        # tensor.
        m = int(np.flatnonzero(good.eigenvalues != bad.eigenvalues)[0])
        lam, delta = good.eigenvalues[m], bad.eigenvalues[m] - good.eigenvalues[m]
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
