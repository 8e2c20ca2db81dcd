"""The package runs on numpy alone: scipy is a test dependency (the sparse
Kronecker-chain reference in ``tests/reference.py``), never imported by a CLI
run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI in a fresh interpreter, then prints its exit code and every
# scipy module it left loaded.
PROBE = """
import contextlib, io, sys
from qdf import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.mark.parametrize("args", [
    ["validate", "--fcidump", fixture_path("h4_sto3g.fcidump")],
    ["estimate", "--fcidump", fixture_path("h2_sto3g.fcidump")],
    ["sweep", "--fcidump", fixture_path("h4_sto3g.fcidump")],
    ["cost", "--n", "4", "--r", "8", "--m", "24", "--alpha", "8.077006824338111"],
], ids=["validate-h4", "estimate-h2", "sweep-h4", "cost-h4"])
def test_cli_run_imports_no_scipy(args):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout == "0 []\n"
