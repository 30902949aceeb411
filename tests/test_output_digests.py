"""SHA-256 of the data outputs (CSV and report JSON, not manifests) of the
README commands, of `certify` on both examples with both strategies, and of
`reproduce 1/2`, run in-process. A refactor that keeps behaviour keeps these
bytes. The digests were taken with numpy 2.4 on x86-64; another BLAS or CPU
may round a matrix product differently and change them."""

import contextlib
import hashlib
import io

import pytest

from pwscontract.cli import main

README_SWEEP = "1e-1,3e-2,1e-2,3e-3,1e-3"

CASES = {
    "simulate": (["simulate", "--config", "example1", "--x0", "-3,-4",
                  "--t-final", "20"],
                 "14c84d6576376f401df3c11bf6a1158257be22d534e7bd8f823ecb4765df0154"),
    "regularize": (["regularize", "--config", "example1", "--x0", "-3,-4",
                    "--t-final", "20", "--eps", README_SWEEP],
                   "559f4c0f8fa65427fef51ec9afc207e4d72acef033b8cc001b006f92086dbcf1"),
    "certify-1-vertex": (["certify", "--config", "example1", "--Q", "identity",
                          "--c", "0.5"],
                         "ad9122743e69cd2e3954b474c469ab3040ba6b46f64b42975ef63993c6a55992"),
    "certify-1-grid": (["certify", "--config", "example1", "--Q", "identity",
                        "--c", "0.5", "--strategy", "grid"],
                       "677d8f30be62065b335b98d1d40b2a79410cef79f67d093c173848bec71bdc22"),
    "certify-2-vertex": (["certify", "--config", "example2", "--Q", "identity",
                          "--c", "1.87"],
                         "c57e5d596d1752874ca28018cd1a5c9d6beecc1f441a48846782df6e69684e26"),
    "certify-2-grid": (["certify", "--config", "example2", "--Q", "identity",
                        "--c", "1.87", "--strategy", "grid"],
                       "7249f9b72343b27b680869d4887da5638dc9434949b390db773409e9d049416e"),
    "reproduce-1": (["reproduce", "1"],
                    "50ef66fde2060d50258eefba9a4bb7d02a54c7701d9c43b1c402ef615d099ed3"),
    "reproduce-2": (["reproduce", "2"],
                    "88af8afe5fb554fd6263fbcb33455e4df76b6e8f8c0f18d8acf84d25d436d514"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_data_output_digest(tmp_path, name):
    argv, digest = CASES[name]
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
