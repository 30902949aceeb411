"""SHA-256 of the data outputs (CSV and report JSON, not manifests) of the
README commands, of `certify` on both examples with both strategies, and of
`reproduce 1/2`, run in-process; and of the raw trajectory arrays (times,
states, lambdas, seg_index) of `integrate` and `integrate_regularized` runs
on the shipped examples, their handle-mode and handle-manifold copies, and
the extended chains. A refactor that keeps
behaviour keeps these bytes. The digests were taken with numpy 2.4 on
x86-64; another BLAS or CPU may round a matrix product differently and
change them."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from pwscontract.cli import main
from pwscontract.filippov import SolverOptions, integrate
from pwscontract.regularize import integrate_regularized

from conftest import (
    CHAIN_STARTS,
    GOLDEN_STARTS,
    STARTS_3D,
    handle_copy,
    handle_manifold_copy,
)

README_SWEEP = "1e-1,3e-2,1e-2,3e-3,1e-3"

CASES = {
    "simulate": (["simulate", "--config", "example1", "--x0", "-3,-4",
                  "--t-final", "20"],
                 "0f85915f844432cbebef1bc96250c66952ca4d8ff11f8767b230f0cfbbb4d511"),
    "regularize": (["regularize", "--config", "example1", "--x0", "-3,-4",
                    "--t-final", "20", "--eps", README_SWEEP],
                   "732c80587c9a6ce81c3b1965be4ae7da8dbb81d8352a1f88f41b0916bcf2e6b7"),
    "certify-1-vertex": (["certify", "--config", "example1", "--Q", "identity",
                          "--c", "0.5"],
                         "ad9122743e69cd2e3954b474c469ab3040ba6b46f64b42975ef63993c6a55992"),
    "certify-1-grid": (["certify", "--config", "example1", "--Q", "identity",
                        "--c", "0.5", "--strategy", "grid"],
                       "677d8f30be62065b335b98d1d40b2a79410cef79f67d093c173848bec71bdc22"),
    "certify-2-vertex": (["certify", "--config", "example2", "--Q", "identity",
                          "--c", "1.87"],
                         "e7677aaf22cca05bb9ef32287441cd42a07e5eeb5b522e0f4481eab80296dc97"),
    "certify-2-grid": (["certify", "--config", "example2", "--Q", "identity",
                        "--c", "1.87", "--strategy", "grid"],
                       "9909545ce2f5e62d55dc575ce599e4f605509ddfacc1c53728016f0b3a3ed627"),
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


def _pool(system, seed=2024, size=20):
    """The fixed spread of pairwise starts over the box that the benchmark's
    ensemble workload pairs up."""
    box = system.box
    return list(np.random.default_rng(seed).uniform(box.lower, box.upper,
                                                    (size, system.dimension)))


@pytest.fixture(scope="module")
def handle_ex1(ex1):
    return handle_copy(ex1)


@pytest.fixture(scope="module")
def handle_manifold_ex2(ex2):
    return handle_manifold_copy(ex2)


# name -> (system fixture, starts, runner(system, x0), digest)
TRAJECTORY_CASES = {
    "integrate-example1-1e-3": (
        "ex1", GOLDEN_STARTS, lambda s, x: integrate(s, x, 20.0),
        "7186a0bc3b1451ccee5395c117afc1aa70399cb7a95de1431c355b48c079721e"),
    "integrate-example1-7.3e-3": (
        "ex1", GOLDEN_STARTS,
        lambda s, x: integrate(s, x, 20.0, SolverOptions(step=7.3e-3)),
        "990f4458d1c57855df5091131dab48f1f7b998c3da6142f056b15bf8b559c361"),
    "integrate-example2-1e-3": (
        "ex2", GOLDEN_STARTS, lambda s, x: integrate(s, x, 20.0),
        "eff82d239f473ef8d40eaf1159fc5f303abadd13cdd02d09a66ea74caea054a9"),
    "integrate-example2-7.3e-3": (
        "ex2", GOLDEN_STARTS,
        lambda s, x: integrate(s, x, 20.0, SolverOptions(step=7.3e-3)),
        "db5c1b7c98dc76606bcf6f75d8c5a286ae94087daf672418ada1e1f283906bff"),
    "pairwise-pool-example1": (
        "ex1", _pool, lambda s, x: integrate(s, x, 10.0),
        "bf7102310f5e453d83faad0aee5a2fb6600d129c2a1b53dbabb8d033dfb4244a"),
    "regularized-example1-1e-2": (
        "ex1", GOLDEN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 20.0),
        "6f93cd293fc291158ad198dc29df64e358d7a0fa13995f7b2e8cdcd5e7470953"),
    "regularized-example2-1e-2": (
        "ex2", GOLDEN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 20.0),
        "44680749fb096bd4c3304a40f17f02b34802d9777b8f320b439b52a76e043f01"),
    "integrate-chain4": (
        "chain4", CHAIN_STARTS, lambda s, x: integrate(s, x, 3.0),
        "c77babc0eca41a7e3994ad5b47803dde3a39f0bf9e0d9819caf66b46a7af4301"),
    "regularized-chain4-1e-2": (
        "chain4", CHAIN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 3.0),
        "ce01505fe79ebd50cf3552bf33db50285e989829f18f8e89fee8493b8e662b9f"),
    "integrate-chain3d": (
        "chain3d", STARTS_3D, lambda s, x: integrate(s, x, 3.0),
        "e2a191d8ea93ef74b8edf7ec29429f633d8ff56a24a773f45f364fc93d5d31b1"),
    "regularized-chain3d-1e-2": (
        "chain3d", STARTS_3D, lambda s, x: integrate_regularized(s, 1e-2, x, 3.0),
        "c42f49e1a57abee9d8377966698d1e273f425636e8fb6545436c279f90017b6e"),
    # the handle copies take the stepwise code of every mode or surface that
    # is not affine; by T = 1.5 the eight runs hold 4 slides and 4 crossings
    # on example1 and 2 slides and 7 crossings on example2
    "integrate-handle-example1": (
        "handle_ex1", GOLDEN_STARTS, lambda s, x: integrate(s, x, 1.5),
        "ad14433bda3591198f6987ad9ebdfdcb2126336376b91148d41ba6515c18fcec"),
    "regularized-handle-example1-1e-2": (
        "handle_ex1", GOLDEN_STARTS,
        lambda s, x: integrate_regularized(s, 1e-2, x, 1.5),
        "8e7f93fb42a5c08271d839097d4c76810d01ecf3da936e46f890344facf8dfbc"),
    "integrate-handle-manifold-example2": (
        "handle_manifold_ex2", GOLDEN_STARTS, lambda s, x: integrate(s, x, 1.5),
        "932812cfec62190ea854b822275a796bc629d65c68bbefb683a4caae75e11fac"),
    "regularized-handle-manifold-example2-1e-2": (
        "handle_manifold_ex2", GOLDEN_STARTS,
        lambda s, x: integrate_regularized(s, 1e-2, x, 1.5),
        "663b9a637dd632e46ad8ad54711000b16d47f94a2d208571c79886596cfcdec0"),
}


def trajectory_digest(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        for a in (traj.times, traj.states, traj.lambdas, traj.seg_index):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TRAJECTORY_CASES))
def test_trajectory_digest(request, name):
    fixture, starts, run, digest = TRAJECTORY_CASES[name]
    system = request.getfixturevalue(fixture)
    if callable(starts):
        starts = starts(system)
    assert trajectory_digest(run(system, np.array(x0)) for x0 in starts) == digest
