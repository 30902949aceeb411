"""SHA-256 of the data outputs (CSV and report JSON, not manifests) of the
README commands, of `certify` on both examples with both strategies, of
`search-q` on both examples with the default bracket, and of
`reproduce 1/2`, run in-process; and of the raw trajectory arrays (times,
states, lambdas, seg_index) of `integrate` and `integrate_regularized` runs
on the shipped examples, their handle-mode and handle-manifold copies, and
the extended chains. A refactor that keeps
behaviour keeps these bytes. The digests were taken with numpy 2.4 on
x86-64; another BLAS or CPU may round a matrix product differently and
change them.

Run as a script, with the package importable (installed, or with
PYTHONPATH=src), the file prints the current digest of every case, marks
the ones that differ from the recorded digest, and exits 1 when any does:

    python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
import sys

import numpy as np
import pytest

from pwscontract.cli import main
from pwscontract.filippov import SolverOptions, integrate
from pwscontract.model import builtin_config_path, load_system_file
from pwscontract.regularize import integrate_regularized

from conftest import (
    CHAIN3D,
    CHAIN4,
    CHAIN_STARTS,
    CORNER_STARTS,
    GOLDEN_STARTS,
    STARTS_3D,
    handle_copy,
    handle_manifold_copy,
    make_system,
)

README_SWEEP = "1e-1,3e-2,1e-2,3e-3,1e-3"

CASES = {
    "simulate": (["simulate", "--config", "example1", "--x0", "-3,-4",
                  "--t-final", "20"],
                 "0deb992d3f1728870fce419439026fd8c8f48bd36b17dd22648c327ac154b794"),
    "regularize": (["regularize", "--config", "example1", "--x0", "-3,-4",
                    "--t-final", "20", "--eps", README_SWEEP],
                   "ae72a2ffd5686adcb02e4081de05b9fe7a36853a0fc012bed58f8b397bf7442c"),
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
    "search-q-1": (["search-q", "--config", "example1"],
                   "fe207ec48195816fc63fb7b248557ed8547693ecefe117efebb35a92387555e8"),
    "search-q-2": (["search-q", "--config", "example2"],
                   "8fa5c6f7150ddd998b5dbd9888743da526e5ad78658a894a5a465c5eab771927"),
}


def data_output_digest(name, out) -> str:
    """SHA-256 of the data output of CASES[name], written to the path out."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*CASES[name][0], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_data_output_digest(tmp_path, name):
    assert data_output_digest(name, tmp_path / "out") == CASES[name][1]


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
        "dadb19c485976aa3507161169daaee10a871c5b36d22bf0e5f6b98025ff46943"),
    "integrate-example1-7.3e-3": (
        "ex1", GOLDEN_STARTS,
        lambda s, x: integrate(s, x, 20.0, SolverOptions(step=7.3e-3)),
        "8eda74423a6a030fc22b417147c7d68db7e4921fa2ca7979019356d014befe71"),
    "integrate-example2-1e-3": (
        "ex2", GOLDEN_STARTS, lambda s, x: integrate(s, x, 20.0),
        "08b5c5025c7c905e800e8fecc033e7711ee60900bb8fbd305e054315758a597a"),
    "integrate-example2-7.3e-3": (
        "ex2", GOLDEN_STARTS,
        lambda s, x: integrate(s, x, 20.0, SolverOptions(step=7.3e-3)),
        "028a9dec6d81e088302b604eba435fa0651797032d0c4c5462557e714f23af87"),
    "pairwise-pool-example1": (
        "ex1", _pool, lambda s, x: integrate(s, x, 10.0),
        "19f9d78a2dc50d05eb91c91edb4919b6e5c386af13dae9f2bc7571afd681fd90"),
    "pairwise-pool-example2": (
        "ex2", _pool, lambda s, x: integrate(s, x, 5.0),
        "9d23a4e6c173fdccab25bea413f49e8475ed5329df7c39794f04087ae664da25"),
    "regularized-example1-1e-2": (
        "ex1", GOLDEN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 20.0),
        "b99db9fb0041b75d294f26fb645f23f2cbc5c06daf493a7979779033b46fb679"),
    "regularized-example2-1e-2": (
        "ex2", GOLDEN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 20.0),
        "f2fdf658b3d50406451995450832f38f8ffe4bf7f777dff494ec80448f4fd239"),
    "regularized-example2-corner-1e-2": (
        "ex2", CORNER_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 3.0),
        "2a719cb9d2d78a48e24442fd06365563306c5da80d06500d09b10a6d62d18d5d"),
    "integrate-chain4": (
        "chain4", CHAIN_STARTS, lambda s, x: integrate(s, x, 3.0),
        "310f2d8de3edc51b397b8ff4d5f3fc91b71116938e5a0c820b0572b725bd2e00"),
    "regularized-chain4-1e-2": (
        "chain4", CHAIN_STARTS, lambda s, x: integrate_regularized(s, 1e-2, x, 3.0),
        "e303d2e00949ca3df24af50183a2ee183396e1f4e8f0cddea0a762f949c434eb"),
    "integrate-chain3d": (
        "chain3d", STARTS_3D, lambda s, x: integrate(s, x, 3.0),
        "e2a191d8ea93ef74b8edf7ec29429f633d8ff56a24a773f45f364fc93d5d31b1"),
    "regularized-chain3d-1e-2": (
        "chain3d", STARTS_3D, lambda s, x: integrate_regularized(s, 1e-2, x, 3.0),
        "609e5054820b8ce1d93e0602ee99e40b87efe3821079876151dca45389d482a7"),
    # the handle copies take the stepwise code of every mode or surface that
    # is not affine; by T = 1.5 the eight runs hold 4 slides and 4 crossings
    # on example1 and 2 slides and 7 crossings on example2
    "integrate-handle-example1": (
        "handle_ex1", GOLDEN_STARTS, lambda s, x: integrate(s, x, 1.5),
        "e40cf988c3cdf37b907da0c17df1bde02aecae86d67a8f8204f976e9045579ea"),
    "regularized-handle-example1-1e-2": (
        "handle_ex1", GOLDEN_STARTS,
        lambda s, x: integrate_regularized(s, 1e-2, x, 1.5),
        "c3b27c01b47bea9121a54837046fbc23309e498c1cf3b7ab5408dcdf88e32a7b"),
    "integrate-handle-manifold-example2": (
        "handle_manifold_ex2", GOLDEN_STARTS, lambda s, x: integrate(s, x, 1.5),
        "e9f2de518a8055376b6bcf6b99253d138853759795db25e23baaeeb64546fe7b"),
    "regularized-handle-manifold-example2-1e-2": (
        "handle_manifold_ex2", GOLDEN_STARTS,
        lambda s, x: integrate_regularized(s, 1e-2, x, 1.5),
        "692a1db2a83c6904354f64a53ca7a53925c9c9f35f90a7071f24012de92b2a31"),
}


def trajectory_digest(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        for a in (traj.times, traj.states, traj.lambdas, traj.seg_index):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def case_digest(name, system) -> str:
    """The trajectory digest of TRAJECTORY_CASES[name] run on system."""
    _, starts, run, _ = TRAJECTORY_CASES[name]
    if callable(starts):
        starts = starts(system)
    return trajectory_digest(run(system, np.array(x0)) for x0 in starts)


@pytest.mark.parametrize("name", list(TRAJECTORY_CASES))
def test_trajectory_digest(request, name):
    fixture, _, _, digest = TRAJECTORY_CASES[name]
    assert case_digest(name, request.getfixturevalue(fixture)) == digest


def print_digests() -> int:
    """Print every case's current digest, "changed" where it differs from
    the recorded one; the number of changed cases."""
    import tempfile
    from pathlib import Path

    ex1, ex2 = (load_system_file(builtin_config_path(f"example{k}")) for k in (1, 2))
    systems = {"ex1": ex1, "ex2": ex2, "chain4": make_system(CHAIN4),
               "chain3d": make_system(CHAIN3D), "handle_ex1": handle_copy(ex1),
               "handle_manifold_ex2": handle_manifold_copy(ex2)}
    with tempfile.TemporaryDirectory() as tmp:
        current = {name: (data_output_digest(name, Path(tmp) / "out"), digest)
                   for name, (_, digest) in CASES.items()}
    current.update((name, (case_digest(name, systems[fixture]), digest))
                   for name, (fixture, _, _, digest) in TRAJECTORY_CASES.items())
    for name, (now, recorded) in current.items():
        print(f"{name:44s} {now}{'' if now == recorded else '  changed'}")
    return sum(now != recorded for now, recorded in current.values())


if __name__ == "__main__":
    sys.exit(1 if print_digests() else 0)
