import json

import pytest

from pwscontract.model import builtin_config_path, load_system, load_system_file


@pytest.fixture(scope="session")
def ex1():
    return load_system_file(builtin_config_path("example1"))


@pytest.fixture(scope="session")
def ex2():
    return load_system_file(builtin_config_path("example2"))


def make_system(doc: dict):
    return load_system(json.dumps(doc))


@pytest.fixture(scope="session")
def single_mode():
    return make_system({
        "dimension": 2,
        "topology": "chain",
        "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
        "manifolds": [],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


@pytest.fixture(scope="session")
def swapped_ex1():
    # modes 1 and 2 of the first example exchanged: the sliding band of the
    # original becomes an escaping band
    return make_system({
        "dimension": 2,
        "topology": "chain",
        "modes": [
            {"A": [[-2.0, 1.0], [0.0, -1.0]], "b": [1.0, 0.0]},
            {"A": [[-1.0, 1.0], [0.0, -1.0]], "b": [3.0, 0.0]},
        ],
        "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


@pytest.fixture(scope="session")
def chain4():
    # four contracting modes pushing toward the middle manifold x1 = 0, which
    # therefore carries a sliding segment ending in a Filippov equilibrium
    eye = [[-1.0, 0.0], [0.0, -1.0]]
    return make_system({
        "dimension": 2, "topology": "chain",
        "modes": [{"A": eye, "b": [3.0, 0.0]},
                  {"A": eye, "b": [1.0, 0.0]},
                  {"A": eye, "b": [-1.0, 0.0]},
                  {"A": eye, "b": [-3.0, 0.0]}],
        "manifolds": [{"c": [1.0, 0.0], "d": -2.0},
                      {"c": [1.0, 0.0], "d": 0.0},
                      {"c": [1.0, 0.0], "d": 2.0}],
        "box": {"lower": [-6, -6], "upper": [6, 6]},
    })


@pytest.fixture(scope="session")
def chain3d():
    eye3 = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
    return make_system({
        "dimension": 3, "topology": "chain",
        "modes": [{"A": eye3, "b": [1.0, 0.0, 1.0]},
                  {"A": eye3, "b": [-1.0, 0.0, 1.0]}],
        "manifolds": [{"c": [1.0, 0.0, 0.0], "d": 0.0}],
        "box": {"lower": [-5, -5, -5], "upper": [5, 5, 5]},
    })
