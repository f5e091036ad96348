import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py

from cyclotest.cli import RunConfig, run_campaign
from cyclotest.dsl import extract_predicates
from cyclotest.iron import iron_model, iron_source
from cyclotest.reduction import derive_projections

IRON_DESK_REMAP = {60_000: 3, 900_000: 5}  # cycles at a 1 s period
MODEL_PATH = str(Path(__file__).resolve().parent.parent / "src/cyclotest/models/iron.ctl")


@pytest.fixture(scope="session")
def iron_src():
    return iron_source()


@pytest.fixture(scope="session")
def iron_ast():
    return iron_model()


@pytest.fixture(scope="session")
def iron_desk():
    return iron_model(desk_scale=True)


@pytest.fixture(scope="session")
def iron_extraction(iron_ast):
    return extract_predicates(iron_ast)


@pytest.fixture(scope="session")
def desk_extraction(iron_desk):
    return extract_predicates(iron_desk)


@pytest.fixture(scope="session")
def desk_projections(desk_extraction):
    return derive_projections(desk_extraction)


def desk_config(**overrides) -> RunConfig:
    base = dict(model_path=MODEL_PATH, remap=dict(IRON_DESK_REMAP))
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def correct_run():
    return run_campaign(desk_config())
