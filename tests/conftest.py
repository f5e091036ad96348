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

# a readable int state variable, an int input, and decisions that compare
# an input with the state; from level 0 only the first input valuation
# reaches leaf 'eee', and from level 3 only the last one reaches 'ett'
TANK_SRC = """\
model tank {
  input fill: int 0..2;
  input drain: bool;
  output valve: int 0..2;
  state level: int 0..3 readable = 0;

  logic {
    if (held(drain && fill == 0, 2s)) {
      if (level > fill) { level = 0; valve = 2; } else { valve = 0; }
    } else {
      if (level == 3 || held(fill == 2, 1500ms)) {
        if (drain && fill == 2) { level = 0; valve = 2; } else { level = 3; valve = 1; }
      } else {
        if (fill > level || drain) { level = fill; valve = 0; } else { valve = 1; }
      }
    }
  }
}
"""

# leaf 'tt' is unreachable only because its guard repeats the held() atom
GUARD_SRC = """\
model guard {
  input a: bool;
  input b: int 0..2;
  output o: int 0..3;

  logic {
    if (held(a, 2s)) {
      if (b == 2 && !held(a, 2s)) { o = 3; } else { o = 1; }
    } else {
      if (b > 0) { o = 2; } else { o = 0; }
    }
  }
}
"""


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
