import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py

import cyclotest
from cyclotest.cli import RunConfig, run_campaign
from cyclotest.dsl import extract_predicates
from cyclotest.iron import iron_model, iron_source

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


# two models whose names are those of the generated judge and observation
# check (their parameters, locals, globals and the builtins they call), but
# for the keywords 'state' and 'int'
CLASH_SRC = """\
model clash {
  input inputs: bool;
  input get: int 0..2;
  input v: int 1..3;
  input v0: bool;
  output outputs: int 0..2;
  output type: bool;
  state isinstance: int 0..2 readable = 0;
  state range: bool readable = 0;
  state len: bool hidden = 0;

  logic {
    if (get == v || held(v0 && !len, 1ms)) {
      outputs = get;
      type = inputs;
      isinstance = get;
      range = 1;
    } else {
      outputs = isinstance;
      type = range;
      len = v0;
    }
  }
}
"""


JUDGE_CLASH_SRC = """\
model judge {
  input spec: bool;
  input admitted: int 0..2;
  input key: bool;
  input exc: bool;
  output obs: int 0..2;
  output step: bool;
  output rest: bool;
  output new: bool;
  output sys_time_ms: bool;
  output PASS: bool;
  output Verdict: bool;
  output MediatorError: bool;
  output CycleObservation: bool;
  state last: int 0..2 readable = 0;
  state link: bool readable = 0;
  state o0: bool readable = 0;
  state s0: bool hidden = 0;
  state cycle: bool hidden = 0;

  logic {
    if (spec && held(key && !s0, 2s)) {
      obs = admitted;
      step = link;
      rest = o0;
      new = cycle;
      last = admitted;
      link = key;
      sys_time_ms = spec;
      PASS = exc;
      Verdict = key;
      MediatorError = o0;
      CycleObservation = cycle;
    } else {
      obs = last;
      step = s0;
      rest = exc;
      new = link;
      o0 = spec;
      s0 = exc;
      cycle = o0;
      sys_time_ms = exc;
      PASS = key;
      Verdict = spec;
      MediatorError = link;
      CycleObservation = s0;
    }
  }
}
"""


@pytest.fixture
def subject_env(monkeypatch):
    # a stdio subject started by this process runs this checkout's sources
    src = str(Path(cyclotest.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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


def desk_config(**overrides) -> RunConfig:
    base = dict(model_path=MODEL_PATH, remap=dict(IRON_DESK_REMAP))
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def correct_run():
    return run_campaign(desk_config())
