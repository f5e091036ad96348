"""Model-based testing of cyclic real-time control logic.

The pipeline: parse a decision-logic model, split its temporal conditions
into atomic predicates, derive generalized abstract states from the branch
test cases, traverse the implicitly defined automaton against a subject
behind a set-/get-mediator exchange, judge every cycle with a
design-by-contract oracle, and measure structural coverage of the model.
"""

from .contracts import Specification, SpecificationState, Verdict, VerdictKind
from .coverage import CoverageReport
from .dsl import (
    ExtractionResult,
    ModelAst,
    ModelError,
    ParseError,
    TemporalPredicateDecl,
    check_model,
    extract_predicates,
    parse_model,
    print_model,
    rescale_durations,
)
from .interp import DecisionTrace, eval_model
from .kernel import CycleRecord, Kernel, KernelConfig
from .mediator import (
    CycleObservation,
    InProcessLink,
    MediatorError,
    StdioLink,
    TcpLink,
    WireMessage,
    sync_state,
)
from .reduction import (
    PathCondition,
    Projection,
    enumerate_reachable_flag_states,
    enumerate_test_cases,
    generalized_state,
    input_feasible_leaves,
    make_piecemeal,
    project_to_state,
)
from .temporal import HoldTable
from .traversal import (
    BudgetExceeded,
    ExploredAutomaton,
    NondeterminismDetected,
    Scenario,
    StrandedPendingActions,
    TestLog,
    export_dot,
    traverse,
)

__version__ = "0.1.0"
