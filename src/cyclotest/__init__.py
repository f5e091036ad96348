"""Model-based testing of cyclic real-time control logic.

The pipeline: parse a decision-logic model, split its temporal conditions
into atomic predicates, derive generalized abstract states from the branch
test cases, traverse the implicitly defined automaton against a subject
behind a set-/get-mediator exchange, judge every cycle with a
design-by-contract oracle, and measure structural coverage of the model.
"""
