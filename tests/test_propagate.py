"""The engine's propagate loop against the plain reference loop.

Two engines are built on the same formula and branch: one propagates with
the engine's own loop, the other with oracles.reference_propagate. Both go
through the same random sequence of preload, decide, propagate, learn
(after conflict analysis) and cancel_until. After every step they must hold
the same trail, reasons, levels, clause literal order, watch lists and
propagation count, and propagate must return the same conflict id.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp import solver
from satdecomp.solver import SolverConfig

from oracles import reference_propagate
from test_branch_kernel import dense_formula_and_assignment


class ReferenceEngine(solver._Engine):
    def propagate(self) -> int:
        return reference_propagate(self)


def state(eng):
    return (
        eng.ok, eng.trail, eng.trail_lim, eng.qhead, eng.assigns, eng.reasons,
        eng.levels, eng.clauses, eng.watches, eng.propagations,
    )


@st.composite
def runs(draw):
    """A near-threshold random 3-CNF and a short branch (so patched engines
    are covered too), preload assumptions and a sequence of (operation,
    argument) steps."""
    f, beta = draw(dense_formula_and_assignment())
    nv = f.num_vars
    assumptions = draw(st.dictionaries(
        st.integers(min_value=1, max_value=nv), st.sampled_from((0, 1)), max_size=2
    ))
    assumptions = {v: val for v, val in assumptions.items() if v not in beta}
    steps = draw(st.lists(
        st.tuples(
            # decide, propagate and learn drawn twice as often as backtracking
            st.sampled_from(("decide", "propagate", "learn") * 2 + ("cancel_until",)),
            st.integers(min_value=0, max_value=nv),
        ),
        min_size=20,
        max_size=60,
    ))
    return f, beta, assumptions, steps


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_propagate_matches_the_reference_loop(run):
    f, beta, assumptions, steps = run
    cfg = SolverConfig()
    new = solver._Engine(f, cfg, beta)
    ref = ReferenceEngine(f, cfg, beta)
    engines = (new, ref)
    ok = [eng.preload(assumptions) for eng in engines]
    assert ok[0] == ok[1]
    assert state(new) == state(ref)
    if not ok[0]:
        return
    confl = -1  # the pending conflict of the last propagate
    for op, arg in steps:
        if op == "decide":
            # decisions only at a conflict-free fixpoint with a variable open
            if confl != -1 or new.qhead < len(new.trail) or len(new.trail) == new.nv:
                continue
            for eng in engines:
                eng.decide()
        elif op == "propagate":
            if confl != -1:
                continue
            got = [eng.propagate() for eng in engines]
            assert got[0] == got[1]
            confl = got[0]
            if confl != -1 and not new.trail_lim:
                break  # a root conflict: the run is refuted
        elif op == "learn":
            if confl == -1:
                continue
            for eng in engines:
                eng.learn(*eng.analyze(confl))
            confl = -1
        else:
            level = arg % (len(new.trail_lim) + 1)
            if level == len(new.trail_lim):
                continue
            for eng in engines:
                eng.cancel_until(level)
            confl = -1
        assert state(new) == state(ref)
    assert state(new) == state(ref)
