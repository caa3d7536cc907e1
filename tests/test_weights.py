"""Variable weights against a naive unit-closure oracle.

`variable_weights` scores each variable by the unit-propagation closures of
its two literals. The oracle in `oracles.py` recomputes every closure from
scratch by repeated passes over the clauses; the library answers all of
them on one solver engine, so these tests also pin that it builds only one.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satdecomp.solver
from satdecomp.formula import CnfFormula
from satdecomp.instances import pigeonhole
from satdecomp.search import variable_weights

from conftest import sat_corpus, unsat_corpus
from oracles import naive_variable_weights


@st.composite
def formulas(draw):
    """Formulas of 0-14 variables with clauses of width 1-4, enough units
    that root conflicts are common, and now and then the empty clause."""
    nv = draw(st.integers(0, 14))
    clauses = {}
    if nv:
        for _ in range(draw(st.integers(0, 20))):
            width = min(nv, draw(st.sampled_from((1, 2, 2, 3, 3, 3, 4, 4))))
            variables = draw(
                st.lists(st.integers(1, nv), min_size=width, max_size=width, unique=True)
            )
            signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
            cl = tuple(v if s else -v for v, s in zip(variables, signs))
            clauses.setdefault(tuple(sorted(cl)), cl)
    if draw(st.integers(0, 9)) == 0:
        clauses[()] = ()
    return CnfFormula(nv, tuple(clauses.values()))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_weights_equal_the_naive_closure_oracle(f):
    assert variable_weights(f) == naive_variable_weights(f)


@pytest.mark.parametrize(
    "f", [f for _, f in unsat_corpus() + sat_corpus()],
    ids=[name for name, _ in unsat_corpus() + sat_corpus()],
)
def test_corpus_weights_equal_the_oracle(f):
    assert variable_weights(f) == naive_variable_weights(f)


def test_weights_build_one_engine(monkeypatch):
    calls = []
    init = satdecomp.solver._Engine.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(satdecomp.solver._Engine, "__init__", counting)
    variable_weights(pigeonhole(4, 3))
    assert len(calls) == 1
