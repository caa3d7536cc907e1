"""Branch engines copied from a formula's template against the residual.

evaluate_branch no longer builds substitute(formula, beta): it copies the
formula's template and patches the clauses beta touches. Its clause
database, dead slots skipped, must equal that of an engine built on the
residual, clause for clause, watch list for watch list, and the branch must
report what the reference path (substitute, propagate_only, solve) reports.
"""
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp import solver
from satdecomp.formula import CnfError, CnfFormula, substitute
from satdecomp.instances import pigeonhole, random_cnf
from satdecomp.solver import (
    CDCL,
    SAT,
    UNSAT,
    UP_DECIDED,
    SolverConfig,
    evaluate_branch,
    solve,
)

from test_branch_kernel import CONFIGS, kernel_row, reference


def database(eng):
    """(clauses, watches, units) with dead slots skipped and clause ids
    renumbered in order; None for a trivially unsatisfiable engine."""
    if not eng.ok:
        return None
    live = [ci for ci in range(eng.n_original) if eng.clauses[ci] is not None]
    rank = {ci: r for r, ci in enumerate(live)}
    return (
        [eng.clauses[ci] for ci in live],
        [[rank[ci] for ci in wl] for wl in eng.watches],
        [(lit, rank[ci]) for lit, ci in eng._init_units],
    )


def check_branch(f, beta):
    cfg = SolverConfig()
    residual = solver._Engine(substitute(f, beta), cfg)
    assert database(solver._Engine(f, cfg, beta)) == database(residual)
    for cfg in CONFIGS.values():
        want = reference(f, beta, cfg)
        got = kernel_row(evaluate_branch(f, beta, cfg), with_proof=want[0] == CDCL)
        assert got == want


CASES = {
    # (1 2 3) loses 1 and equals the later (2 3), which dies
    "shortened_equals_later": (CnfFormula(3, ((1, 2, 3), (-2, 3), (2, 3), (-3, -2))), {1: 0}),
    # (1 3 2) loses 1 and equals the earlier (2 3); it dies itself
    "shortened_equals_earlier": (CnfFormula(3, ((2, 3), (-2, 3), (1, 3, 2), (-3, -2))), {1: 0}),
    # (1 2 3) and (3 -4 2) both shorten to {2, 3}; the first one stays
    "shortened_pair_collides": (
        CnfFormula(4, ((1, 2, 3), (-2, -3), (3, -4, 2), (-3, 2))), {1: 0, 4: 1}
    ),
    # (1 -2) becomes the unit -2 between watched clauses, after the unit 3
    "unit_between_watched": (
        CnfFormula(4, ((3,), (2, 3, 4), (1, -2), (-3, -4), (2, 4))), {1: 0}
    ),
    "every_clause_satisfied": (CnfFormula(3, ((1, 2), (1, -3), (-2, 3, 1))), {1: 1}),
    "empty_beta": (pigeonhole(3, 2), {}),
    "search_on_residual": (pigeonhole(4, 3), {1: 0, 5: 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_residual(name):
    f, beta = CASES[name]
    check_branch(f, beta)


def test_shortened_clause_replaces_later_duplicate():
    f, beta = CASES["shortened_equals_later"]
    eng = solver._Engine(f, SolverConfig(), beta)
    assert eng.clauses[:4] == [[2, 3], [-2, 3], None, [-3, -2]]
    assert 2 not in eng.watches[solver._widx(2)] + eng.watches[solver._widx(3)]


def test_emptied_clause_is_trivially_unsat():
    f = CnfFormula(3, ((2, 3), (1,), (-2, 3)))
    assert substitute(f, {1: 0}).clauses == ((),)
    cfg = SolverConfig(proof_logging=True)
    kernel = evaluate_branch(f, {1: 0}, cfg)
    plain = solve(substitute(f, {1: 0}), cfg=cfg)
    for out, tier in ((kernel, UP_DECIDED), (plain, CDCL)):
        assert (out.tier, out.verdict, out.propagations, out.conflicts, out.model) == (
            tier, UNSAT, 0, 0, None
        )
        assert out.proof.steps == (("add", ()),)
    check_branch(f, {1: 0})


def test_every_clause_satisfied_is_up_sat():
    f, beta = CASES["every_clause_satisfied"]
    out = evaluate_branch(f, beta)
    assert (out.tier, out.verdict, out.propagations, out.model) == (UP_DECIDED, SAT, 0, {})


@st.composite
def narrow_formula_and_assignment(draw):
    """At most four variables and up to ten clauses, so that residual
    clauses often coincide with each other or with untouched ones."""
    nv = draw(st.integers(min_value=1, max_value=4))
    lit = st.integers(min_value=1, max_value=nv).flatmap(lambda v: st.sampled_from((v, -v)))
    raw = draw(st.lists(st.lists(lit, min_size=1, max_size=nv, unique_by=abs), max_size=10))
    clauses = {tuple(sorted(cl)): tuple(cl) for cl in raw}
    f = CnfFormula(nv, tuple(clauses.values()))
    domain = draw(st.lists(st.integers(min_value=1, max_value=nv), max_size=nv, unique=True))
    values = draw(st.lists(st.sampled_from((0, 1)), min_size=len(domain), max_size=len(domain)))
    return f, dict(zip(domain, values))


@settings(max_examples=300, deadline=None)
@given(fa=narrow_formula_and_assignment())
def test_narrow_branches_match_residual(fa):
    check_branch(*fa)


@pytest.mark.parametrize("beta", [{7: 1}, {0: 1}, {1: 2}])
def test_bad_beta_rejected_before_any_engine(monkeypatch, beta):
    def no_engine(*args):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(solver, "_Engine", no_engine)
    with pytest.raises(CnfError):
        evaluate_branch(pigeonhole(3, 2), beta)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled):
    f = pigeonhole(3, 2)
    want = reference(f, {1: 1}, SolverConfig())
    try:
        gc.enable() if enabled else gc.disable()
        out = evaluate_branch(f, {1: 1})
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert kernel_row(out, with_proof=want[0] == CDCL) == want


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_when_the_engine_raises(monkeypatch, enabled):
    during = []

    def failing(*args):
        during.append(gc.isenabled())
        raise RuntimeError("engine failed")

    monkeypatch.setattr(solver, "_Engine", failing)
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError):
            evaluate_branch(pigeonhole(3, 2), {1: 1})
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]


def test_template_cache_never_goes_stale():
    a = pigeonhole(3, 2)
    b = random_cnf(a.num_vars, 14, 3, seed=1)
    a_copy = CnfFormula(a.num_vars, a.clauses)
    betas = [{1: 1, 4: 0}, {2: 0}, {}]
    sequence = [a, b, a, a_copy, b]
    want = [reference(f, beta, SolverConfig()) for f in sequence for beta in betas]
    got = []
    for f in sequence:
        for beta in betas:
            out = evaluate_branch(f, beta)
            got.append(kernel_row(out, with_proof=out.tier == CDCL))
    assert got == want
    assert solver._cached[0] is b
