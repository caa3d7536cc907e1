"""The branch kernel against the two-call reference path.

evaluate_branch builds the residual's engine once, copied from the
formula's template, runs root propagation once on it and searches on from
there within the conflict limit; a zero limit (PROBE_ONLY) stops after the
probe. The reference rebuilds the same state with the public functions:
propagate_only(residual) and then, on an undecided branch,
solve(residual, cfg). Everything they report must agree exactly.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp.formula import CnfFormula, evaluate, substitute
from satdecomp.instances import pigeonhole
from satdecomp.solver import (
    CDCL,
    DECIDED_SAT,
    DECIDED_UNSAT,
    LIMIT,
    PROBE_ONLY,
    SAT,
    UNDECIDED,
    UNSAT,
    UP_DECIDED,
    SolverConfig,
    evaluate_branch,
    propagate_only,
    solve,
)

from test_formula import formula_and_assignment


@st.composite
def dense_formula_and_assignment(draw):
    """Near-threshold random 3-CNF with a short branch: CDCL search, UNSAT
    refutations and conflict limits show up often."""
    nv = draw(st.integers(min_value=5, max_value=10))
    n_clauses = draw(st.integers(min_value=3 * nv, max_value=6 * nv))
    lit = st.integers(min_value=1, max_value=nv).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    clauses = {}
    for _ in range(n_clauses):
        cl = draw(st.lists(lit, min_size=3, max_size=3, unique_by=abs))
        clauses.setdefault(tuple(sorted(cl)), tuple(cl))
    f = CnfFormula(nv, tuple(clauses.values()))
    domain = draw(st.lists(st.integers(min_value=1, max_value=nv), max_size=3, unique=True))
    values = draw(st.lists(st.booleans(), min_size=len(domain), max_size=len(domain)))
    return f, dict(zip(domain, values))


branches = st.one_of(formula_and_assignment(), dense_formula_and_assignment())

CONFIGS = {
    "default": SolverConfig(),
    "proof_logging": SolverConfig(proof_logging=True),
    "conflict_limit_1": SolverConfig(conflict_limit=1),
}


def reference(formula, beta, cfg):
    """(tier, verdict, propagations, conflicts, model), plus the proof
    steps on the CDCL tier."""
    residual = substitute(formula, beta)
    probe = propagate_only(residual)
    if probe.status == DECIDED_UNSAT:
        return (UP_DECIDED, UNSAT, probe.propagations, 0, None)
    if probe.status == DECIDED_SAT:
        return (UP_DECIDED, SAT, probe.propagations, 0, probe.assignment)
    out = solve(residual, cfg=cfg)
    steps = out.proof.steps if out.proof is not None else None
    return (CDCL, out.verdict, out.propagations, out.conflicts, out.model, steps)


def kernel_row(out, with_proof):
    row = (out.tier, out.verdict, out.propagations, out.conflicts, out.model)
    if not with_proof:
        return row
    return row + (out.proof.steps if out.proof is not None else None,)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=75, deadline=None)
@given(fa=branches)
def test_up_first_matches_probe_then_solve(name, fa):
    f, beta = fa
    cfg = CONFIGS[name]
    want = reference(f, beta, cfg)
    got = kernel_row(evaluate_branch(f, beta, cfg), with_proof=want[0] == CDCL)
    assert got == want


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=75, deadline=None)
@given(fa=branches)
def test_plain_matches_solve(name, fa):
    # solve runs the kernel too; it reports CDCL and a total model, the
    # probe's partial one with every open variable decided false
    f, beta = fa
    cfg = CONFIGS[name]
    residual = substitute(f, beta)
    out = solve(residual, cfg=cfg)
    got = evaluate_branch(f, beta, cfg)
    assert out.tier == CDCL
    assert (out.verdict, out.propagations, out.conflicts) == (
        got.verdict, got.propagations, got.conflicts
    )
    assert out.proof == got.proof
    if out.verdict == SAT:
        assert sorted(out.model) == list(range(1, f.num_vars + 1))
        assert out.model == {v: got.model.get(v, 0) for v in out.model}
        assert evaluate(residual, out.model)
    else:
        assert out.model is got.model is None


@settings(max_examples=150, deadline=None)
@given(fa=branches)
def test_probe_only_matches_propagate_only(fa):
    f, beta = fa
    probe = propagate_only(substitute(f, beta))
    got = evaluate_branch(f, beta, PROBE_ONLY)
    assert got.propagations == probe.propagations
    assert got.conflicts == 0
    if probe.status == UNDECIDED:
        assert (got.tier, got.verdict, got.model) == (CDCL, LIMIT, None)
    else:
        assert got.tier == UP_DECIDED
        assert got.verdict == (SAT if probe.status == DECIDED_SAT else UNSAT)


@settings(max_examples=300, deadline=None)
@given(fa=branches)
def test_substitute_output_revalidates_equal(fa):
    f, beta = fa
    r = substitute(f, beta)
    rebuilt = CnfFormula(r.num_vars, r.clauses)
    assert rebuilt == r
    assert hash(rebuilt) == hash(r)


def test_conflict_limit_reaches_search():
    f = pigeonhole(4, 3)
    out = evaluate_branch(f, {}, SolverConfig(conflict_limit=1))
    assert (out.tier, out.verdict, out.conflicts) == (CDCL, LIMIT, 1)
    out = evaluate_branch(f, {}, PROBE_ONLY)
    assert (out.tier, out.verdict, out.conflicts) == (CDCL, LIMIT, 0)


def test_negative_conflict_limit_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        SolverConfig(conflict_limit=-1)
