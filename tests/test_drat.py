"""check_drat against the independent naive-propagation oracle.

Proofs mix the solver's own lemmas with spliced-in additions and
deletions: repeated literals, tautologies, deletions of root units the
trail relies on, of the empty clause and of clauses not in the database.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp.formula import CnfFormula
from satdecomp.solver import UNSAT, DratProof, SolverConfig, check_drat, solve

from oracles import naive_check_drat

import conftest

OUT_OF_RANGE = "clause names a variable outside the formula"


def verdicts(f, text):
    proof = DratProof.from_text(text)
    chk = check_drat(f, proof)
    return (chk.ok, chk.failed_step), naive_check_drat(f, proof.steps)


CHAIN = CnfFormula(3, ((1,), (-1, 2), (-2, 3)))
TRIANGLE = CnfFormula(3, ((1, 2), (-1, 3), (-1, -3)))
FORK = CnfFormula(4, ((1,), (2, 3), (2, -3), (-2, 4), (-2, -4)))


@pytest.mark.parametrize(
    "f, text, expected",
    [
        # the root trail 1, 2, 3 rests on the unit (1)
        (CHAIN, "3 0\n0\n", (False, 1)),
        (CHAIN, "d 1 0\n3 0\n", (False, 1)),
        (CHAIN, "d -1 2 0\n3 0\n", (False, 1)),
        (CHAIN, "-1 3 0\nd -2 3 0\nd 1 0\n-1 3 0\n", (False, 3)),
        (CHAIN, "d -3 0\n-1 0\n0\n", (False, 1)),
        # the empty clause, present and deleted
        (CnfFormula(2, ((), (1, 2))), "0\n", (True, None)),
        (CnfFormula(2, ((), (1, 2))), "d 0\n0\n", (False, 1)),
        (CnfFormula(2, ((), (1, 2))), "-1 0\nd 0\n0\n", (False, 2)),
        # a lemma the root makes unit, then its deletion
        (TRIANGLE, "-1 0\n2 0\nd -1 0\n2 0\n", (False, 3)),
        (TRIANGLE, "-1 0\nd -1 3 0\nd -1 0\n2 0\n", (False, 3)),
        # the root makes a lemma unit whose false literal comes first
        (FORK, "-1 2 0\n0\n", (True, None)),
        (FORK, "-1 -1 2 0\nd -1 -1 2 0\n0\n", (False, 2)),
        # repeated literals and tautologies
        (TRIANGLE, "1 1 2 0\nd 1 2 0\n2 0\n0\n", (False, 3)),
        (TRIANGLE, "-1 -1 0\n2 2 0\n", (False, 1)),
        (TRIANGLE, "3 -3 0\nd 1 2 0\n1 -1 2 0\n", (False, 2)),
        # a second copy of a clause survives one deletion
        (CnfFormula(1, ((1,), (-1,))), "1 0\nd 1 0\n0\n", (True, None)),
        (CnfFormula(1, ((1,), (-1,))), "1 0\nd 1 0\nd 1 0\n0\n", (False, 3)),
    ],
)
def test_checker_matches_the_oracle_on_hand_cases(f, text, expected):
    got, oracle = verdicts(f, text)
    assert oracle == expected
    assert got == expected


def test_variable_outside_the_formula_is_rejected():
    f = CnfFormula(1, ((1,), (-1,)))
    assert check_drat(f, DratProof.from_text("0\n")).ok
    for text in ("5 0\n0\n", "d 7 0\n0\n", "1 -1000000000 0\n0\n"):
        chk = check_drat(f, DratProof.from_text(text))
        assert (chk.ok, chk.failed_step, chk.reason) == (False, 0, OUT_OF_RANGE)


@st.composite
def clauses(draw, nv, max_width=3, plain=True):
    width = draw(st.integers(min_value=1 if plain else 0, max_value=max_width))
    lits = draw(
        st.lists(
            st.integers(min_value=1, max_value=nv).flatmap(
                lambda v: st.sampled_from((v, -v))
            ),
            min_size=width,
            max_size=width,
            unique_by=(abs if plain else None),
        )
    )
    return tuple(lits)


@st.composite
def small_formulas(draw):
    nv = draw(st.integers(min_value=1, max_value=6))
    body = draw(st.lists(clauses(nv), max_size=24))
    unique = list({tuple(sorted(c)): c for c in body}.values())
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        unique.insert(draw(st.integers(min_value=0, max_value=len(unique))), ())
    return CnfFormula(nv, tuple(unique))


@st.composite
def formula_and_proof(draw):
    f = draw(st.one_of(
        small_formulas(), st.sampled_from([f for _, f in conftest.unsat_corpus()])
    ))
    nv = f.num_vars
    out = solve(f, cfg=SolverConfig(proof_logging=True))
    steps = list(out.proof.steps) if out.verdict == UNSAT else []
    known = list(f.clauses) + [cl for _, cl in steps] or [()]
    extra = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=max(len(steps) - 1, 0)),
        st.sampled_from(("add", "weaken", "delete", "delete_known")),
        clauses(nv, plain=False),
        st.integers(min_value=0, max_value=10**6),
    ), max_size=8))
    for pos, kind, cl, pick in sorted(extra, key=lambda e: e[0], reverse=True):
        if kind == "weaken":
            # a known clause plus literals, rotated: RUP while that clause is
            # in the database, often with a repeated literal up front
            lits = cl + known[pick % len(known)]
            k = pick % (len(lits) or 1)
            kind, cl = "add", lits[k:] + lits[:k]
        elif kind == "delete_known":
            kind, cl = "delete", tuple(reversed(known[pick % len(known)]))
        steps.insert(pos, (kind, cl))
    if not steps or draw(st.integers(min_value=0, max_value=9)) == 0:
        steps.append(("add", ()))
    return f, tuple(steps)


@settings(max_examples=400, deadline=None)
@given(formula_and_proof())
def test_checker_matches_the_oracle(case):
    f, steps = case
    chk = check_drat(f, DratProof(steps))
    assert (chk.ok, chk.failed_step) == naive_check_drat(f, steps)
