import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp.formula import (
    CnfError,
    CnfFormula,
    check_assignment,
    evaluate,
    parse_dimacs,
    substitute,
    trivially_unsat,
    write_dimacs,
)
from satdecomp.instances import pigeonhole


def clause_set(f: CnfFormula):
    return {tuple(sorted(c)) for c in f.clauses}


class TestParse:
    def test_smallest_unsat_core(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert f.num_vars == 1
        assert clause_set(f) == {(1,), (-1,)}

    def test_comment_lines_skipped(self):
        f = parse_dimacs("p cnf 2 1\nc note\n1 -2 0\n")
        assert f.num_vars == 2
        assert clause_set(f) == {(-2, 1)}

    def test_literal_out_of_range(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_clause_split_across_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert clause_set(f) == {(1, 2, 3)}

    def test_empty_input(self):
        with pytest.raises(CnfError):
            parse_dimacs("")

    def test_missing_header(self):
        with pytest.raises(CnfError):
            parse_dimacs("1 0\n")

    def test_malformed_header(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf one 2\n1 0\n-1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_tautological_clause_rejected(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_duplicate_literal_rejected(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 1\n1 1 0\n")


class TestConstruction:
    def test_tautology_rejected(self):
        with pytest.raises(CnfError):
            CnfFormula(2, ((1, -1),))

    def test_out_of_range_var(self):
        with pytest.raises(CnfError):
            CnfFormula(1, ((2,),))

    def test_zero_literal_rejected(self):
        with pytest.raises(CnfError):
            CnfFormula(1, ((0,),))


class TestSubstitute:
    def test_one_satisfied_one_shortened(self):
        f = CnfFormula(3, ((1, 2), (-1, 3)))
        assert clause_set(substitute(f, {1: True})) == {(3,)}

    def test_immediate_contradiction(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert substitute(f, {1: True}) == trivially_unsat(1)

    def test_empty_assignment_identity(self):
        f = CnfFormula(3, ((1, 2), (-2, 3)))
        assert substitute(f, {}) == f

    def test_no_renumbering(self):
        f = CnfFormula(3, ((1, 2), (2, 3)))
        r = substitute(f, {2: False})
        assert r.num_vars == 3
        assert clause_set(r) == {(1,), (3,)}

    def test_out_of_range_assignment(self):
        f = CnfFormula(2, ((1, 2),))
        with pytest.raises(CnfError):
            substitute(f, {3: True})

    def test_int_and_bool_values_agree(self):
        f = CnfFormula(3, ((1, 2), (-1, 3)))
        assert substitute(f, {1: 1}) == substitute(f, {1: True})


class TestWrite:
    def test_unit_pair_bytes(self):
        assert write_dimacs(CnfFormula(1, ((1,), (-1,)))) == "p cnf 1 2\n1 0\n-1 0\n"

    def test_empty_formula(self):
        assert write_dimacs(CnfFormula(0, ())) == "p cnf 0 0\n"

    def test_php32_round_trip_byte_identical(self):
        text = write_dimacs(pigeonhole(3, 2))
        assert write_dimacs(parse_dimacs(text)) == text


class TestEvaluate:
    def test_satisfying_total_assignment(self):
        f = CnfFormula(2, ((1, 2), (-1, -2)))
        assert evaluate(f, {1: True, 2: False})
        assert not evaluate(f, {1: True, 2: True})

    def test_check_assignment_rejects_out_of_range(self):
        with pytest.raises(CnfError):
            check_assignment(CnfFormula(1, ((1,),)), {2: True})


@st.composite
def formulas(draw):
    nv = draw(st.integers(min_value=1, max_value=8))
    n_clauses = draw(st.integers(min_value=0, max_value=12))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=min(4, nv)))
        vs = draw(
            st.lists(
                st.integers(min_value=1, max_value=nv),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
    unique = list({tuple(sorted(c)): c for c in clauses}.values())
    return CnfFormula(nv, tuple(unique))


@st.composite
def formula_and_assignment(draw):
    f = draw(formulas())
    domain = draw(
        st.lists(
            st.integers(min_value=1, max_value=f.num_vars),
            max_size=f.num_vars,
            unique=True,
        )
    )
    values = draw(st.lists(st.booleans(), min_size=len(domain), max_size=len(domain)))
    return f, dict(zip(domain, values))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_round_trip_preserves_formula(f):
    g = parse_dimacs(write_dimacs(f))
    assert g.num_vars == f.num_vars
    assert clause_set(g) == clause_set(f)


@settings(max_examples=200, deadline=None)
@given(formula_and_assignment())
def test_substitution_monotone(fa):
    f, beta = fa
    r = substitute(f, beta)
    assert len(r.clauses) <= len(f.clauses)
    if () in r.clauses:
        assert any(set(c) <= {-v if beta[v] else v for v in beta} for c in f.clauses)
        return
    originals = [set(c) for c in f.clauses]
    for c in r.clauses:
        assert any(set(c) <= o for o in originals)


@settings(max_examples=200, deadline=None)
@given(formula_and_assignment(), st.randoms(use_true_random=False))
def test_substitution_composes_on_disjoint_domains(fa, rng):
    f, beta = fa
    items = list(beta.items())
    rng.shuffle(items)
    cut = rng.randint(0, len(items))
    b1, b2 = dict(items[:cut]), dict(items[cut:])
    once = substitute(f, beta)
    twice = substitute(substitute(f, b1), b2)
    assert clause_set(twice) == clause_set(once)
    assert twice.num_vars == once.num_vars


def _reference_substitute(f, beta):
    """Clause by clause, literal by literal: the exact clause and literal
    order the solver's counters depend on."""
    out = []
    keys = set()
    for cl in f.clauses:
        kept = []
        for lit in cl:
            val = beta.get(abs(lit))
            if val is None:
                kept.append(lit)
            elif (lit > 0) == (val == 1):
                break
        else:
            if not kept:
                return ((),)
            if tuple(sorted(kept)) not in keys:
                keys.add(tuple(sorted(kept)))
                out.append(tuple(kept))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(formula_and_assignment())
def test_substitution_matches_reference_loop(fa):
    f, beta = fa
    r = substitute(f, beta)
    assert r.clauses == _reference_substitute(f, beta)
