"""Independent reference implementations used to cross-check the library.

Everything here is written as a plain brute-force loop with no shared code
paths: truth tables enumerate all 2^n total assignments, and the hardness
oracles enumerate all 2^|B| branches one substitution at a time. Slow on
purpose; only run on small fixtures. The one exception is
reference_propagate, the plain form of the engine's propagate loop, which
runs on an engine's state.
"""

import itertools

from satdecomp.formula import CnfFormula, substitute
from satdecomp.solver import (
    _UNSET,
    DECIDED_SAT,
    DECIDED_UNSAT,
    SAT,
    UNSAT,
    _widx,
    propagate_only,
    solve,
    workload,
)


def truth_table_verdict(formula: CnfFormula) -> str:
    """SAT/UNSAT by exhaustive enumeration of total assignments."""
    n = formula.num_vars
    for bits in itertools.product((False, True), repeat=n):
        a = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(any((l > 0) == a[abs(l)] for l in c) for c in formula.clauses):
            return SAT
    return UNSAT


def all_branches(variables):
    """Branch assignments of the given variables in lexicographic order."""
    vs = sorted(variables)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


def brute_force_hardness(formula: CnfFormula, variables, measure: str):
    """Sum of solver workloads over every branch, one residual at a time."""
    total = 0
    for beta in all_branches(variables):
        out = solve(substitute(formula, beta))
        if out.verdict == SAT:
            return None
        total += workload(out, measure)
    return total


def brute_force_two_tier(formula: CnfFormula, variables, measure: str):
    """Like brute_force_hardness but branches decided by unit propagation
    contribute the probe workload instead of a solver run."""
    total = 0
    for beta in all_branches(variables):
        residual = substitute(formula, beta)
        probe = propagate_only(residual)
        if probe.status == DECIDED_SAT:
            return None
        if probe.status == DECIDED_UNSAT:
            total += probe.propagations if measure == "propagations" else (
                probe.elapsed if measure == "time" else 0
            )
            continue
        out = solve(residual)
        if out.verdict == SAT:
            return None
        total += workload(out, measure)
    return total


def brute_force_rho(formula: CnfFormula, variables) -> float:
    """Fraction of branches where a unit-propagation probe decides."""
    easy = 0
    count = 0
    for beta in all_branches(variables):
        count += 1
        if propagate_only(substitute(formula, beta)).status != "undecided":
            easy += 1
    return easy / count


def minimum_sbs_size(formula: CnfFormula, cap: int = 12):
    """Smallest k such that some k-subset of the variables has every branch
    decided by unit propagation; None if none exists up to cap."""
    nv = formula.num_vars
    for k in range(0, min(cap, nv) + 1):
        for combo in itertools.combinations(range(1, nv + 1), k):
            if all(
                propagate_only(substitute(formula, beta)).status != "undecided"
                for beta in all_branches(combo)
            ):
                return k
    return None


def shift_clauses(formula: CnfFormula, offset: int):
    return tuple(
        tuple(l + offset if l > 0 else l - offset for l in c)
        for c in formula.clauses
    )


def disjoint_union(f1: CnfFormula, f2: CnfFormula) -> CnfFormula:
    """Conjunction of f1 and a variable-shifted copy of f2."""
    return CnfFormula(
        f1.num_vars + f2.num_vars,
        f1.clauses + shift_clauses(f2, f1.num_vars),
    )


def unit_closure(clauses, true_lits):
    """The literals naive unit propagation makes true from the given true
    literals (the clauses' own units included), or None on a conflict."""
    true = set(true_lits)
    if any(-lit in true for lit in true):
        return None
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(lit in true for lit in cl):
                continue
            open_lits = [lit for lit in cl if -lit not in true]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return true


def _unit_propagation_conflicts(clauses, true_lits) -> bool:
    """Naive unit propagation over clause sets from the given true literals."""
    return unit_closure(clauses, true_lits) is None


def naive_variable_weights(formula: CnfFormula):
    """(var, weight) pairs by naive unit closure, heaviest first.

    A variable's weight is the size of the closure of its positive literal
    plus that of its negative one; a closure that conflicts counts as
    num_vars. Ties go to the lower index.
    """
    nv = formula.num_vars

    def size(lit):
        closure = unit_closure(formula.clauses, [lit])
        return nv if closure is None else len(closure)

    weights = [(v, size(v) + size(-v)) for v in range(1, nv + 1)]
    return sorted(weights, key=lambda vw: (-vw[1], vw[0]))


def naive_check_drat(formula: CnfFormula, steps):
    """(ok, failed_step) of a RUP proof, by naive propagation at every step.

    The database is a list of (sorted literals, literal set) pairs. A
    deletion removes one clause with the same sorted literals, if any. A
    step naming a variable outside 1..num_vars fails; an added clause must
    be RUP; the empty clause must be added, and only as the last step.
    """
    db = [(tuple(sorted(cl)), frozenset(cl)) for cl in formula.clauses]
    for si, (kind, cl) in enumerate(steps):
        if any(not 1 <= abs(lit) <= formula.num_vars for lit in cl):
            return False, si
        key = tuple(sorted(cl))
        if kind == "delete":
            for k in range(len(db) - 1, -1, -1):
                if db[k][0] == key:
                    del db[k]
                    break
            continue
        if kind != "add":
            return False, si
        if not _unit_propagation_conflicts([s for _, s in db], [-lit for lit in cl]):
            return False, si
        if not cl:
            return (True, None) if si == len(steps) - 1 else (False, si)
        db.append((key, frozenset(cl)))
    return False, len(steps) - 1 if steps else None


def reference_propagate(eng) -> int:
    """The engine's propagate loop as it was before _enqueue and _widx were
    inlined into it, run on a solver engine's own state: the reference the
    inlined loop must match step for step (trail, reasons, levels, clause
    literal order, watch lists, propagation count, conflict id)."""
    clauses = eng.clauses
    watches = eng.watches
    assigns = eng.assigns
    trail = eng.trail
    while eng.qhead < len(trail):
        p = trail[eng.qhead]
        eng.qhead += 1
        wl = watches[_widx(-p)]
        i = j = 0
        n = len(wl)
        confl = -1
        while i < n:
            ci = wl[i]
            i += 1
            cl = clauses[ci]
            if cl[0] == -p:
                cl[0] = cl[1]
                cl[1] = -p
            first = cl[0]
            fv = first if first > 0 else -first
            a = assigns[fv]
            if a != _UNSET and (a == 1) == (first > 0):
                wl[j] = ci
                j += 1
                continue
            found = False
            for k in range(2, len(cl)):
                lk = cl[k]
                kv = lk if lk > 0 else -lk
                ak = assigns[kv]
                if ak == _UNSET or (ak == 1) == (lk > 0):
                    cl[1] = lk
                    cl[k] = -p
                    watches[_widx(lk)].append(ci)
                    found = True
                    break
            if found:
                continue
            wl[j] = ci
            j += 1
            if a != _UNSET:
                confl = ci
                while i < n:
                    wl[j] = wl[i]
                    j += 1
                    i += 1
                break
            eng._enqueue(first, ci)
        del wl[j:]
        if confl != -1:
            eng.qhead = len(trail)
            return confl
    return -1
