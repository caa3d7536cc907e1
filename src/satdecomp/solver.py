"""Deterministic CDCL SAT solver with workload counters and clause proofs.

The solver is bit-deterministic: identical (formula, assumptions, config)
inputs produce identical verdicts, models and counters on every run and
platform. Decisions use additive variable activities with ties broken by
lowest index, polarity defaults to false, and restarts follow a fixed Luby
schedule. No randomness anywhere.

Counters: `propagations` counts literals assigned by unit propagation
(assumptions and decisions are not counted); `conflicts` counts conflict
analyses, i.e. learned-clause events, so a refutation found by root-level
propagation alone reports zero conflicts.

Unsatisfiable runs can log every learned clause as a proof whose steps are
checkable by reverse unit propagation (RUP); assumptions are folded in as
unit clauses for proof purposes.
"""
from __future__ import annotations

import gc
import time
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

from .formula import Assignment, Clause, CnfFormula, check_assignment

SAT = "SAT"
UNSAT = "UNSAT"
LIMIT = "LIMIT"
UNKNOWN = "UNKNOWN"

DECIDED_SAT = "decided_SAT"
DECIDED_UNSAT = "decided_UNSAT"
UNDECIDED = "undecided"

# branch tiers: decided by the unit-propagation probe, or by CDCL search
UP_DECIDED = "up_decided"
CDCL = "cdcl"

PROPAGATIONS = "propagations"
CONFLICTS = "conflicts"
TIME = "time"
MEASURES = (PROPAGATIONS, CONFLICTS, TIME)

_UNSET = -1
_ACTIVITY_DECAY = 0.95
_RESTART_BASE = 100  # conflicts in the first Luby restart interval


@dataclass
class SolverConfig:
    """Knobs for a solve call. Defaults are pinned for reproducibility."""

    proof_logging: bool = False
    conflict_limit: int | None = None

    def __post_init__(self) -> None:
        if self.conflict_limit is not None and self.conflict_limit < 0:
            raise ValueError("conflict_limit must be nonnegative")


# a zero conflict budget: the branch kernel probes and searches no further
PROBE_ONLY = SolverConfig(conflict_limit=0)


@dataclass
class DratProof:
    """Clause addition/deletion steps; text form uses one step per line."""

    steps: tuple[tuple[str, Clause], ...]

    def to_text(self) -> str:
        lines = []
        for kind, cl in self.steps:
            body = " ".join(str(lit) for lit in cl + (0,))
            lines.append(body if kind == "add" else "d " + body)
        return "\n".join(lines) + "\n" if lines else ""

    @classmethod
    def from_text(cls, text: str) -> "DratProof":
        steps: list[tuple[str, Clause]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            kind = "add"
            if line.startswith("d "):
                kind = "delete"
                line = line[2:]
            try:
                nums = [int(tok) for tok in line.split()]
            except ValueError:
                raise ValueError(f"proof line {lineno}: non-integer token") from None
            if not nums or nums[-1] != 0 or any(n == 0 for n in nums[:-1]):
                raise ValueError(f"proof line {lineno}: clause must end with a single 0")
            steps.append((kind, tuple(nums[:-1])))
        return cls(tuple(steps))


@dataclass
class PropagateResult:
    """Outcome of a unit-propagation-only probe."""

    status: str
    propagations: int
    elapsed: float
    assignment: Assignment = field(default_factory=dict)


@dataclass
class BranchOutcome:
    """The outcome of `solve` or of one `evaluate_branch` call.

    tier is UP_DECIDED when root unit propagation decides the branch (zero
    conflicts), CDCL otherwise; `solve` always reports CDCL. Under PROBE_ONLY
    an open branch stops after the probe: CDCL, LIMIT, zero conflicts. model
    is the formula's model on SAT: the probe's partial assignment on the
    UP_DECIDED tier, a total one on the CDCL tier.
    elapsed covers building the engine; for a branch that is the residual's
    engine, copied from the formula's template and patched by beta.
    """

    tier: str
    verdict: str
    propagations: int
    conflicts: int
    elapsed: float
    model: Assignment | None = None
    proof: DratProof | None = None


def workload(outcome: BranchOutcome, measure: str) -> int | float:
    """Read the configured workload counter from the outcome of `solve` or
    of a branch evaluation, both a `BranchOutcome`."""
    if measure == PROPAGATIONS:
        return outcome.propagations
    if measure == CONFLICTS:
        return outcome.conflicts
    if measure == TIME:
        return outcome.elapsed
    raise ValueError(f"unknown workload measure {measure!r}")


def _widx(lit: int) -> int:
    return 2 * lit if lit > 0 else -2 * lit + 1


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1
        # i was strictly between 2^(k-1)-1 and 2^k-1; recurse on the offset


class _Template:
    """A formula's clause database, built once and copied into each engine.

    clauses are the formula's tuples; watches hold the ids of clauses of two
    or more literals, on their first two literals, in clause order; units
    are the (literal, id) pairs of unit clauses, in clause order. occurs
    lists the ids of the clauses holding each literal, and index maps each
    clause's sorted literals to its id, so an engine restricted by a branch
    patches only the clauses the branch touches.
    """

    def __init__(self, formula: CnfFormula) -> None:
        size = 2 * formula.num_vars + 2
        self.clauses = formula.clauses
        self.watches: list[list[int]] = [[] for _ in range(size)]
        self.occurs: list[list[int]] = [[] for _ in range(size)]
        self.units: list[tuple[int, int]] = []
        self.index: dict[Clause, int] = {}
        self.ok = True
        for ci, cl in enumerate(self.clauses):
            for lit in cl:
                self.occurs[_widx(lit)].append(ci)
            self.index[tuple(sorted(cl))] = ci
            if not cl:
                self.ok = False
            elif len(cl) == 1:
                self.units.append((cl[0], ci))
            else:
                self.watches[_widx(cl[0])].append(ci)
                self.watches[_widx(cl[1])].append(ci)


# the template of the formula object last given to an engine, found by
# identity since hashing a CnfFormula walks every clause; holding the
# formula keeps another object from reusing its identity
_cached: tuple[CnfFormula, _Template] | None = None


def _template(formula: CnfFormula) -> _Template:
    global _cached
    if _cached is None or _cached[0] is not formula:
        _cached = (formula, _Template(formula))
    return _cached[1]


class _Engine:
    """CDCL core of full solving, the propagate-only probe, closure sizes
    and the RUP checker.

    Its clause and watch lists are copies of the formula's template. With a
    beta, the engine is that of substitute(formula, beta), clause ids kept:
    a clause the residual drops is a dead slot (None) that no watch list or
    unit names, so propagation, search and proofs run as on the residual.
    """

    def __init__(
        self, formula: CnfFormula, cfg: SolverConfig, beta: Assignment | None = None
    ) -> None:
        t = _template(formula)
        nv = formula.num_vars
        self.nv = nv
        self.clauses: list[list[int] | None] = list(map(list, t.clauses))
        self.watches: list[list[int]] = list(map(list.copy, t.watches))
        self.assigns: list[int] = [_UNSET] * (nv + 1)
        self.levels: list[int] = [0] * (nv + 1)
        self.reasons: list[int | None] = [None] * (nv + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (nv + 1)
        self.var_inc = 1.0
        self.propagations = 0
        self.conflicts = 0
        self.proof: list[tuple[str, Clause]] | None = [] if cfg.proof_logging else None
        self.ok = t.ok
        self._init_units = t.units.copy()
        self.n_original = len(t.clauses)
        if beta:
            self._restrict(t, beta)

    def _restrict(self, t: _Template, beta: Assignment) -> None:
        """Patch the clauses beta touches as substitute does: a satisfied
        clause dies, a shortened one keeps its other literals in order and
        is watched on its new first two, and of clauses that end up equal
        the first survives. A clause left empty makes ok False, which is
        all a trivially unsatisfiable engine reads."""
        clauses = self.clauses
        watches = self.watches
        tclauses = t.clauses
        satisfied: set[int] = set()
        shortened: set[int] = set()
        for v, val in beta.items():
            w = 2 * v + 1 - val  # _widx of v's true literal; w ^ 1 is its false one
            satisfied.update(t.occurs[w])
            shortened.update(t.occurs[w ^ 1])
            # every clause on v's two watch lists is touched
            watches[w] = []
            watches[w ^ 1] = []
        shortened -= satisfied
        seen: set[Clause] = set()
        kept = []
        killed = []
        for ci in sorted(shortened):
            lits = [lit for lit in tclauses[ci] if abs(lit) not in beta]
            if not lits:
                self.ok = False
                return
            key = tuple(sorted(lits))
            first = t.index.get(key, ci)  # an untouched clause with these literals
            if key in seen or first < ci:
                continue
            seen.add(key)
            if first != ci:
                killed.append(first)
            kept.append((ci, lits))
        for ci in chain(satisfied, shortened, killed):
            clauses[ci] = None
            cl = tclauses[ci]
            if len(cl) > 1:
                for lit in cl[:2]:
                    if abs(lit) not in beta:
                        watches[_widx(lit)].remove(ci)
        units = []
        for ci, lits in kept:
            clauses[ci] = lits
            if len(lits) == 1:
                units.append((lits[0], ci))
            else:
                insort(watches[_widx(lits[0])], ci)
                insort(watches[_widx(lits[1])], ci)
        units += [u for u in t.units if clauses[u[1]] is not None]
        self._init_units = sorted(units, key=itemgetter(1))

    def _enqueue(self, lit: int, reason: int | None) -> None:
        v = lit if lit > 0 else -lit
        self.assigns[v] = 1 if lit > 0 else 0
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.trail.append(lit)
        if reason is not None:
            self.propagations += 1

    def preload(self, assumptions: Assignment) -> bool:
        """Enqueue formula units then assumptions at level 0 and propagate.

        Returns False when a root-level conflict is already present.
        """
        if not self.ok:
            return False
        for lit, ci in self._init_units:
            v = abs(lit)
            want = 1 if lit > 0 else 0
            cur = self.assigns[v]
            if cur == _UNSET:
                self._enqueue(lit, ci)
            elif cur != want:
                return False
        for v in sorted(assumptions):
            want = assumptions[v]
            cur = self.assigns[v]
            if cur == _UNSET:
                self._enqueue(v if want else -v, None)
            elif cur != want:
                return False
        return self.propagate() == -1

    def propagate(self) -> int:
        """Unit propagation to fixpoint. Returns a conflict clause index or -1."""
        clauses = self.clauses
        watches = self.watches
        assigns = self.assigns
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
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
                self._enqueue(first, ci)
            del wl[j:]
            if confl != -1:
                self.qhead = len(trail)
                return confl
        return -1

    def assume(self, lits) -> int | None:
        """Assert lits at a new decision level, propagate and backtrack.

        Returns the number of variables assigned at the fixpoint, or None
        when a literal is already false or propagation conflicts.
        """
        assigns = self.assigns
        level = len(self.trail_lim)
        self.trail_lim.append(len(self.trail))
        clash = False
        for lit in lits:
            a = assigns[lit if lit > 0 else -lit]
            if a == _UNSET:
                self._enqueue(lit, None)
            elif (a == 1) != (lit > 0):
                clash = True
                break
        size = None if clash or self.propagate() != -1 else len(self.trail)
        self.cancel_until(level)
        return size

    def all_clauses_satisfied(self) -> bool:
        assigns = self.assigns
        for cl in islice(self.clauses, self.n_original):
            if cl is None:
                continue
            for lit in cl:
                v = lit if lit > 0 else -lit
                a = assigns[v]
                if a != _UNSET and (a == 1) == (lit > 0):
                    break
            else:
                return False
        return True

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            act = self.activity
            for u in range(1, self.nv + 1):
                act[u] *= 1e-100
            self.var_inc *= 1e-100

    def decide(self) -> None:
        assigns = self.assigns
        act = self.activity
        best = 0
        best_act = -1.0
        for v in range(1, self.nv + 1):
            if assigns[v] == _UNSET and act[v] > best_act:
                best = v
                best_act = act[v]
        self.trail_lim.append(len(self.trail))
        self._enqueue(-best, None)

    def analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis. Returns (learned clause, backjump level)."""
        learnt: list[int] = []
        seen = bytearray(self.nv + 1)
        level = len(self.trail_lim)
        counter = 0
        p = 0
        idx = len(self.trail) - 1
        reason = confl
        while True:
            for q in self.clauses[reason]:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and self.levels[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.levels[v] == level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                pl = self.trail[idx]
                idx -= 1
                if seen[pl if pl > 0 else -pl]:
                    break
            counter -= 1
            seen[pl if pl > 0 else -pl] = 0
            if counter == 0:
                learnt.insert(0, -pl)
                break
            p = pl
            reason = self.reasons[pl if pl > 0 else -pl]
        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            ml = self.levels[abs(learnt[1])]
            for k in range(2, len(learnt)):
                lv = self.levels[abs(learnt[k])]
                if lv > ml:
                    ml = lv
                    mi = k
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = ml
        self.var_inc /= _ACTIVITY_DECAY
        return learnt, bt

    def cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        assigns = self.assigns
        reasons = self.reasons
        trail = self.trail
        for k in range(len(trail) - 1, bound - 1, -1):
            lit = trail[k]
            v = lit if lit > 0 else -lit
            assigns[v] = _UNSET
            reasons[v] = None
        del trail[bound:]
        del self.trail_lim[level:]
        self.qhead = bound

    def learn(self, learnt: list[int], bt: int) -> None:
        if self.proof is not None:
            self.proof.append(("add", tuple(learnt)))
        self.cancel_until(bt)
        ci = len(self.clauses)
        self.clauses.append(learnt)
        if len(learnt) > 1:
            self.watches[_widx(learnt[0])].append(ci)
            self.watches[_widx(learnt[1])].append(ci)
        self._enqueue(learnt[0], ci)

    def search(self, conflict_limit: int | None) -> str:
        restart_num = 1
        budget = _RESTART_BASE * _luby(restart_num)
        since_restart = 0
        while True:
            if conflict_limit is not None and self.conflicts >= conflict_limit:
                return LIMIT
            confl = self.propagate()
            if confl >= 0:
                if not self.trail_lim:
                    if self.proof is not None:
                        self.proof.append(("add", ()))
                    return UNSAT
                self.conflicts += 1
                since_restart += 1
                learnt, bt = self.analyze(confl)
                self.learn(learnt, bt)
                if since_restart >= budget:
                    since_restart = 0
                    restart_num += 1
                    budget = _RESTART_BASE * _luby(restart_num)
                    self.cancel_until(0)
            else:
                if len(self.trail) == self.nv:
                    return SAT
                self.decide()


def solve(
    formula: CnfFormula,
    assumptions: Assignment | None = None,
    cfg: SolverConfig | None = None,
) -> BranchOutcome:
    """Complete CDCL solve of formula under optional level-0 assumptions.

    Every call starts from scratch; the outcome's tier is always CDCL. With
    proof logging enabled, an UNSAT outcome carries a RUP-checkable proof
    relative to the formula with the assumptions folded in as unit clauses.
    """
    asm = dict(assumptions) if assumptions else {}
    check_assignment(formula, asm)
    out = _run(formula, asm, cfg)
    if out.tier == UP_DECIDED and out.verdict == SAT:
        # search would decide each open variable false and propagate nothing
        out.model = {v: out.model.get(v, 0) for v in range(1, formula.num_vars + 1)}
    out.tier = CDCL
    return out


def evaluate_branch(
    formula: CnfFormula, beta: Assignment, cfg: SolverConfig | None = None
) -> BranchOutcome:
    """Evaluate the branch formula substitute(formula, beta) on one engine.

    The engine is copied from the formula's template, built by the first
    engine of a formula object, and only the clauses beta touches are
    patched; substitute itself is not called. The cyclic garbage collector
    is off during the call, restored after it: the engine's lists die by
    reference count. The outcome's elapsed includes building the residual.

    Root propagation classifies the branch first: a conflict or a satisfied
    closure decides it on the UP_DECIDED tier with zero conflicts. An open
    branch goes on into CDCL search on the same engine, within
    cfg.conflict_limit; PROBE_ONLY stops it at once. The verdicts, models,
    proofs and counters equal those of propagate_only(residual) followed by
    solve(residual, cfg=cfg).
    """
    check_assignment(formula, beta)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(formula, {}, cfg, beta)
    finally:
        if enabled:
            gc.enable()


def _run(
    formula: CnfFormula,
    assumptions: Assignment,
    cfg: SolverConfig | None,
    beta: Assignment | None = None,
) -> BranchOutcome:
    """One engine, restricted by beta: preload the assumptions, probe by
    unit propagation, then search what the probe leaves open."""
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    eng = _Engine(formula, cfg, beta)
    if not eng.preload(assumptions):
        tier, verdict = UP_DECIDED, UNSAT
        if eng.proof is not None:
            eng.proof.append(("add", ()))
    elif eng.all_clauses_satisfied():
        tier, verdict = UP_DECIDED, SAT
    else:
        tier, verdict = CDCL, eng.search(cfg.conflict_limit)
    elapsed = time.perf_counter() - t0
    model = None
    if verdict == SAT:  # the probe's partial assignment or search's total one
        assigns = eng.assigns
        model = {v: assigns[v] for v in range(1, eng.nv + 1) if assigns[v] != _UNSET}
    proof = None
    if verdict == UNSAT and eng.proof is not None:
        proof = DratProof(tuple(eng.proof))
    return BranchOutcome(
        tier, verdict, eng.propagations, eng.conflicts, elapsed, model, proof
    )


def propagate_only(
    formula: CnfFormula, assumptions: Assignment | None = None
) -> PropagateResult:
    """Root-level unit propagation without any decisions.

    decided_UNSAT: propagation derives a conflict. decided_SAT: the UP
    closure satisfies every clause. Otherwise undecided. Shares the solve()
    engine, so its propagation count on a decided formula equals what a
    full solve would report.
    """
    asm = dict(assumptions) if assumptions else {}
    check_assignment(formula, asm)
    t0 = time.perf_counter()
    eng = _Engine(formula, SolverConfig())
    if not eng.preload(asm):
        status = DECIDED_UNSAT
    elif eng.all_clauses_satisfied():
        status = DECIDED_SAT
    else:
        status = UNDECIDED
    elapsed = time.perf_counter() - t0
    assignment = {
        v: eng.assigns[v] for v in range(1, eng.nv + 1) if eng.assigns[v] != _UNSET
    }
    return PropagateResult(status, eng.propagations, elapsed, assignment)


def closure_sizes(formula: CnfFormula, literals: list[int]) -> list[int | None]:
    """Unit-propagation closure of the formula under each literal alone.

    One engine propagates the formula's units once; each literal is then
    asserted at a decision level on top, propagated and taken back. Returns
    per literal the number of variables assigned at the fixpoint, or None
    when propagation conflicts (for every literal if the formula alone does).
    """
    eng = _Engine(formula, SolverConfig())
    if not eng.preload({}):
        return [None] * len(literals)
    return [eng.assume((lit,)) for lit in literals]


@dataclass
class DratCheck:
    ok: bool
    failed_step: int | None = None
    reason: str = ""


class _RupChecker(_Engine):
    """The solver's engine as a clause database answering RUP queries.

    The root trail (formula and lemma units and their propagation) is kept
    between queries; a query opens one decision level on top of it. conflict
    records that the root itself propagates to a conflict, which makes every
    clause RUP.
    """

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula, SolverConfig())
        self.index: dict[Clause, list[int]] = {
            key: [ci] for key, ci in _template(formula).index.items()
        }
        self.conflict = not self.preload({})

    def rup(self, cl: Clause) -> bool:
        """True iff propagating the clause's negation yields a conflict."""
        return self.conflict or self.assume([-lit for lit in cl]) is None

    def add(self, cl: Clause) -> None:
        """Attach a lemma, its non-false literals watched first. When the
        root makes it unit, its literal joins the root trail."""
        ci = len(self.clauses)
        self.index.setdefault(tuple(sorted(cl)), []).append(ci)
        assigns = self.assigns

        def is_false(lit: int) -> bool:
            a = assigns[lit if lit > 0 else -lit]
            return a != _UNSET and (a == 1) != (lit > 0)

        # distinct literals: a repeated one would take both watches
        lits = sorted(dict.fromkeys(cl), key=is_false)
        self.clauses.append(lits)
        if len(lits) == 1:
            self._init_units.append((lits[0], ci))
        elif lits:
            self.watches[_widx(lits[0])].append(ci)
            self.watches[_widx(lits[1])].append(ci)
        # unless the root is in conflict, an accepted (RUP) lemma has a
        # literal that is not false at the root: lits[0]
        if self.conflict:
            return
        if assigns[abs(lits[0])] == _UNSET and (len(lits) == 1 or is_false(lits[1])):
            self._enqueue(lits[0], ci)
            self.conflict = self.propagate() != -1

    def delete(self, cl: Clause) -> None:
        """Remove the last-added clause with these literals; a no-op if none."""
        key = tuple(sorted(cl))
        ids = self.index.get(key)
        if not ids:
            return
        ci = ids.pop()
        if not ids:
            del self.index[key]
        lits = self.clauses[ci]
        if len(lits) == 1:
            self._init_units.remove((lits[0], ci))
        elif lits:
            self.watches[_widx(lits[0])].remove(ci)
            self.watches[_widx(lits[1])].remove(ci)
        if self.conflict or any(self.reasons[abs(lit)] == ci for lit in lits):
            self._reset_root()  # the root trail rested on the clause

    def _reset_root(self) -> None:
        """Unassign the root trail and propagate the remaining units again."""
        self.trail_lim.append(0)
        self.cancel_until(0)
        self.ok = () not in self.index
        self.conflict = not self.preload({})


def check_drat(formula: CnfFormula, proof: DratProof) -> DratCheck:
    """Verify a clause-addition proof by reverse unit propagation.

    Every added clause must be RUP with respect to the accumulated clause
    set (original clauses plus prior additions minus deletions), and the
    final step must add the empty clause. A step naming a variable outside
    the formula is rejected: without RAT, extension variables add nothing.
    """
    checker = _RupChecker(formula)
    nv = formula.num_vars
    steps = proof.steps
    for si, (kind, cl) in enumerate(steps):
        if any(not 0 < (lit if lit > 0 else -lit) <= nv for lit in cl):
            return DratCheck(False, si, "clause names a variable outside the formula")
        if kind == "delete":
            checker.delete(cl)
        elif kind == "add":
            if not checker.rup(cl):
                return DratCheck(False, si, "clause is not RUP")
            if not cl:
                if si != len(steps) - 1:
                    return DratCheck(False, si, "empty clause is not the final step")
                return DratCheck(True)
            checker.add(cl)
        else:
            return DratCheck(False, si, f"unknown step kind {kind!r}")
    return DratCheck(False, len(steps) - 1 if steps else None, "no empty clause derived")
