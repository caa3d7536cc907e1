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

import time
from dataclasses import dataclass, field

from .formula import Assignment, Clause, CnfFormula, check_assignment, substitute

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
        if self.conflict_limit is not None and self.conflict_limit < 1:
            raise ValueError("conflict_limit must be positive")


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

    tier is UP_DECIDED, CDCL, or UNDECIDED when the probe left the branch
    open and no search was asked for (verdict UNKNOWN then); `solve` always
    reports CDCL. model is the formula's model on SAT: the probe's partial
    assignment on the UP_DECIDED tier, a total one on the CDCL tier.
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


class _Engine:
    """CDCL core of full solving, the propagate-only probe, closure sizes
    and the RUP checker."""

    def __init__(self, formula: CnfFormula, cfg: SolverConfig) -> None:
        nv = formula.num_vars
        self.nv = nv
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * nv + 2)]
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
        self.ok = True
        self._init_units: list[tuple[int, int]] = []
        for cl in formula.clauses:
            ci = len(self.clauses)
            lits = list(cl)
            self.clauses.append(lits)
            if not lits:
                self.ok = False
            elif len(lits) == 1:
                self._init_units.append((lits[0], ci))
            else:
                self.watches[_widx(lits[0])].append(ci)
                self.watches[_widx(lits[1])].append(ci)
        self.n_original = len(self.clauses)

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
        for ci in range(self.n_original):
            for lit in self.clauses[ci]:
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
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return LIMIT
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
    return _run(formula, asm, cfg, up_first=False, search=True)


def evaluate_branch(
    formula: CnfFormula,
    beta: Assignment,
    cfg: SolverConfig | None = None,
    *,
    up_first: bool = True,
    search: bool = True,
) -> BranchOutcome:
    """Evaluate the branch formula substitute(formula, beta) on one engine.

    With up_first, root propagation classifies the branch first: a conflict
    or a satisfied closure decides it on the UP_DECIDED tier with zero
    conflicts. An undecided branch goes on into CDCL search on the same
    engine (or stops with tier UNDECIDED when search is False). Without
    up_first the branch is simply solved. Either way the verdicts, models,
    proofs and counters equal those of propagate_only(residual) followed by
    solve(residual, cfg=cfg), or of solve(residual, cfg=cfg) alone.
    """
    if not (up_first or search):
        raise ValueError("a branch evaluation needs the probe or the search")
    return _run(substitute(formula, beta), {}, cfg, up_first=up_first, search=search)


def _run(
    formula: CnfFormula,
    assumptions: Assignment,
    cfg: SolverConfig | None,
    *,
    up_first: bool,
    search: bool,
) -> BranchOutcome:
    """One engine: preload the assumptions, then probe and/or search."""
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    eng = _Engine(formula, cfg)
    assigns = eng.assigns
    tier = CDCL
    if not eng.preload(assumptions):
        verdict = UNSAT
        if eng.proof is not None:
            eng.proof.append(("add", ()))
        if up_first:
            tier = UP_DECIDED
    elif up_first and eng.all_clauses_satisfied():
        model = {v: assigns[v] for v in range(1, eng.nv + 1) if assigns[v] != _UNSET}
        elapsed = time.perf_counter() - t0
        return BranchOutcome(UP_DECIDED, SAT, eng.propagations, 0, elapsed, model)
    elif not search:
        elapsed = time.perf_counter() - t0
        return BranchOutcome(UNDECIDED, UNKNOWN, eng.propagations, 0, elapsed)
    else:
        verdict = eng.search(cfg.conflict_limit)
    elapsed = time.perf_counter() - t0
    model = None
    if verdict == SAT:
        model = {v: assigns[v] for v in range(1, eng.nv + 1)}
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
        self.index: dict[tuple[int, ...], list[int]] = {}
        for ci, cl in enumerate(formula.clauses):
            self.index.setdefault(tuple(sorted(cl)), []).append(ci)
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
