"""CNF formulas: DIMACS parsing and writing, assignment substitution.

Literals are DIMACS-style signed integers: +v is the positive literal of
variable v >= 1 and -v its negation. An assignment maps variables to 0/1.
Formulas are immutable; substitution returns a new formula and never
renumbers variables.
"""
from __future__ import annotations

from dataclasses import dataclass

Literal = int
Clause = tuple[int, ...]
Assignment = dict[int, int]


class CnfError(ValueError):
    """Malformed DIMACS input or invalid formula structure."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars.

    Invariants, checked at construction: every literal references a
    variable in range, no clause contains a duplicate or complementary
    literal pair, and no two clauses are equal up to literal order.
    The empty clause is allowed; a formula containing it is trivially
    unsatisfiable.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise CnfError("num_vars must be nonnegative")
        seen: set[tuple[int, ...]] = set()
        for cl in self.clauses:
            variables = set()
            for lit in cl:
                if not isinstance(lit, int) or lit == 0:
                    raise CnfError(f"bad literal {lit!r}")
                v = abs(lit)
                if v > self.num_vars:
                    raise CnfError(f"literal {lit} out of range 1..{self.num_vars}")
                variables.add(v)
            if len(variables) != len(cl):
                if len(set(cl)) != len(cl):
                    raise CnfError(f"duplicate literal in clause {cl}")
                raise CnfError(f"tautological clause {cl}")
            key = tuple(sorted(cl))
            if key in seen:
                raise CnfError(f"duplicate clause {cl}")
            seen.add(key)

    @classmethod
    def _trusted(cls, num_vars: int, clauses: tuple[Clause, ...]) -> "CnfFormula":
        """Build without validation; only for clause sets that already meet
        the invariants, such as deduplicated sub-clauses of a valid formula."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num_vars", num_vars)
        object.__setattr__(obj, "clauses", clauses)
        return obj

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def is_trivially_unsat(self) -> bool:
        return any(not cl for cl in self.clauses)


def trivially_unsat(num_vars: int) -> CnfFormula:
    """Canonical trivially-unsatisfiable formula: a single empty clause."""
    return CnfFormula(num_vars, ((),))


def parse_dimacs(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text into a validated CnfFormula.

    Accepts full-line comments (leading 'c') and requires a 'p cnf' header
    whose variable and clause counts match the content. Clauses may span
    lines; every clause must end with 0.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CnfError(f"undecodable input: {exc}") from None
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise CnfError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed header {line!r}")
            try:
                nv, nc = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {line!r}") from None
            if nv < 0 or nc < 0:
                raise CnfError(f"line {lineno}: negative header counts")
            header = (nv, nc)
            continue
        if header is None:
            raise CnfError(f"line {lineno}: clause data before header")
        tokens.extend(line.split())
    if header is None:
        raise CnfError("missing 'p cnf' header")
    num_vars, num_clauses = header

    clauses: list[Clause] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise CnfError(f"non-integer token {tok!r}") from None
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise CnfError("last clause is missing its terminating 0")
    if len(clauses) != num_clauses:
        raise CnfError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS text with LF line endings, one clause per line."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str(lit) for lit in cl + (0,)))
    return "\n".join(lines) + "\n"


def check_assignment(formula: CnfFormula, beta: Assignment) -> None:
    """Validate that beta maps in-range variables to 0/1."""
    for v, val in beta.items():
        if not isinstance(v, int) or v < 1 or v > formula.num_vars:
            raise CnfError(f"assignment references variable {v} outside 1..{formula.num_vars}")
        if val not in (0, 1):
            raise CnfError(f"assignment value for {v} must be 0 or 1, got {val!r}")


def substitute(formula: CnfFormula, beta: Assignment) -> CnfFormula:
    """Apply a partial assignment: drop satisfied clauses, strip false literals.

    Variable indices are preserved (no renumbering). If some clause becomes
    empty the canonical trivially-unsatisfiable formula is returned.
    Residual clauses that collapse to the same literal set are deduplicated,
    keeping the first occurrence. The result is built without validating it
    again: sub-clauses of a valid formula, deduplicated, are valid.
    """
    check_assignment(formula, beta)
    if not beta:
        return formula
    true_lits = {v if val else -v for v, val in beta.items()}
    false_lits = {-lit for lit in true_lits}
    new_clauses: list[Clause] = []
    seen: set[frozenset[int]] = set()
    for cl in formula.clauses:
        if not true_lits.isdisjoint(cl):
            continue  # satisfied
        if not false_lits.isdisjoint(cl):
            cl = tuple([lit for lit in cl if lit not in false_lits])
            if not cl:
                return trivially_unsat(formula.num_vars)
        # clauses hold no repeated literal, so a set identifies a clause
        key = frozenset(cl)
        if key in seen:
            continue
        seen.add(key)
        new_clauses.append(cl)
    return CnfFormula._trusted(formula.num_vars, tuple(new_clauses))


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause has a literal made true by the assignment."""
    for cl in formula.clauses:
        for lit in cl:
            val = assignment.get(abs(lit))
            if val is not None and (lit > 0) == (val == 1):
                break
        else:
            return False
    return True
