"""Equivalence-checking miter of two array multipliers, as Tseitin CNF.

One circuit computes a*b and the other b*a, for w-bit unsigned a and b.
Both are ripple-carry array multipliers over their own AND gates, so the
two circuits share only their inputs: row i of the first adds a*b_i, row i
of the second adds b*a_i. The miter XORs the two products bit by bit and
asserts that some XOR is true, which is unsatisfiable because
multiplication commutes.

The generator is plain Python with no dependency on the program under
test, so the benchmark can check it by simulating the gates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

AND, XOR, MAJ = "and", "xor", "maj"


@dataclass(frozen=True)
class Miter:
    width: int
    num_vars: int
    clauses: list[tuple[int, ...]]
    a_vars: tuple[int, ...]          # input a, least significant bit first
    b_vars: tuple[int, ...]
    gates: list[tuple[str, int, tuple[int, ...]]]  # (kind, output, inputs), topological
    products: tuple[tuple[int, ...], tuple[int, ...]]  # product bits of each circuit
    diffs: tuple[int, ...]           # XOR of the two products, bit by bit


class _Builder:
    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[tuple[int, ...]] = []
        self.gates: list[tuple[str, int, tuple[int, ...]]] = []

    def var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def gate(self, kind: str, *ins: int) -> int:
        z = self.var()
        if kind == AND:
            x, y = ins
            self.clauses += [(-z, x), (-z, y), (z, -x, -y)]
        elif kind == XOR:
            x, y = ins
            self.clauses += [(-z, x, y), (-z, -x, -y), (z, -x, y), (z, x, -y)]
        else:
            x, y, c = ins
            self.clauses += [
                (-x, -y, z), (-x, -c, z), (-y, -c, z),
                (x, y, -z), (x, c, -z), (y, c, -z),
            ]
        self.gates.append((kind, z, ins))
        return z

    def multiplier(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """Add row i = x AND y_i, shifted by i, into a running sum."""
        w = len(x)
        acc: dict[int, int] = {}
        for i in range(w):
            carry = None
            for j in range(w):
                p = i + j
                pp = self.gate(AND, x[j], y[i])
                terms = [t for t in (acc.get(p), pp, carry) if t is not None]
                if len(terms) == 1:
                    acc[p], carry = terms[0], None
                elif len(terms) == 2:
                    acc[p] = self.gate(XOR, *terms)
                    carry = self.gate(AND, *terms)
                else:
                    acc[p] = self.gate(XOR, self.gate(XOR, terms[0], terms[1]), terms[2])
                    carry = self.gate(MAJ, *terms)
            if carry is not None:
                acc[i + w] = carry
        return tuple(acc[p] for p in range(2 * w))


def lec_miter(width: int) -> Miter:
    if width < 2:
        raise ValueError("width must be at least 2")
    bld = _Builder()
    a = tuple(bld.var() for _ in range(width))
    b = tuple(bld.var() for _ in range(width))
    p1 = bld.multiplier(a, b)
    p2 = bld.multiplier(b, a)
    diffs = tuple(bld.gate(XOR, u, v) for u, v in zip(p1, p2))
    bld.clauses.append(diffs)
    return Miter(width, bld.num_vars, bld.clauses, a, b, bld.gates, (p1, p2), diffs)


def simulate(m: Miter, a: int, b: int) -> dict[int, bool]:
    """Evaluate every gate on inputs a and b; returns the full assignment."""
    val: dict[int, bool] = {}
    for i in range(m.width):
        val[m.a_vars[i]] = bool((a >> i) & 1)
        val[m.b_vars[i]] = bool((b >> i) & 1)
    for kind, z, ins in m.gates:
        xs = [val[v] for v in ins]
        if kind == AND:
            val[z] = xs[0] and xs[1]
        elif kind == XOR:
            val[z] = xs[0] != xs[1]
        else:
            val[z] = sum(xs) >= 2
    return val


def check_miter(m: Miter, trials: int, seed: int) -> list[str]:
    """Simulate both circuits on random inputs against integer a*b.

    Also checks that the simulated assignment satisfies every gate clause
    and falsifies only the final miter clause. Returns the faults found.
    """
    faults: list[str] = []
    rng = random.Random(seed)
    for _ in range(trials):
        a, b = rng.getrandbits(m.width), rng.getrandbits(m.width)
        val = simulate(m, a, b)
        for which, bits in enumerate(m.products):
            got = sum(1 << k for k, v in enumerate(bits) if val[v])
            if got != a * b:
                faults.append(f"circuit {which} computes {got} for {a}*{b}")
        falsified = [
            cl for cl in m.clauses
            if not any(val[abs(lit)] == (lit > 0) for lit in cl)
        ]
        if falsified != [m.diffs]:
            faults.append(f"inputs {a},{b} falsify {len(falsified)} clauses, not just the miter")
    return faults
