"""Independent brute-force oracles used only by the tests.

Deliberately different algorithms from the package: reachability by
forward boolean sieve (the package relaxes a residue graph), frobenius by
downward scan with a self-certifying run of consecutive representable
values, factorizations by full cartesian product (the package uses a
pruned DFS).  Keep these dumb; they are the ground truth.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def reachable_table(gens: Sequence[int], limit: int) -> bytearray:
    """table[x] == 1 iff x is a non-negative combination of gens, x <= limit."""
    table = bytearray(limit + 1)
    table[0] = 1
    for x in range(1, limit + 1):
        for g in gens:
            if g <= x and table[x - g]:
                table[x] = 1
                break
    return table


def naive_frobenius(gens: Sequence[int]) -> int:
    """Largest non-representable integer, certified by locating min(gens)
    consecutive representable values (everything above them is reachable
    by adding multiples of min(gens))."""
    m = min(gens)
    limit = 2 * max(gens) + 2 * m + 2
    while True:
        table = reachable_table(gens, limit)
        run = 0
        for x in range(limit + 1):
            run = run + 1 if table[x] else 0
            if run == m:
                start = x - m + 1
                for y in range(start - 1, -1, -1):
                    if not table[y]:
                        return y
                return -1
        limit *= 2


def naive_apery(gens: Sequence[int], m: int) -> list[int]:
    """Least representable value in each residue class mod m, by sweep."""
    limit = 4 * (max(gens) + m)
    while True:
        table = reachable_table(gens, limit)
        found: dict[int, int] = {}
        for x in range(limit + 1):
            if table[x]:
                r = x % m
                if r not in found:
                    found[r] = x
                    if len(found) == m:
                        return [found[r] for r in range(m)]
        limit *= 2


def naive_factorizations(gens: Sequence[int], s: int) -> set[tuple[int, ...]]:
    """Every coefficient vector summing to s, by full cartesian product."""
    ranges = [range(s // g + 1) for g in gens]
    return {
        combo
        for combo in itertools.product(*ranges)
        if sum(c * g for c, g in zip(combo, gens)) == s
    }


def naive_betti(gens: Sequence[int], bound: int) -> set[int]:
    """Every s in 1..bound whose factorizations over the minimal generators
    ``gens`` fall into >= 2 classes, where two factorizations share a class
    iff a chain of factorizations with pairwise overlapping supports joins
    them."""
    out: set[int] = set()
    for s in range(1, bound + 1):
        remaining = list(naive_factorizations(gens, s))
        if len(remaining) < 2:
            continue
        frontier = [remaining.pop()]
        while frontier and remaining:
            u = frontier.pop()
            linked = [v for v in remaining if any(a and b for a, b in zip(u, v))]
            for v in linked:
                remaining.remove(v)
            frontier.extend(linked)
        if remaining:
            out.add(s)
    return out
