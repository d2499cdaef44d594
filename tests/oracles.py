"""Independent brute-force oracles used only by the tests.

Deliberately different algorithms from the package: reachability by
forward boolean sieve (the package relaxes a residue graph), frobenius by
downward scan with a self-certifying run of consecutive representable
values, factorizations by full cartesian product or built up from those
of smaller values (the package uses a pruned DFS), Apery tables by heap
Dijkstra (the pure-Python kernel runs the round-robin algorithm), c*
constants by lookups in those tables, canonical witnesses by a greedy
walk over sieve tables (the package runs a backtracking DFS), the DFS as
it was before its level over two generators took a closed form, free Apery
boxes filed element by element with a duplicate check (the package proves
the residues distinct on one bitset first), the genus by counting sieve
gaps (the package applies Selmer's formula to its Apery table), text and
CSV fields item by item (the CLI writes a list of plain ints as its repr),
and rows through ``json.dumps`` and ``csv.writer`` (the CLI fills one
%-template per row shape).
Keep these dumb; they are the ground truth.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
from typing import Sequence

_INT64_MAX = 2**63 - 1


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


def naive_genus(gens: Sequence[int]) -> int:
    """Number of gaps: the values up to the Frobenius number the sieve
    does not reach."""
    return reachable_table(gens, max(naive_frobenius(gens), 0)).count(0)


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


def factorization_table(gens: Sequence[int], bound: int) -> list[set[tuple[int, ...]]]:
    """Every coefficient vector of every s in 0..bound, built upwards:
    the factorizations of s are those of s - g_i with one more g_i."""
    e = len(gens)
    facts: list[set[tuple[int, ...]]] = [{(0,) * e}]
    for s in range(1, bound + 1):
        facts.append({
            f[:i] + (f[i] + 1,) + f[i + 1:]
            for i, g in enumerate(gens)
            if g <= s
            for f in facts[s - g]
        })
    return facts


def naive_betti(gens: Sequence[int], bound: int) -> set[int]:
    """Every s in 1..bound whose factorizations over the minimal generators
    ``gens`` fall into >= 2 classes, where two factorizations share a class
    iff a chain of factorizations with pairwise overlapping supports joins
    them."""
    out: set[int] = set()
    facts = factorization_table(gens, bound)
    for s in range(1, bound + 1):
        remaining = list(facts[s])
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


def dijkstra_apery(m: int, gens: Sequence[int]) -> list[int]:
    """Least monoid element in each residue class mod ``m``, by heap
    Dijkstra on the residue graph: the pure-Python kernel before it became
    a round robin, kept with its validation and error messages so the
    kernel's contract, overflow residue included, can be compared."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m > _INT64_MAX:
        raise OverflowError("modulus too large for the 64-bit kernel domain")
    uniq = sorted(set(gens))
    if uniq and uniq[0] < 1:
        raise ValueError("generators must be positive")
    if uniq and uniq[-1] > _INT64_MAX:
        raise OverflowError("generator too large for the 64-bit kernel domain")
    arcs = [g for g in uniq if g % m != 0]
    dist: list[int] = [-1] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in arcs:
            nd = d + g
            if nd > _INT64_MAX:
                raise OverflowError(f"Apery element exceeds the 64-bit range near residue {r}")
            nr = (r + g) % m
            if dist[nr] < 0 or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    if any(d < 0 for d in dist):
        raise ValueError("unreachable residue class (generators not coprime)")
    return dist


def filed_box(arrangement: Sequence[int], cstars: Sequence[int]) -> list[int | None]:
    """The box {sum of lam_j * n_j : 0 <= lam_j < c*_j} over n_2..n_e, filed
    by residue mod n_1 in box order with the first repeated residue raised
    under the message ``apery_box`` gives.  Empty residues stay None."""
    anchor = arrangement[0]
    bases = [0]
    for c, n in zip(cstars[:-1], arrangement[1:-1]):
        bases = [base + lam * n for base in bases for lam in range(c)]
    steps = [lam * arrangement[-1] for lam in range(cstars[-1])] if cstars else [0]
    by_residue: list[int | None] = [None] * anchor
    for base in bases:
        for step in steps:
            element = base + step
            r = element % anchor
            if by_residue[r] is not None:
                raise ValueError(f"duplicate Apery residue {r}: broken free decomposition")
            by_residue[r] = element
    return by_residue


def dijkstra_cstars(arrangement: Sequence[int]) -> list[int]:
    """c*_i for i >= 2: the least k >= 1 with k * n_i in the monoid of
    n_1..n_{i-1}, looked up in the heap-Dijkstra table of that prefix
    divided by its gcd."""
    out = []
    for i in range(1, len(arrangement)):
        d = math.gcd(*arrangement[:i])
        scaled = [a // d for a in arrangement[:i]]
        m = min(scaled)
        table = dijkstra_apery(m, scaled)
        n_i = arrangement[i]
        k = 1
        while k * n_i % d or k * n_i // d < table[k * n_i // d % m]:
            k += 1
        out.append(k)
    return out


def canonical_witness(value: int, gens: Sequence[int]) -> tuple[int, ...] | None:
    """The representation of ``value`` with the smallest coefficients on
    the latest generators, or None: from the last generator down, take the
    least coefficient whose remainder the earlier generators still reach,
    as marked by their sieve table."""
    tables = [reachable_table(gens[:i], value) for i in range(len(gens) + 1)]
    if not tables[-1][value]:
        return None
    coeffs = [0] * len(gens)
    rem = value
    for i in range(len(gens) - 1, -1, -1):
        while not tables[i][rem - coeffs[i] * gens[i]]:
            coeffs[i] += 1
        rem -= coeffs[i] * gens[i]
    return tuple(coeffs)


def dfs_representations(x: int, gens: Sequence[int], first: bool = False) -> list[tuple[int, ...]]:
    """The representations of ``x`` over ``gens`` in canonical order, or
    only the first: the unpruned coefficient DFS, which tries every
    coefficient of each generator but the first, where the kernel's walk
    steps through the one class that the levels below can divide."""
    if x < 0:
        return []
    pg = list(itertools.accumulate(gens, math.gcd))
    coeffs = [0] * len(gens)
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int) -> bool:
        if rem % pg[i]:
            return False
        if i == 0:
            coeffs[0] = rem // gens[0]
            out.append(tuple(coeffs))
            return first
        for c in range(rem // gens[i] + 1):
            coeffs[i] = c
            if rec(i - 1, rem - c * gens[i]):
                return True
        coeffs[i] = 0
        return False

    rec(len(gens) - 1, x)
    return out


def dfs_minimal_generators(entries: Sequence[int]) -> tuple[int, ...]:
    """The minimal generators by the ascending scan with no table: an entry
    stays unless the unpruned DFS finds it over the smaller kept ones."""
    kept: list[int] = []
    for g in sorted(set(entries)):
        if not (kept and dfs_representations(g, kept, first=True)):
            kept.append(g)
    return tuple(kept)


def scalar_field(value: object) -> str:
    """A text or CSV field as the CLI writes it: a list or tuple item by
    item as ``[a, b]``, a bool as ``true``/``false``, anything else by
    ``str``."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(scalar_field(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def flat_rows(columns: Sequence[str], rows: Sequence[tuple], fmt: str) -> str:
    """Tuple rows under ``columns`` as the CLI writes them: a JSON list of
    objects by ``json.dumps(sort_keys=True, indent=2)``, ``key: value``
    lines, or a header and rows by ``csv.writer``.  In text and CSV a list,
    tuple or bool is written by ``scalar_field``."""
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows], sort_keys=True, indent=2)
    flat = [[scalar_field(v) if isinstance(v, (list, tuple, bool)) else v for v in row] for row in rows]
    if fmt == "text":
        return "".join(f"{key}: {value}\n" for row in flat for key, value in zip(columns, row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(flat)
    return buf.getvalue()
