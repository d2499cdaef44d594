"""Pure-Python kernels for the hot inner loops.

``apery_cosets`` is the round-robin algorithm of Böcker & Lipták
(Algorithmica 2007) run over the subgroup of residues reached so far:
each generator closes the reached cells under its least multiple that
maps them to themselves, then fills the cosets it adds with no compare.
It leaves the last generator's cosets unfilled: each of their cells is a
base cell plus a multiple of that generator, so max, sum and lookups need
no fill.  The earlier generators reach only the multiples of D, their gcd
with m, so the table is kept in index space, m / D cells with cell i for
residue i D: O(e * m / D) with no heap, and no list of m cells.  The last
generator is closed there as an index step with its own weight, which is
why ``_fill`` takes the step and the weight apart.  ``fill_cosets`` writes
the cosets out, and ``apery_levels`` is the two in turn.  Vectors are
enumerated in one canonical order everywhere: ascending by coefficient of
the last generator, then the second-to-last, and so on (the first
generator's coefficient is forced by divisibility).  One DFS, ``_walk``,
walks them: ``min_representation`` and ``is_representable`` stop at the
first vector, the canonical witness, or give up past an optional node
budget, and ``factorizations_of`` collects them all.  At each level the
walk reads its generator's coefficients off one congruence: only one
residue class leaves a remainder that the generators below can divide.
So a level over generators with a large gcd costs no more than its
vectors.  A level stops once one cycle of class steps, at most the least
generator below it, has found no vector: past that, no step can.

``BACKEND`` names the kernel implementation; it is always ``"python"``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

BACKEND = "python"

_INT64_MAX = 2**63 - 1


def apery_cosets(m: int, gens: Sequence[int]) -> tuple[list[int], int, int]:
    """The table of ``apery_levels`` in coset form, ``(base, d, g)``.

    Shortest paths on the residue graph (nodes 0..m-1, one arc
    r -> (r+g) mod m of weight g per generator g) by the round-robin
    algorithm of Böcker & Lipták, "A fast and simple algorithm for the
    money changing problem", Algorithmica 48 (2007), over the subgroup
    of residues reached so far.  Generators are added one at a time in
    ascending order.  Every arc but the last is a multiple of D, the gcd
    of m and those arcs, so they reach only the multiples of D: the
    table holds m' = m / D cells, cell i for residue i D, and an arc
    moves cell i to i + arc / D (mod m') at its own weight.  Before
    generator g the reached residues are the multiples of d (at first
    d = m: only 0 is reached); let e = gcd(d, g) and k = d / e.  The arc
    k g, a multiple of d, splits the m / d reached cells into cycles;
    starting each cycle at its least entry (which k g cannot improve) and
    relaxing once around it leaves every reached entry least over the
    generators added so far.  Then, for 0 < j < k and h a multiple of d,
    the least entry at h + j g is table[h] + j g, set with no compare:
    any other path to it holds k more copies of g, which the closing pass
    folded into table[h].  The k - 1 new cosets are filled by ``_fill``.
    Then d = e.  The last arc is closed as the index step k g / D (mod
    m') at weight k g, which is the step g at weight D g when
    gcd(D, g) = 1, and not filled.  Cost O(e * m / D), no heap, with the
    compare on only m / d cells per arc; nothing of m cells is built.

    So ``base[i]`` is the least element congruent to i d, d = D the index
    of the residues reached before g, and the least element at
    (h + j g) mod m, h = i d, 0 <= j < d, is base[i] + j g.  d = 1 means
    ``base`` is the whole table; with no arc (m = 1) g is 0.
    ``fill_cosets`` writes out the d - 1 cosets.

    Requires every class to be reachable (holds whenever gcd(gens) == 1);
    d > 1 after the last generator leaves some residue unreachable.
    Raises ``OverflowError`` when an entry of the filled table plus the
    largest arc leaves the signed 64-bit range, naming the residue of the
    least such entry, the first one Dijkstra would meet.
    """
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
    if not arcs:
        if m > 1:
            raise ValueError("unreachable residue class (generators not coprime)")
        return [0], 1, 0
    D = math.gcd(m, *arcs[:-1])  # the last arc's d; m when it is the only arc
    cells = m // D
    # A least entry is a path of at most m - 1 arcs, so it stays below this.
    unset = m * arcs[-1]
    dist = [unset] * cells
    dist[0] = 0
    d = m  # the residues reached so far are the multiples of d
    for g in arcs:
        e = math.gcd(d, g)
        k = d // e
        arc = k * g
        step = arc // D % cells
        if step:
            cycles = math.gcd(cells, step)
            for p in range(0, cycles, d // D):
                # An arc coprime to m' walks the whole table: take its
                # minimum in place rather than copy it.
                v = min(dist[p::cycles]) if cycles > 1 else min(dist)
                # Every entry is congruent to its residue, so v sits at
                # cell (v % m) / D.
                r = v % m // D
                for _ in range(cells // cycles - 1):
                    r += step
                    if r >= cells:
                        r -= cells
                    v += arc
                    w = dist[r]
                    if w < v:
                        v = w
                    else:
                        dist[r] = v
        if g == arcs[-1]:
            break
        if k > 1:
            _fill(dist, d // D, k, g // D, g)
        d = e
    limit = _INT64_MAX - g
    top = (k - 1) * g  # the last arc's fill adds 0..top to each base entry
    # a reachable entry is at most unset - g, so none passes limit while
    # unset fits; arcs coprime to m reach every entry
    if unset > _INT64_MAX and max(dist) + top > limit:
        # the first step past limit in each coset row that gets there
        least = min(b + max(0, (limit - b) // g + 1) * g for b in dist if b + top > limit)
        raise OverflowError(f"Apery element exceeds the 64-bit range near residue {least % m}")
    if e > 1:
        raise ValueError("unreachable residue class (generators not coprime)")
    return dist, D, g


def _fill(dist: list[int], d: int, k: int, step: int, weight: int) -> None:
    """Set dist[(h + j step) mod m] = dist[h] + j weight for every multiple
    h of d and 0 < j < k, m = len(dist): one stride slice per coset when
    m / d >= k, else k - 1 steps from each h."""
    m = len(dist)
    reached = m // d
    if k <= reached:
        sub = dist[::d]
        for j in range(1, k):
            # cell i d + j step is slot (i + b) mod (m / d) of dist[a::d]
            b, a = divmod(j * step % m, d)
            w = j * weight
            dist[a::d] = [x + w for x in sub[reached - b :]] + [x + w for x in sub[: reached - b]]
    else:
        step %= m
        for h in range(0, m, d):
            v = dist[h]
            r = h
            for _ in range(k - 1):
                r += step
                if r >= m:
                    r -= m
                v += weight
                dist[r] = v


def fill_cosets(base: list[int], d: int, g: int) -> list[int]:
    """The whole table of the coset form ``apery_cosets`` returns: cell
    i d + j g takes base[i] + j g, the step and the weight both g."""
    if d == 1:
        return base
    dist = [0] * (len(base) * d)
    dist[::d] = base
    _fill(dist, d, d, g, g)
    return dist


def apery_levels(m: int, gens: Sequence[int]) -> list[int]:
    """Least monoid element in each residue class mod ``m``: the coset
    form of ``apery_cosets``, filled."""
    return fill_cosets(*apery_cosets(m, gens))


def _first(coeffs: list[int]) -> bool:
    """Stop the walk at the first vector."""
    return True


def _walk(
    x: int, gens: Sequence[int], visit: Callable[[list[int]], bool | None], budget: int | None = None
) -> list[int] | None | bool:
    """The coefficient DFS: hand each representation of ``x`` over ``gens``
    to ``visit`` in canonical order, until ``visit`` returns true.  Returns
    the vector it stopped at (the DFS's own list), or None.  Each call is
    one node, level 0 included, charged as the walk enters it: with a
    ``budget`` it gives up rather than enter node budget + 1, and returns
    False.  A level enters only the coefficients of its generator that
    leave a multiple of the gcd of the generators below: one residue
    class, stepped through least first, and stops once lcm(period, q) /
    period steps in a row have found no vector, q = m / gcd(m, g) for its
    generator g and m the least generator below."""
    if not gens:
        raise ValueError("generators must be non-empty")
    if x < 0:
        return None
    if x > _INT64_MAX:
        raise OverflowError("value too large for the 64-bit kernel domain")
    pg = []  # prefix gcds: rem must be a multiple of pg[i] to be reached
    acc = 0
    for g in gens:
        if g < 1:
            raise ValueError("generators must be positive")
        if g > _INT64_MAX:
            raise OverflowError("generator too large for the 64-bit kernel domain")
        acc = math.gcd(acc, g)
        pg.append(acc)
    coeffs = [0] * len(gens)
    left = math.inf if budget is None else budget  # nodes the walk may still enter
    found = 0  # vectors handed to visit

    def rec(i: int, rem: int) -> bool | None:
        nonlocal left, found
        left -= 1
        if left < 0:
            return True  # give up: unwind as from a stop
        if rem % pg[i]:  # only at the root: each level hands down multiples
            return False
        if i == 0:
            coeffs[0] = rem // gens[0]
            found += 1
            return visit(coeffs)
        # rem - c g is a multiple of pg[i - 1], which the levels below can
        # divide, exactly when c is (rem / p)(g / p)^-1 mod pg[i - 1] / p,
        # p = pg[i]: one coefficient class per level
        g, p = gens[i], pg[i]
        period = pg[i - 1] // p
        seen, misses, cycle = found, 0, 0
        for c in range(rem // p * pow(g // p, -1, period) % period, rem // g + 1, period):
            coeffs[i] = c
            if rec(i - 1, rem - c * g):
                return True
            if found > seen:
                seen, misses = found, 0
                continue
            misses += 1
            if not cycle:
                # c and c + t, t = lcm(period, q), q = m / gcd(m, g) with m
                # the least generator below, leave remainders that differ
                # by a positive multiple of m: one outside the monoid of
                # the generators below stays outside less any multiple of
                # m, so after t / period failed steps in a row all fail
                m = min(gens[:i])
                q = m // math.gcd(m, g)
                cycle = q // math.gcd(q, period)
            if misses == cycle:
                break
        coeffs[i] = 0
        return False

    try:
        if not rec(len(gens) - 1, x):
            return None
    finally:
        rec = None  # rec holds itself through its cell: free it without the cyclic collector
    return coeffs if left >= 0 else False


def min_representation(x: int, gens: Sequence[int], budget: int | None = None) -> tuple[int, ...] | None:
    """Canonical representation of ``x`` over ``gens``, or None.

    First solution in the canonical enumeration order, i.e. the one with
    the smallest coefficients on the latest generators.  Also None when
    the walk would enter more than ``budget`` nodes.
    """
    coeffs = _walk(x, gens, _first, budget)
    return tuple(coeffs) if coeffs else None


def is_representable(x: int, gens: Sequence[int], budget: int | None = None) -> bool | None:
    """True iff ``x`` is a non-negative integer combination of ``gens``;
    None when the walk would enter more than ``budget`` nodes."""
    coeffs = _walk(x, gens, _first, budget)
    return None if coeffs is False else coeffs is not None


def factorizations_of(x: int, gens: Sequence[int]) -> list[tuple[int, ...]]:
    """All representations of ``x`` over ``gens`` in canonical order."""
    out: list[tuple[int, ...]] = []
    _walk(x, gens, lambda coeffs: out.append(tuple(coeffs)))
    return out
