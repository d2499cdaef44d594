"""Telescopic sequences and free numerical semigroups.

Detection with explicit certificates, the c* constants and freeness
criterion, the free fast paths (Frobenius, Apery, minimal presentation,
Betti elements), and the classical gcd-reduction formulas for the
Frobenius number.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, repeat
from operator import sub

from numsemi import _kernels
from numsemi._record import Record, set_field
from numsemi.arith import INT64_MAX, checked_int64, gcd_list, validated_generators
from numsemi.core import (
    APERY_MATERIALIZE_LIMIT,
    AperySet,
    NumericalSemigroup,
    evaluate,
    require_desk_scale,
)
from numsemi.errors import InvariantViolation, NotCoprimeError


class TelescopicCertificate(Record):
    """Witness data for a telescopic sequence.

    ``d_chain[i]`` is the gcd of the first i+1 entries.  ``witnesses[i-2]``
    represents entry i divided by d_i over the prefix entries divided by
    d_{i-1} (positions are 1-based, so the list covers i = 2..n).
    """

    __slots__ = ("sequence", "d_chain", "witnesses")

    def __init__(
        self, sequence: tuple[int, ...], d_chain: tuple[int, ...], witnesses: tuple[tuple[int, ...], ...]
    ) -> None:
        set_field(self, "sequence", sequence)
        set_field(self, "d_chain", d_chain)
        set_field(self, "witnesses", witnesses)

    def scaled_prefix(self, i: int) -> tuple[int, ...]:
        """The generators witness i-2 is expressed over: entries 1..i-1
        each divided by d_{i-1}."""
        d_prev = self.d_chain[i - 2]
        return tuple(a // d_prev for a in self.sequence[: i - 1])

    def scaled_target(self, i: int) -> int:
        """Entry i divided by d_i."""
        return self.sequence[i - 1] // self.d_chain[i - 1]


class NotTelescopic(Record):
    """First position at which the telescopic condition fails."""

    __slots__ = ("sequence", "failing_index", "failing_value")

    def __init__(self, sequence: tuple[int, ...], failing_index: int, failing_value: int) -> None:
        set_field(self, "sequence", sequence)
        set_field(self, "failing_index", failing_index)
        set_field(self, "failing_value", failing_value)

    def __bool__(self) -> bool:
        return False


class FreeDecomposition(Record):
    """An arrangement certified free: n_1 equals the product of the c*."""

    __slots__ = ("arrangement", "cstars", "reps")

    def __init__(
        self, arrangement: tuple[int, ...], cstars: tuple[int, ...], reps: tuple[tuple[int, ...], ...]
    ) -> None:
        set_field(self, "arrangement", arrangement)
        set_field(self, "cstars", cstars)
        set_field(self, "reps", reps)
        e = len(arrangement)
        if len(cstars) != e - 1 or len(reps) != e - 1:
            raise InvariantViolation("free decomposition needs one c* and one witness per i >= 2")
        if math.prod(cstars) != arrangement[0]:
            raise InvariantViolation(f"not free: n_1 = {arrangement[0]} but the c* product is {math.prod(cstars)}")
        for i, (c, rep) in enumerate(zip(cstars, reps), start=2):
            prefix = arrangement[: i - 1]
            if len(rep) != len(prefix) or evaluate(rep, prefix) != c * arrangement[i - 1]:
                raise InvariantViolation(f"witness for position {i} does not evaluate to c*_{i} * n_{i}")


class NotFree(Record):
    """Failed freeness product test, with the offending c* constants."""

    __slots__ = ("arrangement", "cstars", "product")

    def __init__(self, arrangement: tuple[int, ...], cstars: tuple[int, ...], product: int) -> None:
        set_field(self, "arrangement", arrangement)
        set_field(self, "cstars", cstars)
        set_field(self, "product", product)

    def __bool__(self) -> bool:
        return False


class Presentation(Record):
    """Relation pairs of factorization vectors over ``arrangement``.

    Every pair's two sides must evaluate to the same element; that value
    set is the Betti set for the free constructions emitted here.
    """

    __slots__ = ("arrangement", "relations")

    def __init__(
        self, arrangement: tuple[int, ...], relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    ) -> None:
        set_field(self, "arrangement", arrangement)
        set_field(self, "relations", relations)
        for lhs, rhs in relations:
            left = evaluate(lhs, arrangement)
            right = evaluate(rhs, arrangement)
            if left != right:
                raise InvariantViolation(f"relation sides evaluate to {left} != {right}")

    def evaluations(self) -> tuple[int, ...]:
        return tuple(evaluate(lhs, self.arrangement) for lhs, _ in self.relations)

    def __len__(self) -> int:
        return len(self.relations)


def divide_chain(seq: Sequence[int]) -> tuple[int, ...]:
    """Prefix gcds d_i = gcd of the first i entries."""
    return tuple(accumulate(validated_generators(seq), math.gcd))


def _divide_walk(
    entries: tuple[int, ...], chain: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
    """For each position i = 2..e of ``entries`` with divide chain
    ``chain``: n_i, the prefix n_1..n_{i-1} divided by d_{i-1}, the target
    t_i = n_i / d_i and the quotient q_i = d_{i-1} / d_i."""
    for i in range(1, len(entries)):
        n_i, d_prev, d_i = entries[i], chain[i - 1], chain[i]
        yield n_i, tuple(a // d_prev for a in entries[:i]), n_i // d_i, d_prev // d_i


def is_telescopic(seq: Sequence[int]) -> TelescopicCertificate | NotTelescopic:
    """Check the telescopic condition, producing witnesses or the first
    failing position.

    Every entry i >= 2 must satisfy: t_i = entry_i / d_i is representable
    over the prefix entries scaled by d_{i-1}, one coefficient DFS per
    position.  Repeated entries are rejected (their telescopic status is
    not meaningful here).
    """
    entries = validated_generators(seq)
    if len(entries) < 2:
        raise ValueError("telescopic analysis needs at least 2 entries")
    if len(set(entries)) != len(entries):
        raise ValueError("telescopic analysis rejects repeated entries")
    chain = tuple(accumulate(entries, math.gcd))
    if chain[-1] != 1:
        raise NotCoprimeError(chain[-1])
    witnesses = []
    for i, (_, scaled_prefix, target, _) in enumerate(_divide_walk(entries, chain), start=2):
        witness = _kernels.min_representation(target, scaled_prefix)
        if witness is None:
            return NotTelescopic(entries, i, target)
        witnesses.append(witness)
    return TelescopicCertificate(entries, chain, tuple(witnesses))


def arranged_minimal(entries: Sequence[int], minimal: Sequence[int]) -> tuple[int, ...]:
    """The generators ``minimal`` in the order they take in ``entries``; a
    repeated generator stands at its last occurrence."""
    last = {g: i for i, g in enumerate(entries) if g in minimal}
    return tuple(sorted(last, key=last.__getitem__))


def _least_multiple(prefix: tuple[int, ...], target: int, j_max: int) -> int | None:
    """The least j in 1..j_max with j * target in the monoid of the
    minimal, coprime ``prefix``, or None: from the prefix table up to the
    desk-scale limit.  Above it, if no entry of the table mod target can
    leave 64 bits, from that table: a positive element is an entry g plus
    an element least in its class -g mod target.  Else the prefix is
    refused as the table it would need."""
    if min(prefix) > APERY_MATERIALIZE_LIMIT >= target and target * max(prefix) <= INT64_MAX:
        dist = _kernels.apery_levels(target, prefix)
        j = min(g + dist[-g % target] for g in prefix) // target
        return j if j <= j_max else None
    require_desk_scale(min(prefix))
    semigroup = NumericalSemigroup(prefix)
    return next((j for j in range(1, j_max + 1) if semigroup.contains(j * target)), None)


def cstar_constants(
    arrangement: Sequence[int], *, _semigroup: NumericalSemigroup | None = None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """For each position i >= 2, the least k >= 1 with k * n_i in the
    monoid generated by the prefix, plus the canonical witness vector.

    k is a multiple j * q_i of q_i = d_{i-1} / d_i, and k * n_i is in the
    monoid exactly when j * t_i (t_i = n_i / d_i) is in the monoid of the
    prefix divided by d_{i-1}, whose entries are minimal: a representation
    of one by the others, times d_{i-1}, would be one in the arrangement.
    j = 1 exactly where the arrangement is telescopic, so the walk first
    asks the DFS ``is_telescopic`` runs for the witness of t_i, on a
    budget of the prefix table's cost.  A position left without one looks
    further (``_least_multiple``), then takes the DFS for j * t_i.
    ``_semigroup`` is the semigroup of the arrangement when the caller
    holds it: it is not minimalized again.
    """
    entries = validated_generators(arrangement)
    chain = tuple(accumulate(entries, math.gcd))
    if chain[-1] != 1:
        raise NotCoprimeError(chain[-1])
    if _semigroup is None or tuple(sorted(entries)) != _semigroup.generators:
        if len(set(entries)) != len(entries):
            raise ValueError("arrangement is not a minimal generating set (repeated entry)")
        minimal = NumericalSemigroup(entries).generators
        for g in entries:
            if g not in minimal:
                raise ValueError(f"arrangement is not a minimal generating set ({g} is redundant)")
    cstars: list[int] = []
    reps: list[tuple[int, ...]] = []
    for n_i, scaled_prefix, target, q in _divide_walk(entries, chain):
        k_max = INT64_MAX // n_i  # the largest k with k * n_i in 64 bits
        j_max = k_max // q
        budget = len(scaled_prefix) * min(scaled_prefix)  # the cells of the prefix table
        witness = _kernels.min_representation(target, scaled_prefix, budget) if j_max else None
        j = 1
        if witness is None:
            j = _least_multiple(scaled_prefix, target, j_max) if j_max else None
            if j is None:
                checked_int64((k_max + 1) * n_i, "c* search value")  # always raises
            witness = _kernels.min_representation(j * target, scaled_prefix)
            if witness is None:
                raise InvariantViolation(f"no witness for the member {j * target}")
        cstars.append(j * q)
        reps.append(witness)
    return tuple(cstars), tuple(reps)


def is_free(
    arrangement: Sequence[int], *, _semigroup: NumericalSemigroup | None = None
) -> FreeDecomposition | NotFree:
    """Freeness test for the given arrangement: n_1 must equal the product
    of the c* constants (see ``cstar_constants``).  Each c*_i is j_i q_i
    with j_i >= 1, and the q_i multiply to n_1, so the arrangement is free
    exactly when it is telescopic, and then c*_i = q_i with the telescopic
    witnesses (Rosales & García-Sánchez, *Numerical Semigroups*, 2009)."""
    entries = tuple(arrangement)  # validated by cstar_constants
    cstars, reps = cstar_constants(entries, _semigroup=_semigroup)
    product = math.prod(cstars)
    if product != entries[0]:
        return NotFree(entries, cstars, product)
    return FreeDecomposition(entries, cstars, reps)


def free_frobenius(fd: FreeDecomposition) -> int:
    """Frobenius number of a free semigroup: the maximal Apery element
    sum((c*_i - 1) n_i) minus n_1."""
    total = sum((c - 1) * n for c, n in zip(fd.cstars, fd.arrangement[1:]))
    return checked_int64(total - fd.arrangement[0], "free Frobenius number")


def _residues_distinct(arrangement: Sequence[int], cstars: Sequence[int]) -> bool:
    """True when the divide chain proves that the n_1 box sums (c* product
    n_1) have n_1 residues mod n_1; False says only that it does not.

    In e - 1 gcds: let g_0 = n_1 and g_j = gcd(g_{j-1}, n_{j+1}).  The
    residues n_2..n_{j+1} generate in Z/n_1 are the multiples of g_j, a
    subgroup of index g_{j-1} / g_j over that of g_{j-1}.  So when every
    c*_j is that index, the sums with lam_i = 0 past j fill the multiples
    of g_j once each, by induction on j: the c*_j multiples of n_{j+1}
    fall in distinct cosets of the multiples of g_{j-1}.  With the last g
    1 that is every residue once (Rosales & García-Sánchez, *Numerical
    Semigroups*, 2009: a free arrangement passes, its c* being the
    quotients of the gcd chain).  ``box_elements`` refuses a box the chain
    does not settle."""
    g = arrangement[0]
    for c, n in zip(cstars, arrangement[1:]):
        g, prev = math.gcd(g, n), g
        if c * g != prev:
            return False
    return g == 1


def _box_top(arrangement: Sequence[int], cstars: Sequence[int]) -> int:
    """The checks of ``box_elements``, then the box's largest element
    top = sum (c*_j - 1) n_j."""
    anchor = arrangement[0]
    require_desk_scale(anchor)
    if min(arrangement) < 1 or min(cstars, default=1) < 1:
        raise InvariantViolation(f"a c* box needs positive entries and c*, got {tuple(arrangement)}, {tuple(cstars)}")
    if len(cstars) != len(arrangement) - 1 or math.prod(cstars) != anchor:
        raise InvariantViolation(f"c* {tuple(cstars)} do not multiply to the anchor {anchor}")
    if not _residues_distinct(arrangement, cstars):
        raise InvariantViolation(
            f"the divide chain of {tuple(arrangement)} does not prove the c* {tuple(cstars)} box's residues distinct"
        )
    return checked_int64(sum((c - 1) * n for c, n in zip(cstars, arrangement[1:])), "free Apery element")


def box_is_apery(semigroup: NumericalSemigroup, arrangement: Sequence[int], cstars: Sequence[int]) -> bool:
    """True when the box of ``box_elements(arrangement, cstars)`` is
    Ap(semigroup, a), a = n_1, with no box built; False where
    ``box_elements`` raises ``InvariantViolation``.  Positive c* with product a over entries
    in S give a sums in S; with distinct residues each is at least the
    Apery element of its residue, so the box is Ap(S, a) exactly when the
    two sums agree.  The box is symmetric about top / 2, top =
    sum (c*_j - 1) n_j, so its sum is a top / 2; by Selmer's identity that
    of Ap(S, a) is a g + a (a - 1) / 2, g the genus (Rosales &
    García-Sánchez 2009, ch. 1).  They agree exactly when top - a = 2 g - 1."""
    try:
        top = _box_top(arrangement, cstars)
    except InvariantViolation:
        return False
    return all(semigroup.contains(n) for n in arrangement) and top - arrangement[0] == 2 * semigroup.genus() - 1


def box_levels(arrangement: Sequence[int], cstars: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The c* box of the arrangement, the sums over n_2..n_e with the
    coefficient of n_j below c*_j, swept level by level: one pair
    (top, offsets) per level that holds an element, in ascending order of
    level, whose elements, ascending, are top - o for o in ``offsets``.
    The checks run here, not at the first level: the anchor n_1 within
    the desk-scale limit, one c* per position i >= 2, every entry and c*
    at least 1, the c* product n_1, the divide chain's proof that the n_1
    residues are distinct (``_residues_distinct``) and the largest
    element in 64 bits.  A box the chain does not prove raises
    ``InvariantViolation``.

    No free arrangement is refused: a prefix's monoid lies in d_{i-1} N,
    so q_i = d_{i-1} / d_i divides c*_i, and the q_i multiply to n_1, so a
    coprime free arrangement with positive c* has c*_i = q_i, which is the
    chain's proof.  That covers ``free_apery``, the figurate
    ``*_apery`` functions and every command-line box.

    Write a sum over n_2..n_{e-1} (a base) as q n_e + r: its run
    base + lam n_e (lam < c*_e) holds the element level n_e + r at each
    level q..q + c*_e - 1.  The elements are distinct, so the residues r
    active at one level are too, and the level's run is level n_e plus
    the active residues, kept sorted: top = (level + 1) n_e less the
    offsets n_e - r.  A level with no active residue is skipped, so the
    sweep's steps are bounded by the elements, not by the levels.  Levels
    between two entries or exits of a run share one offsets tuple."""
    _box_top(arrangement, cstars)
    n, c = (arrangement[-1], cstars[-1]) if cstars else (1, 1)
    bases = [0]
    for c_j, n_j in zip(cstars[:-1], arrangement[1:-1]):
        bases = [base + lam * n_j for base in bases for lam in range(c_j)]
    bases.sort()
    # (first level, n_e - offset), in order of entry and of exit.  A run is
    # read as (level + 1) n_e minus these, reversed: a difference of
    # positive ints takes the larger's size, a sum one digit more, which
    # past 2**30 is a 48-byte int, not a 32-byte one.
    runs = [(base // n, n - base % n) for base in bases]

    def levels() -> Iterator[tuple[int, tuple[int, ...]]]:
        active: list[int] = []
        entered = left = 0
        level = runs[0][0]
        while left < len(runs):
            while left < entered and runs[left][0] + c == level:
                del active[bisect_left(active, runs[left][1])]
                left += 1
            while entered < len(runs) and runs[entered][0] == level:
                insort(active, runs[entered][1])
                entered += 1
            if not active:
                if entered < len(runs):
                    level = runs[entered][0]
                continue
            stop = runs[left][0] + c
            if entered < len(runs):
                stop = min(stop, runs[entered][0])
            offsets = tuple(reversed(active))
            for top in range(level * n + n, stop * n + n, n):
                yield top, offsets
            level = stop

    return levels()


def box_elements(arrangement: Sequence[int], cstars: Sequence[int]) -> Iterator[int]:
    """The c* box of the arrangement in ascending order: the levels of
    ``box_levels``, flattened.  Its checks run here, not at the first
    element."""
    return chain.from_iterable(map(sub, repeat(top), offsets) for top, offsets in box_levels(arrangement, cstars))


def apery_box(arrangement: Sequence[int], cstars: Sequence[int]) -> AperySet:
    """Apery set of n_1 over a free arrangement: the elements of
    ``box_elements(arrangement, cstars)`` filed by residue mod n_1 into the
    checked ``AperySet`` (Rosales & García-Sánchez, *Numerical
    Semigroups*, 2009).

    Here n_1 is the arrangement's first entry, the anchor, which need not
    be the multiplicity: for reversed tetrahedral n it is TH_{n+3}."""
    anchor = arrangement[0]
    by_residue = [0] * anchor
    for element in box_elements(arrangement, cstars):
        by_residue[element % anchor] = element
    return AperySet(anchor, tuple(by_residue))


def free_apery(fd: FreeDecomposition) -> AperySet:
    """Apery set of n_1 of a free semigroup: the box of its c*."""
    return apery_box(fd.arrangement, fd.cstars)


def free_presentation(fd: FreeDecomposition) -> Presentation:
    """The e-1 relation pairs (c*_i x_i, witness over x_1..x_{i-1})."""
    e = len(fd.arrangement)
    relations = []
    for i in range(2, e + 1):
        lhs = [0] * e
        lhs[i - 1] = fd.cstars[i - 2]
        rhs = list(fd.reps[i - 2]) + [0] * (e - i + 1)
        relations.append((tuple(lhs), tuple(rhs)))
    return Presentation(fd.arrangement, tuple(relations))


def free_betti(fd: FreeDecomposition) -> set[int]:
    """Betti elements of a free semigroup: the values c*_i n_i."""
    return {
        checked_int64(c * n, "Betti element")
        for c, n in zip(fd.cstars, fd.arrangement[1:])
    }


def johnson_reduce(a1: int, a2: int, a3: int) -> int:
    """Three-generator gcd reduction: with d = gcd(a1, a2),
    F(a1, a2, a3) = d * F(a1/d, a2/d, a3) + (d - 1) * a3."""
    entries = validated_generators((a1, a2, a3))
    d_all = gcd_list(entries)
    if d_all != 1:
        raise NotCoprimeError(d_all)
    d = math.gcd(a1, a2)
    inner = NumericalSemigroup((a1 // d, a2 // d, a3)).frobenius()
    return checked_int64(d * inner + (d - 1) * a3, "Frobenius number")


def brauer_shockley_frobenius(seq: Sequence[int], *, _semigroup: NumericalSemigroup | None = None) -> int:
    """Frobenius number via repeated gcd reduction.

    One step: with d the gcd of all entries but the last,
    F(a_1, ..., a_n) = d * F(a_1/d, ..., a_{n-1}/d, a_n) + (d - 1) a_n.
    Before each step the redundant generators are dropped; the kept ones
    keep their input order, a repeated one at its last occurrence.  The
    reversed arrangement is tried when the forward gcd is 1, which covers
    every telescopic arrangement in either direction; if neither direction
    reduces and nothing is droppable, the Apery oracle finishes the job.
    For telescopic inputs the recursion is exact in n-1 steps.
    ``_semigroup`` is the semigroup of ``seq`` when the caller holds it:
    its generators are not minimalized again, and its table serves the
    fallback.
    """
    entries = validated_generators(seq)
    if len(entries) < 2:
        raise ValueError("need at least 2 generators")
    d = gcd_list(entries)
    if d != 1:
        raise NotCoprimeError(d)
    return _brauer_shockley(entries, _semigroup)


def _brauer_shockley(entries: tuple[int, ...], semigroup: NumericalSemigroup | None = None) -> int:
    """``brauer_shockley_frobenius`` of validated coprime ``entries``, whose
    semigroup is ``semigroup`` or built here.  Each level arranges that
    semigroup's minimal generators as in ``entries``, and its Apery
    fallback reads that semigroup's table."""
    if semigroup is None:
        semigroup = NumericalSemigroup(entries)
    work = arranged_minimal(entries, semigroup.generators)
    if len(work) == 1:
        # dropping preserves the overall gcd, so the survivor is 1
        if work[0] != 1:
            raise InvariantViolation(f"reduction left a single generator {work[0]} != 1")
        return -1
    if len(work) == 2:
        a, b = sorted(work)
        return checked_int64(a * b - a - b, "Frobenius number")
    d = gcd_list(work[:-1])
    if d > 1:
        inner = _brauer_shockley(tuple(x // d for x in work[:-1]) + (work[-1],))
        return checked_int64(d * inner + (d - 1) * work[-1], "Frobenius number")
    d = gcd_list(work[1:])
    if d > 1:
        inner = _brauer_shockley(tuple(x // d for x in work[1:]) + (work[0],))
        return checked_int64(d * inner + (d - 1) * work[0], "Frobenius number")
    return semigroup.frobenius()
