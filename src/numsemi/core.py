"""Generic numerical-semigroup engine.

Ground truth for everything else in the package: minimal generators,
membership, Apery/Frobenius/Betti oracles, factorization enumeration and
shared-support class analysis.  All routines are exact and deterministic
(sorted generators, one canonical vector enumeration order) so outputs
are byte-stable across runs.

Two places decide how membership is answered, each between the
coefficient DFS and an Apery table:

- ``NumericalSemigroup.contains`` reads the table of the smallest
  generator up to the desk-scale limit ``APERY_MATERIALIZE_LIMIT``, and
  runs the DFS only above it, where no table may be built.  The table is
  held in the coset form of ``_kernels.apery_cosets``, from which
  membership, the Frobenius number and the genus are read; it is filled
  out only where every cell is needed (``apery``, ``betti_elements``).
  Construction asks it too where the budgeted DFS for an entry gives
  up, or, where that table would pass the limit or 64 bits, the
  semigroup of the kept entries over their gcd.
- ``telescopic.cstar_constants`` asks the DFS for a c* witness on the
  same kind of budget; ``telescopic._least_multiple`` then asks the
  prefix semigroup, or the table mod the target when the prefix table is
  past the limit.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from numsemi import _kernels
from numsemi._record import Record, set_field
from numsemi.arith import INT64_MAX, checked_int64, gcd_list, validated_generators
from numsemi.errors import InvariantViolation, NotCoprimeError

# Largest Apery set (one int per residue) the package materializes.
APERY_MATERIALIZE_LIMIT = 10_000_000


def require_desk_scale(size: int) -> None:
    """Refuse an Apery set of more than ``APERY_MATERIALIZE_LIMIT`` elements."""
    if size > APERY_MATERIALIZE_LIMIT:
        raise ValueError(
            f"Apery set of size {size} exceeds the desk-scale limit ({APERY_MATERIALIZE_LIMIT})"
        )


def evaluate(vector: Sequence[int], gens: Sequence[int]) -> int:
    """Value of a factorization vector: sum of coefficient * generator."""
    if len(vector) != len(gens):
        raise ValueError("vector length does not match generator count")
    return sum(c * g for c, g in zip(vector, gens))


class AperySet(Record):
    """Least semigroup element in every residue class mod ``anchor``.

    ``by_residue[r]`` is the least element congruent to r; entry 0 is 0;
    the Frobenius number is ``max(by_residue) - anchor``.
    """

    __slots__ = ("anchor", "by_residue")

    def __init__(self, anchor: int, by_residue: tuple[int, ...]) -> None:
        set_field(self, "anchor", anchor)
        set_field(self, "by_residue", by_residue)
        if anchor < 1:
            raise ValueError(f"anchor must be >= 1, got {anchor}")
        if len(by_residue) != anchor:
            raise InvariantViolation(f"Apery set must have exactly {anchor} elements, got {len(by_residue)}")
        if by_residue[0] != 0:
            raise InvariantViolation("Apery element for residue 0 must be 0")
        for r, el in enumerate(by_residue):
            if el % anchor != r or el < 0:
                raise InvariantViolation(
                    f"Apery element {el} is negative" if el < 0 else f"Apery element {el} filed under residue {r}"
                )

    def max_element(self) -> int:
        return max(self.by_residue)

    def frobenius(self) -> int:
        return self.max_element() - self.anchor

    def __len__(self) -> int:
        return self.anchor

    def __iter__(self) -> Iterator[int]:
        return iter(self.by_residue)


class RsPartition(Record):
    """Factorizations of ``value`` grouped into shared-support components.

    Two factorizations land in one class iff they are joined by a chain of
    factorizations in which consecutive vectors overlap in support.  More
    than one class marks ``value`` as a Betti element.
    """

    __slots__ = ("value", "classes")

    def __init__(self, value: int, classes: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        set_field(self, "value", value)
        set_field(self, "classes", classes)

    def class_count(self) -> int:
        return len(self.classes)


class NumericalSemigroup:
    """A numerical semigroup held by its minimal generating set.

    Construction reduces any coprime generator list to the unique minimal
    system, sorted ascending.  Immutable apart from two caches populated
    at most once, both of the Apery table of n_1: its coset form
    (``_kernels.apery_cosets``, built over the entries construction
    scanned, so its last arc may be a redundant entry), from which
    membership, the Frobenius number and the genus are read, and the
    whole table, filled from it on first use by ``apery`` or
    ``betti_elements``.
    Racing writers recompute identical values, so concurrent readers are
    safe.
    """

    __slots__ = ("generators", "_cosets", "_apery_table")

    def __init__(self, entries: Sequence[int]) -> None:
        seq = validated_generators(entries)
        d = gcd_list(seq)
        if d != 1:
            raise NotCoprimeError(d)
        # A least entry of a table of n_1 lies below n_1 times the largest
        # generator, so an entry g >= n_1 max(entries < g) that the gcd of
        # those entries divides is redundant, and left out at once.  The
        # rest generate S, so the table of n_1 that ``contains`` builds over
        # them stays the semigroup's.  An entry g is dropped when the DFS,
        # on a budget of len(kept) n_1 nodes (the table's cost), finds it
        # over the smaller kept ones, or once the DFS gives up, when g - x
        # is in S for some kept x < g.  Where that table is past the
        # desk-scale limit or 64 bits, g / d is asked of <kept / d>,
        # d = gcd(kept), or, where its table is too, the DFS runs to the end.
        gens: list[int] = []
        for g in sorted(set(seq)):
            if not (gens and g >= gens[0] * gens[-1] and g % gcd_list(gens) == 0):
                gens.append(g)
        self.generators = tuple(gens)
        self._cosets: tuple[list[int], int, int] | None = None
        self._apery_table: list[int] | None = None
        m = gens[0]
        tabled = m <= APERY_MATERIALIZE_LIMIT
        below: NumericalSemigroup | None = None  # <kept / d>, for the current kept
        kept: list[int] = []
        for g in gens:
            found = bool(kept) and _kernels.is_representable(g, kept, len(kept) * m)
            if found is None and tabled:
                try:
                    found = any(self.contains(g - x) for x in kept)
                except OverflowError:
                    tabled = False
            if found is None:
                d = gcd_list(kept)
                if m // d > APERY_MATERIALIZE_LIMIT or m * kept[-1] > INT64_MAX:
                    found = _kernels.is_representable(g, kept)
                else:
                    below = below or NumericalSemigroup([k // d for k in kept])
                    found = g % d == 0 and below.contains(g // d)
            if not found:
                kept.append(g)
                below = None
        self.generators = tuple(kept)

    def __repr__(self) -> str:
        return f"NumericalSemigroup(⟨{', '.join(map(str, self.generators))}⟩)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def _apery_cosets(self) -> tuple[list[int], int, int]:
        """The table of n_1 in coset form (base, d, g): the least element
        at (i d + j g) mod n_1 is base[i] + j g for 0 <= j < d."""
        if self._cosets is None:
            m = self.generators[0]
            require_desk_scale(m)
            self._cosets = _kernels.apery_cosets(m, self.generators)
        return self._cosets

    def _smallest_apery(self) -> list[int]:
        if self._apery_table is None:
            self._apery_table = _kernels.fill_cosets(*self._apery_cosets())
        return self._apery_table

    def contains(self, x: int) -> bool:
        """Membership test; 0 is always in, negatives never are.

        Answered from the coset form of the table of the smallest
        generator, built once: the residue r = x mod n_1 lies in coset
        j = r g^-1 mod d, so its least element is base[(r - j g) mod n_1 / d]
        + j g.  Only above the desk-scale limit, where no table may be
        built, does each call run the coefficient DFS instead.
        """
        if x <= 0:
            return x == 0
        m = self.generators[0]
        if m > APERY_MATERIALIZE_LIMIT:
            return _kernels.is_representable(x, self.generators)
        base, d, g = self._apery_cosets()
        r = x % m
        j = r * pow(g, -1, d) % d
        return x >= base[(r - j * g) % m // d] + j * g

    def apery(self, m: int | None = None) -> AperySet:
        """Apery set of ``m`` (default: the smallest generator).

        ``m`` must be a non-zero element of the semigroup.
        """
        if m is None:
            m = self.generators[0]
        if m < 1:
            raise ValueError(f"Apery anchor must be >= 1, got {m}")
        require_desk_scale(m)
        if not self.contains(m):
            raise ValueError(f"{m} is not an element of {self!r}")
        if m == self.generators[0]:
            table = self._smallest_apery()
        else:
            table = _kernels.apery_levels(m, self.generators)
        return AperySet(m, tuple(table))

    def frobenius(self) -> int:
        """Largest integer outside the semigroup; -1 for the whole of N.
        The largest entry of the table of n_1 is max(base) + (d - 1) g."""
        base, d, g = self._apery_cosets()
        return max(base) + (d - 1) * g - self.generators[0]

    def genus(self) -> int:
        """Number of gaps, by Selmer's formula on the table of n_1:
        the sum of Ap(S, n_1) is n_1 g + n_1 (n_1 - 1) / 2.  In coset form
        each base cell b stands for b, b + l, ..., b + (d - 1) l, l the
        last arc of the coset form (the largest entry the table was built
        over), so the table sums to d sum(base) + n_1 l (d - 1) / 2."""
        m = self.generators[0]
        base, d, last = self._apery_cosets()
        total = d * sum(base) + m * last * (d - 1) // 2
        return (2 * total - m * (m - 1)) // (2 * m)

    def factorizations(self, s: int) -> list[tuple[int, ...]]:
        """All coefficient vectors over the minimal generators evaluating to s."""
        return _kernels.factorizations_of(s, self.generators)

    def rs_partition(self, s: int) -> RsPartition:
        """Shared-support components of the factorizations of ``s`` (s must be in S)."""
        facts = self.factorizations(s)
        if not facts:
            raise ValueError(f"{s} is not an element of {self!r}")
        parent = list(range(len(facts)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        for pos in range(len(self.generators)):
            first = -1
            for idx, v in enumerate(facts):
                if v[pos] > 0:
                    if first < 0:
                        first = idx
                    else:
                        union(first, idx)
        groups: dict[int, list[tuple[int, ...]]] = {}
        for idx, v in enumerate(facts):
            groups.setdefault(find(idx), []).append(v)
        classes = tuple(tuple(groups[root]) for root in sorted(groups))
        return RsPartition(s, classes)

    def betti_elements(self, bound: int | None = None) -> set[int]:
        """Elements whose factorizations split into >= 2 support classes.

        No factorization is enumerated.  The support classes of s match the
        connected components of the graph G_s on the generators: n_i is a
        vertex when s - n_i is in S, and n_i, n_j are joined when
        s - n_i - n_j is in S (Rosales & García-Sánchez, *Numerical
        Semigroups*, 2009, ch. 7).  A component without n_1 has a vertex n_i
        with s - n_i - n_1 outside S, so every Betti element is w + n_i for
        some w in Ap(S, n_1) and i >= 2, and at most F + n_1 + n_e.  The
        default bound F + n_{e-1} + n_e therefore misses no Betti element of
        any semigroup; an explicit bound caps the result.

        Every membership query is answered by the table of n_1, and the
        candidates up to top = min(bound, F + n_1 + n_e) are tested in one
        of two ways.  With at most 32 bits per candidate, that is
        top + 1 <= 32 n_1 (e - 1), all of them at once on Python ints used
        as bitsets over 0..top (``_betti_bits``).  The bitsets grow with F,
        not with n_1, so a sparse semigroup takes the loop that tests each
        distinct candidate once instead (``_betti_loop``): the two cost the
        same near 100 bits per candidate, and the loop's memory stays
        O(n_1 (e - 1)) whatever F is.
        """
        e = self.embedding_dimension
        gens = self.generators
        if bound is None:
            if e == 1:
                return set()
            bound = self.frobenius() + gens[-1] + gens[-2]
        checked_int64(bound, "Betti scan bound")
        m = gens[0]
        # both factorizations of a Betti element have length >= 2; N has none
        if e == 1 or bound < 2 * m:
            return set()
        table = self._smallest_apery()
        # no candidate w + n_i lies above max Ap(S, n_1) + n_e = F + n_1 + n_e
        top = min(bound, self.frobenius() + m + gens[-1])
        scan = _betti_bits if top + 1 <= 32 * m * (e - 1) else _betti_loop
        return scan(gens, table, top)


def _betti_bits(gens: tuple[int, ...], table: list[int], top: int) -> set[int]:
    """Betti elements up to ``top`` of the semigroup with minimal generators
    ``gens`` and Apery table ``table`` of n_1, every candidate at once.

    Bit p of each int stands for p in 0..top.  A holds Ap(S, n_1), M the
    OR of A << k n_1 over k >= 0, which is S, and C the OR of A << n_i over
    i >= 2, the candidates.  V_j = (M << n_j) & C holds the s with vertex
    n_j in G_s, and M << (n_j + n_k) the s whose G_s joins n_j and n_k.
    Each s is reached from its last vertex; e - 1 rounds cover
    every path, and a vertex left unreached marks s as split.
    """
    m = gens[0]
    mask = (1 << (top + 1)) - 1
    # Ap(S, n_1) as ASCII digits, position top first
    digits = bytearray(b"0") * (top + 1)
    for w in table:
        if w <= top:
            digits[top - w] = 49  # ord("1")
    apery = int(digits, 2)
    del digits
    # S = Ap(S, n_1) + n_1 N: the shifts by k n_1 double at every step
    member = apery
    step = m
    while step <= top:
        member |= member << step
        step <<= 1
    member &= mask
    cands = 0
    for g in gens[1:]:
        cands |= apery << g
    cands &= mask
    verts = [(member << g) & cands for g in gens]
    e = len(gens)
    reached = [0] * e
    later = 0
    for k in range(e - 1, -1, -1):
        reached[k] = verts[k] & ~later
        later |= verts[k]
    for _ in range(e - 1):
        for k in range(e):
            r = reached[k]
            # s - n_j - n_k in S puts s - n_k in S: a join never leaves V_k
            for j in range(e):
                if j != k:
                    r |= reached[j] & (member << (gens[j] + gens[k]))
            reached[k] = r
    split = 0
    for v, r in zip(verts, reached):
        split |= v & ~r
    # the set bits of split, low to high
    bits = f"{split:b}"
    out: set[int] = set()
    i = bits.rfind("1")
    while i >= 0:
        out.add(len(bits) - 1 - i)
        i = bits.rfind("1", 0, i)
    return out


def _betti_loop(gens: tuple[int, ...], table: list[int], top: int) -> set[int]:
    """``_betti_bits`` one distinct candidate at a time, every membership
    query a lookup x >= table[x % n_1]: memory O(n_1 (e - 1)) whatever F."""
    m = gens[0]
    out: set[int] = set()
    # table entries are >= 0, so a negative x is never counted in S
    for s in {w + g for g in gens[1:] for w in table}:
        if s > top:
            continue
        rest = [g for g in gens if (x := s - g) >= table[x % m]]
        if len(rest) < 2:
            continue
        # grow the component of one vertex; G_s is split iff it stops short
        reached = [rest.pop()]
        for a in reached:
            t = s - a
            i = 0
            while i < len(rest):
                if (x := t - rest[i]) >= table[x % m]:
                    reached.append(rest.pop(i))
                else:
                    i += 1
            if not rest:
                break
        else:
            out.add(s)
    return out


def minimal_generators(entries: Sequence[int]) -> NumericalSemigroup:
    """The numerical semigroup generated by ``entries`` (gcd must be 1)."""
    return NumericalSemigroup(entries)


def representation(x: int, gens: Sequence[int]) -> tuple[int, ...] | None:
    """Canonical witness vector for ``x`` over ``gens``, or None.

    Deterministic: the first vector in the canonical enumeration order
    (smallest coefficients on the latest generators).
    """
    seq = validated_generators(gens)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _kernels.min_representation(x, seq)


def frobenius_oracle(entries: Sequence[int]) -> int:
    """Brute-force Frobenius number via the Apery set of the smallest
    minimal generator: max(Ap(S, m)) - m."""
    return NumericalSemigroup(entries).frobenius()
