"""The kernels' contracts: canonical enumeration order, shared by the
three kernels of the coefficient DFS, Apery tables checked against the
heap Dijkstra the round robin replaced and against a brute-force sweep,
the coset form of the table and the engine's queries on it, overflow and
input-domain errors."""

from __future__ import annotations

import gc
import itertools
import math
import operator
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsemi import _kernels
from numsemi.core import NumericalSemigroup
from numsemi.figurate import (
    tetrahedral_cstar,
    tetrahedral_generators,
    triangular_cstar,
    triangular_generators,
)

from oracles import dfs_representations, dijkstra_apery, naive_apery, naive_genus


def test_backend_constant():
    assert _kernels.BACKEND == "python"


def test_canonical_enumeration_order():
    assert _kernels.factorizations_of(30, (6, 10, 15)) == [(5, 0, 0), (0, 3, 0), (0, 0, 2)]
    assert _kernels.min_representation(30, (6, 10)) == (5, 0)


DFS_KERNELS = (_kernels.min_representation, _kernels.is_representable, _kernels.factorizations_of)


def _raised(kernel, x, gens) -> tuple[type, str]:
    with pytest.raises((ValueError, OverflowError)) as raised:
        kernel(x, gens)
    return type(raised.value), str(raised.value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-5, max_value=300),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-3, max_value=0),
)
def test_dfs_kernels_share_one_enumeration(x, gens, at, bad):
    gens = tuple(gens)
    # the DFS tries every coefficient of n_2..n_e: keep that space small
    assume(math.prod(x // g + 1 for g in gens[1:]) <= 20_000)
    facts = _kernels.factorizations_of(x, gens)
    assert facts == sorted(set(facts), key=lambda v: v[::-1])  # canonical order
    assert all(sum(c * g for c, g in zip(v, gens)) == x for v in facts)
    assert _kernels.min_representation(x, gens) == next(iter(facts), None)
    assert _kernels.is_representable(x, gens) == bool(facts)
    # the same refusal from each kernel; a negative x is only refused
    # for an empty generator list, so the other cases take x >= 0
    y, at = max(x, 0), min(at, len(gens))
    for args in (
        (x, ()),
        (y, gens[:at] + (bad,) + gens[at:]),
        (y, gens[:at] + (2**63,) + gens[at:]),
        (2**63 + y, gens),
    ):
        assert len({_raised(kernel, *args) for kernel in DFS_KERNELS}) == 1, args


def _nodes_to_first(x: int, gens: tuple[int, ...]) -> int:
    """The nodes the canonical DFS enters up to its first vector of x over
    gens, or in all when there is none: one per call, level 0 included.  A
    root remainder off the gcd of gens is counted and left at once; below
    it, a level enters only the coefficients that leave a multiple of the
    prefix gcd of the levels below, found here by filtering them all, and
    of those only the ones below the first plus t = lcm(period, m / gcd(m,
    g)), m the least generator below: each of them fails until the first
    vector, and past them none can succeed."""
    if x < 0:
        return 0
    pg = list(itertools.accumulate(gens, math.gcd))
    count = 0

    def enter(i: int, rem: int) -> bool:
        nonlocal count
        count += 1
        if rem % pg[i]:
            return False
        if i == 0:
            return True
        g, m = gens[i], min(gens[:i])
        coefficients = [c for c in range(rem // g + 1) if (rem - c * g) % pg[i - 1] == 0]
        t = math.lcm(pg[i - 1] // pg[i], m // math.gcd(m, g))
        return any(enter(i - 1, rem - c * g) for c in coefficients if c < coefficients[0] + t)

    enter(len(gens) - 1, x)
    return count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-2, max_value=300),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=50),
)
@example(30, [6, 10, 15], 0)  # found at the first leaf
@example(29, [6, 10, 15], 0)  # no vector
@example(126, [4, 6, 9], 0)  # period 2 at levels 1 and 2
def test_a_budgeted_walk_answers_within_its_budget_and_gives_up_past_it(x, gens, slack):
    gens = tuple(gens)
    assume(math.prod(x // g + 1 for g in gens[1:]) <= 20_000)
    nodes = _nodes_to_first(x, gens)
    witness = _kernels.min_representation(x, gens)
    member = _kernels.is_representable(x, gens)
    for budget in (nodes, nodes + slack):
        assert _kernels.min_representation(x, gens, budget) == witness
        assert _kernels.is_representable(x, gens, budget) is member
    for budget in {max(nodes - 1 - slack, 0), nodes - 1} if nodes else ():
        assert _kernels.min_representation(x, gens, budget) is None
        assert _kernels.is_representable(x, gens, budget) is None


@st.composite
def scaled_lower_prefix(draw):
    """x and a list whose first k >= 2 entries share a factor D, so that
    level k, and at times those above it, step through a class of period
    > 1 as well as level 1."""
    gens = draw(st.lists(st.integers(1, 60), min_size=3, max_size=5))
    k = draw(st.integers(2, len(gens)))
    D = draw(st.integers(2, 30))
    return draw(st.integers(-2, 2000)), [D * g for g in gens[:k]] + gens[k:]


@st.composite
def coprime_lower_prefix(draw):
    """x and a list whose first k >= 2 entries are coprime and whose later
    entries are small, so that those levels step every coefficient (period
    1) and stop after a run of failed steps no longer than the least entry
    below them."""
    lower = draw(st.lists(st.integers(2, 60), min_size=2, max_size=3).filter(lambda xs: math.gcd(*xs) == 1))
    upper = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    return draw(st.integers(-2, 600)), lower + upper


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.integers(min_value=-2, max_value=300), st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5)),
        scaled_lower_prefix(),
        coprime_lower_prefix(),
    )
)
@example((30, [6, 10, 15]))
@example((126, [4, 6, 9]))  # period 2 at levels 1 and 2
@example((299, [60, 7]))  # (3, 17): 17 is the class 299 / 7 mod 60
@example((500, [12, 18, 20, 7]))  # periods 2, 3 and 2 at levels 1, 2 and 3
@example((119, [10, 21, 20]))  # 20 over the coprime (10, 21): one failed step ends the level
@example((400, [35, 12, 8, 5]))  # failed runs end after 3 steps of 8 and 8 steps of 5
def test_each_level_steps_through_one_coefficient_class_and_keeps_the_dfs_vectors(case):
    x, gens = case
    gens = tuple(gens)
    assume(math.prod(x // g + 1 for g in gens[1:]) <= 20_000)
    vectors = dfs_representations(x, gens)
    assert _kernels.factorizations_of(x, gens) == vectors
    assert _kernels.min_representation(x, gens) == next(iter(dfs_representations(x, gens, first=True)), None)
    assert _kernels.is_representable(x, gens) is bool(vectors)


def test_the_dfs_leaves_no_garbage_for_the_cyclic_collector():
    # the walk's recursive closure held itself through its cell, so every
    # call left a cycle of about a hundred objects only gc could free
    def stop(coeffs):
        raise LookupError

    gc.collect()
    gc.disable()
    try:
        assert _kernels.min_representation(1000, (7, 11, 13)) is not None
        assert _kernels.is_representable(1000, (7, 11, 13)) is True
        assert _kernels.is_representable(1000, (7, 11, 13), budget=2) is None
        assert len(_kernels.factorizations_of(100, (3, 5, 7))) > 1
        with pytest.raises(LookupError):
            _kernels._walk(100, (3, 5, 7), stop)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_level_over_a_coprime_prefix_stops_after_one_failed_cycle():
    # the coefficient of 2000 over (1000, 10**15 + 1) ran through about
    # 5e11 steps that all fail; 2000 is 2 * 1000, so one failed step ends it
    B = 10**15 + 1
    start = time.perf_counter()
    assert _kernels.is_representable(B + 6, (1000, B, 2000)) is False
    assert _kernels.factorizations_of(B + 6, (1000, B, 2000)) == []
    assert _kernels.min_representation(3 * B + 4000, (1000, B, 2000)) == (4, 3, 0)
    assert time.perf_counter() - start < 5


def test_a_lower_prefix_with_a_large_gcd_is_one_class_per_level():
    # the levels over (2D, 3D) and 5 tried each coefficient of 5 up to
    # about 2e9 and ran for minutes
    D = 10**10 + 1
    start = time.perf_counter()
    assert _kernels.min_representation(5 * 10**9, (2 * D, 3 * D, 5)) == (0, 0, 10**9)
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    assert _kernels.is_representable(10**10 + 6, (2 * D, 3 * D, 5)) is False
    assert time.perf_counter() - start < 5


# The table filled, and its coset form: the errors of both are one contract.
APERY_ENTRY_POINTS = (_kernels.apery_levels, _kernels.apery_cosets)


def _filled(m, gens):
    return _kernels.fill_cosets(*_kernels.apery_cosets(m, gens))


def test_apery_trivial_modulus():
    assert _kernels.apery_levels(1, ()) == [0]
    assert _kernels.apery_cosets(1, ()) == ([0], 1, 0)


def test_apery_levels_builds_its_table_through_the_module_coset_kernel(monkeypatch):
    # a patch of apery_cosets sees each whole table once, so counting
    # tables needs no second patch on apery_levels
    seen = []
    apery_cosets = _kernels.apery_cosets

    def counted(m, gens):
        seen.append((m, tuple(gens)))
        return apery_cosets(m, gens)

    monkeypatch.setattr(_kernels, "apery_cosets", counted)
    assert _kernels.apery_levels(10, (10, 12, 15)) == dijkstra_apery(10, (10, 12, 15))
    assert seen == [(10, (10, 12, 15))]


def test_apery_rejects_unreachable_residues():
    # (4, (2**61 + 2,)): residues 1 and 3 are unreachable, and no entry
    # overflows.
    # (6, (2, 2**62)): the arc 2**62 keeps to the even residues, and no
    # entry overflows.
    for m, gens in ((4, (6, 10)), (4, ()), (3, (3, 6)), (4, (2**61 + 2,)), (6, (2, 2**62))):
        for kernel in APERY_ENTRY_POINTS:
            with pytest.raises(ValueError, match="unreachable residue class"):
                kernel(m, gens)


def test_apery_overflow_guard():
    # The residue named is that of the least entry whose sum with the
    # largest arc overflows: the first one Dijkstra meets.
    big = 2**62
    for kernel in APERY_ENTRY_POINTS:
        with pytest.raises(OverflowError, match="near residue 4$"):
            kernel(5, (big, big + 1))
        with pytest.raises(OverflowError, match="near residue 1$"):
            kernel(2, (2, big + 1))
        # Entry plus largest arc: 2**63 overflows, 2**63 - 2 does not.
        with pytest.raises(OverflowError, match="near residue 1$"):
            kernel(2, (big - 1, big + 1))
        # The earlier arcs reach the multiples of D = 2 or 3 only; the
        # last arc's fill overflows in the coset of the residue named.
        for m, gens, residue in (
            (4, (2, big + 1), 1),
            (6, (4, big + 3), 1),
            (10, (4, big - 1), 7),
            (9, (3, 2**63 - 10), 7),
        ):
            with pytest.raises(OverflowError, match=f"near residue {residue}$"):
                kernel(m, gens)
    assert _kernels.apery_levels(2, (big - 3, big + 1)) == [0, big - 3]
    # the arc big - 3 reaches both residues: d = 1, the base is the table
    assert _kernels.apery_cosets(2, (big - 3, big + 1)) == ([0, big - 3], 1, big + 1)


def test_apery_overflow_scan_boundary():
    # 49 * G is exactly 2**63 - 1, so the largest entry 48 * G plus the
    # arc G still fits; with G + 1 the entry 48 * (G + 1) does not
    G = (2**63 - 1) // 49
    assert math.gcd(G, 49) == 1
    table = _kernels.apery_levels(49, (G,))
    assert table == _filled(49, (G,)) == dijkstra_apery(49, (G,))
    assert max(table) == 48 * G == 2**63 - 1 - G
    for kernel in (*APERY_ENTRY_POINTS, dijkstra_apery):
        with pytest.raises(OverflowError, match="near residue 31$"):
            kernel(49, (G + 1,))


def test_round_robin_matches_heap_dijkstra_on_verify_moduli():
    # verify builds the oracle table mod n_1 and mod the free arrangement's
    # anchor (TH_{n+3} when the tetrahedral arrangement is reversed).
    # The largest moduli the verify-figurate benchmark builds are those of
    # triangular n = 339, 340 and tetrahedral n = 79, 80.
    families = [(triangular_generators(n), triangular_cstar(n)) for n in [*range(3, 61), 339, 340]]
    families += [(tetrahedral_generators(n), tetrahedral_cstar(n)) for n in [*range(4, 31), 79, 80]]
    for gens, form in families:
        for m in {gens[0], form.arrangement[0]}:
            assert _kernels.apery_levels(m, gens) == dijkstra_apery(m, gens), (m, gens)


@st.composite
def subgroup_growth(draw):
    """A modulus with several small prime factors and generators that are
    multiples of its divisors, so the reached residues grow in several
    steps; padded with multiples of m and repeated generators, which add
    no arc.  The gcd of m and the generators may exceed 1."""
    m = math.prod(p ** draw(st.integers(0, top)) for p, top in ((2, 3), (3, 2), (5, 1), (7, 1)))
    divisors = [q for q in range(1, m + 1) if m % q == 0]
    gens = draw(st.lists(st.builds(operator.mul, st.sampled_from(divisors), st.integers(1, 12)), min_size=1, max_size=5))
    gens += [m * c for c in draw(st.lists(st.integers(1, 3), max_size=2))]
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return m, draw(st.permutations(gens))


def _outcome(kernel, m, gens):
    try:
        return kernel(m, gens)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subgroup_growth())
# reached residues 1 -> 3 (columns) -> 6 (rows) -> 12 (rows); the arc 8
# adds no coset, and its closing pass relaxes the multiples of 2
@example((12, (4, 6, 8, 9)))
# 1 -> 6 -> 12 -> 60: the arcs 15 and 49 close the reached cells under 30
# and 245, then fill by rows
@example((60, (10, 15, 49)))
# 1 -> 3 -> 30 -> 120: 3 reached cells, closed under 440, fill 9 new
# cosets by columns
@example((120, (40, 44, 121)))
# 1 -> 2: residues 1 and 3 stay unreachable
@example((4, (6, 10, 4)))
def test_round_robin_matches_heap_dijkstra_as_the_reached_subgroup_grows(case):
    m, gens = case
    assert _outcome(_kernels.apery_levels, m, gens) == _outcome(dijkstra_apery, m, gens)


@st.composite
def scaled_prefix(draw):
    """m = D q and earlier generators D p_i with gcd(q, p) = 1, so they
    reach exactly the multiples of D, then a last generator coprime to D
    above them, at times near 2**62 or 2**63 so the fill overflows."""
    D = draw(st.integers(2, 12))
    q = draw(st.integers(1, 15))
    prefix = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    assume(math.gcd(q, *prefix) == 1)
    top = D * max(prefix)
    g = top + draw(st.one_of(st.integers(1, 200), st.integers(2**62 - top, 2**63 - 1 - top)))
    assume(math.gcd(g, D) == 1)
    return D * q, draw(st.permutations([D * p for p in prefix] + [g])), D


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_prefix())
# D = 4: 3 base cells; the arc 9 closes them under 36
@example((12, (8, 4, 9), 4))
# D = 6, one base cell: the prefix arc 6 is a multiple of m
@example((6, (6, 7), 6))
# the fill overflows in the coset of residue 5
@example((6, (2, 2**62 + 1), 2))
def test_round_robin_keeps_the_cells_the_earlier_arcs_reach(case):
    m, gens, D = case
    expected = _outcome(dijkstra_apery, m, gens)
    assert _outcome(_kernels.apery_levels, m, gens) == _outcome(_filled, m, gens) == expected
    if isinstance(expected, list):
        base, d, g = _kernels.apery_cosets(m, gens)
        assert (d, g) == (D, max(gens))
        assert len(base) == m // D
        assert base == expected[::D]


def test_coset_form_allocates_only_the_reached_cells():
    # triangular n = 4471: m = 9,997,156 and D = 2236, so 4471 base cells
    gens = triangular_generators(4471)
    tracemalloc.start()
    try:
        base, d, g = _kernels.apery_cosets(gens[0], gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(base), d, g) == (4471, 2236, gens[2])
    assert peak < 2**20


@st.composite
def coprime_lists(draw):
    gens = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    assume(math.gcd(*gens) == 1)
    return min(gens), gens


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(coprime_lists(), subgroup_growth()))
# d = 2: the arc 15 finds the multiples of 2 reached, base (0, 20, 10)
@example((6, [6, 10, 15]))
# triangular n = 12, d = 13: 6 base cells of the 78 in the table
@example((78, list(triangular_generators(12))))
# tetrahedral n = 8, d = 5
@example((120, list(tetrahedral_generators(8))))
def test_coset_form_answers_the_engine_queries_like_the_full_table(case):
    m, gens = case
    # the fill of the coset form is the table, errors included
    assert _outcome(_filled, m, gens) == _outcome(_kernels.apery_levels, m, gens) == _outcome(dijkstra_apery, m, gens)
    assume(math.gcd(m, *gens) == 1)
    S = NumericalSemigroup((m, *gens))
    n1 = S.multiplicity
    full = dijkstra_apery(n1, S.generators)
    f = max(full) - n1
    assume(f <= 3000)  # keep the sieve of naive_genus small
    base, d, g = _kernels.apery_cosets(n1, S.generators)
    assert len(base) * d == n1
    assert all(full[(i * d + j * g) % n1] == b + j * g for i, b in enumerate(base) for j in range(d))
    assert S.frobenius() == f
    assert S.genus() == naive_genus(S.generators)
    assert [S.contains(x) for x in range(f + n1 + 2)] == [x >= full[x % n1] for x in range(f + n1 + 2)]
    assert S._apery_table is None  # no query above filled the table
    assert S._smallest_apery() == full


def test_round_robin_matches_naive_sweep():
    rng = random.Random(505)
    cases = 0
    while cases < 150:
        gens = sorted(rng.sample(range(2, 120), rng.randint(2, 5)))
        if math.gcd(*gens) != 1:
            continue
        cases += 1
        # A multiple of 6 shares a factor with any even generator or multiple
        # of 3, which then splits Z_m into several cycles.
        moduli = {gens[-1], gens[0] + gens[1], 6 * rng.randint(2, 15)}
        for m in moduli:
            # Multiples of m and repeated generators add no arc.
            padded = gens + [m * rng.randint(1, 3), rng.choice(gens)]
            rng.shuffle(padded)
            expected = naive_apery(gens, m)
            assert _kernels.apery_levels(m, gens) == expected, (m, gens)
            assert _kernels.apery_levels(m, padded) == expected, (m, padded)


def test_kernel_input_domain():
    with pytest.raises(ValueError):
        _kernels.min_representation(5, (3, -2))
    with pytest.raises(ValueError):
        _kernels.apery_levels(5, (0, 3))
    with pytest.raises(OverflowError):
        _kernels.min_representation(10, (2**64, 3))
    with pytest.raises(OverflowError):
        _kernels.factorizations_of(2**70, (2, 3))
    # An empty generator list is refused before x is looked at.
    for x in (5, 0, -1, 2**70):
        for kernel in (_kernels.min_representation, _kernels.is_representable, _kernels.factorizations_of):
            with pytest.raises(ValueError, match="generators must be non-empty"):
                kernel(x, ())


def test_apery_cosets_refuses_a_modulus_below_one_and_entries_past_64_bits():
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        _kernels.apery_cosets(0, (3,))
    with pytest.raises(OverflowError, match="modulus too large for the 64-bit kernel domain"):
        _kernels.apery_cosets(2**63, (3,))
    with pytest.raises(OverflowError, match="generator too large for the 64-bit kernel domain"):
        _kernels.apery_cosets(5, (3, 2**63))
