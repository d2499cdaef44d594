"""Semigroup engine tests against the independent brute-force oracles."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsemi import _kernels, core
from numsemi.core import (
    AperySet,
    NumericalSemigroup,
    frobenius_oracle,
    minimal_generators,
    representation,
)
from numsemi.errors import InvariantViolation, NotCoprimeError

from oracles import (
    dfs_minimal_generators,
    factorization_table,
    naive_apery,
    naive_betti,
    naive_factorizations,
    naive_frobenius,
    naive_genus,
)


def test_minimal_generators_examples():
    assert minimal_generators((3, 6, 10)).generators == (3, 10)
    assert minimal_generators((4, 10, 20, 35)).generators == (4, 10, 35)
    assert minimal_generators((1, 4, 10, 20)).generators == (1,)


def test_minimal_generators_order_independent():
    assert minimal_generators((10, 3, 6)).generators == (3, 10)


def _record_cosets(patch) -> list[tuple[int, tuple[int, ...], tuple[list[int], int, int] | None]]:
    """Record (m, gens, coset form) for every n_1 table built, the form
    None where the kernel raised."""
    tables = []
    apery_cosets = _kernels.apery_cosets

    def recorded(m, gens):
        tables.append((m, tuple(gens), None))
        form = apery_cosets(m, gens)
        tables[-1] = (m, tuple(gens), form)
        return form

    patch.setattr(_kernels, "apery_cosets", recorded)
    return tables


def test_minimalize_takes_the_table_where_the_dfs_gives_up(monkeypatch):
    # 33329999 over <10000, ..., 10003>: the DFS tries about 3333**3
    # vectors, the semigroup's own table mod 10000 answers at once
    tables = _record_cosets(monkeypatch)
    start = time.perf_counter()
    entries = (10000, 10001, 10002, 10003, 33329999)
    S = minimal_generators(entries)
    assert S.generators == entries
    assert S.frobenius() == 33329998
    assert time.perf_counter() - start < 5
    assert len(tables) == 1 and tables[0][2] is S._cosets
    # 2 * (2**62 + 1) leaves 64 bits: no table, and one DFS node answers
    assert minimal_generators((2, 2**62 + 1)).generators == (2, 2**62 + 1)
    assert len(tables) == 1


@pytest.mark.parametrize(
    "entries",
    [
        (100, 101, 102, 103, 3299, 2**63 - 1),
        (100000, 100001, 100002, 100003, 3333299999, 2**63 - 1),
    ],
)
def test_minimalize_leaves_out_an_entry_the_table_bound_proves_redundant(monkeypatch, entries):
    # 2**63 - 1 >= n_1 times the entry below it: redundant with no test,
    # and kept out of the one table, whose entries plus it would leave 64
    # bits.  The budgeted DFS gives up on the entry below it, F(<n_1, ...,
    # n_1 + 3>), and that table answers.
    tables = _record_cosets(monkeypatch)
    start = time.perf_counter()
    S = NumericalSemigroup(entries)
    assert S.generators == entries[:-1]
    assert [(m, gens) for m, gens, _ in tables] == [(entries[0], entries[:-1])]
    assert tables[0][2] is S._cosets
    assert time.perf_counter() - start < 5
    if entries[0] == 100:
        assert S.frobenius() == naive_frobenius(S.generators) == 3298
        assert S.genus() == naive_genus(S.generators)


@pytest.mark.parametrize("n1", [10000, 100000])
def test_minimalize_asks_the_kept_entries_where_the_table_leaves_64_bits(monkeypatch, n1):
    # 2 F(<n1 / 2, ..., n1 / 2 + 3>) over the even entries: the budgeted DFS
    # gives up, and the table over every entry raises, since 2**62 + 1 is
    # odd (so a minimal generator) and the top of its coset plus it leave
    # 64 bits.  The table of <n1 / 2, ..., n1 / 2 + 3> answers instead.
    half = n1 // 2
    deep = 2 * ((half + 1) // 3 * half - 1)
    entries = (n1, n1 + 2, n1 + 4, n1 + 6, deep, 2**62 + 1)
    tables = _record_cosets(monkeypatch)
    start = time.perf_counter()
    assert NumericalSemigroup(entries).generators == entries
    assert [(m, gens, form is None) for m, gens, form in tables] == [
        (n1, entries, True),
        (half, (half, half + 1, half + 2, half + 3), False),
    ]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "entries, minimal",
    [
        ((10000, 10001, 10002, 10003, 33329999, 2**62 + 1), (10000, 10001, 10002, 10003, 33329999)),
        ((10000, 10002, 10004, 10006, 66659998, 2**62 + 1), (10000, 10002, 10004, 10006, 2**62 + 1)),
        ((10000, 10001, 10002, 10003, 33329999, 2**62 + 33329999), (10000, 10001, 10002, 10003, 33329999)),
        ((10000, 10002, 10004, 10006, 16669998, 2**62 + 1), (10000, 10002, 10004, 10006, 16669998, 2**62 + 1)),
        ((100000, 100001, 100002, 100003, 3333299999, 2**62 + 1), (100000, 100001, 100002, 100003, 3333299999)),
    ],
)
def test_minimal_generators_beside_an_entry_near_2_62(entries, minimal):
    # a deep DFS beside an entry whose products with n_1 leave 64 bits
    start = time.perf_counter()
    assert NumericalSemigroup(entries).generators == minimal
    assert time.perf_counter() - start < 5


@st.composite
def shared_factor_lists(draw):
    """Lists whose smaller entries share a factor d, so the smaller kept
    entries are not coprime until a larger entry joins them."""
    d = draw(st.integers(min_value=2, max_value=6))
    small = draw(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4))
    rest = draw(st.lists(st.integers(min_value=2, max_value=200), max_size=3))
    return [d * s for s in small] + rest


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shared_factor_lists())
@example([6, 10, 15])
@example([6, 10, 15, 16, 25, 30])
def test_minimalize_from_the_table_matches_the_dfs(entries):
    assume(math.gcd(*entries) == 1)
    is_representable = _kernels.is_representable

    def give_up(x, gens, budget=None):
        return None if budget is not None else is_representable(x, gens)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "is_representable", give_up)
        tables = _record_cosets(patch)
        S = NumericalSemigroup(entries)
        assert S.generators == dfs_minimal_generators(entries)
        S.frobenius()
    # every give-up asks the one table of n_1, over the minimal generators
    # and the entries the table's bound leaves in, which stays the
    # semigroup's
    assert [(m, form is S._cosets) for m, _, form in tables] == [(S.generators[0], True)]
    assert set(S.generators) <= set(tables[0][1]) <= set(entries)


def test_minimal_generators_gcd_error():
    with pytest.raises(NotCoprimeError) as info:
        minimal_generators((4, 6))
    assert info.value.gcd == 2
    assert "gcd 2" in str(info.value)


def test_contains_examples():
    assert NumericalSemigroup((3, 10)).contains(13)
    assert not NumericalSemigroup((6, 10, 15)).contains(29)
    assert NumericalSemigroup((6, 10, 15)).contains(0)
    assert not NumericalSemigroup((3, 10)).contains(-4)


def test_representation_examples():
    assert representation(30, (6, 10)) == (5, 0)
    assert representation(0, (6, 10, 15)) == (0, 0, 0)
    assert representation(29, (6, 10, 15)) is None


def test_representation_rejects_negative():
    with pytest.raises(ValueError):
        representation(-1, (2, 3))


def test_apery_examples():
    assert NumericalSemigroup((3, 10)).apery(3).by_residue == (0, 10, 20)
    assert NumericalSemigroup((1,)).apery(1).by_residue == (0,)
    # cross-checked against the naive sweep
    assert NumericalSemigroup((6, 10, 15)).apery(6).by_residue == (0, 25, 20, 15, 10, 35)
    assert naive_apery((6, 10, 15), 6) == [0, 25, 20, 15, 10, 35]


def test_apery_requires_membership():
    with pytest.raises(ValueError):
        NumericalSemigroup((3, 10)).apery(7)


def test_apery_non_smallest_anchor():
    S = NumericalSemigroup((3, 10))
    assert S.apery(10).by_residue == tuple(naive_apery((3, 10), 10))


def test_frobenius_examples():
    assert frobenius_oracle((3, 10)) == 17
    assert frobenius_oracle((2, 3)) == 1
    assert frobenius_oracle((6, 10, 15)) == 29
    assert frobenius_oracle((1,)) == -1


def test_frobenius_gcd_error():
    with pytest.raises(NotCoprimeError):
        frobenius_oracle((6, 10))


def test_factorizations_examples():
    S = NumericalSemigroup((6, 10, 15))
    assert S.factorizations(30) == [(5, 0, 0), (0, 3, 0), (0, 0, 2)]
    assert S.factorizations(0) == [(0, 0, 0)]
    assert NumericalSemigroup((3, 10)).factorizations(7) == []


def test_rs_partition_examples():
    S = NumericalSemigroup((6, 10, 15))
    assert S.rs_partition(30).class_count() == 3
    assert S.rs_partition(6).class_count() == 1
    assert NumericalSemigroup((3, 10)).rs_partition(30).class_count() == 2


def test_rs_partition_requires_membership():
    with pytest.raises(ValueError):
        NumericalSemigroup((6, 10, 15)).rs_partition(29)


def _support_graph_components(vectors):
    """Reference connectivity: BFS over shared-support edges."""
    remaining = list(vectors)
    components = []
    while remaining:
        frontier = [remaining.pop(0)]
        component = set(frontier)
        while frontier:
            u = frontier.pop()
            linked = [
                v
                for v in remaining
                if any(a > 0 and b > 0 for a, b in zip(u, v))
            ]
            for v in linked:
                remaining.remove(v)
                component.add(v)
                frontier.append(v)
        components.append(component)
    return components


@pytest.mark.parametrize(
    "gens,s",
    [
        ((6, 10, 15), 30),
        ((6, 10, 15), 60),
        ((3, 10), 30),
        ((4, 6, 9), 18),
        ((5, 6, 8), 40),
    ],
)
def test_rs_partition_matches_reference_components(gens, s):
    S = NumericalSemigroup(gens)
    part = S.rs_partition(s)
    flattened = [v for cls in part.classes for v in cls]
    assert sorted(flattened) == sorted(S.factorizations(s))
    assert len(flattened) == len(set(flattened))
    reference = _support_graph_components(S.factorizations(s))
    assert sorted(sorted(c) for c in (set(cls) for cls in part.classes)) == sorted(
        sorted(c) for c in reference
    )


def test_betti_oracle_examples():
    assert NumericalSemigroup((6, 10, 15)).betti_elements() == {30}
    assert NumericalSemigroup((10, 15, 21)).betti_elements() == {30, 105}
    assert NumericalSemigroup((2, 3)).betti_elements() == {6}
    assert NumericalSemigroup((1,)).betti_elements() == set()


def test_betti_bound_is_checked_for_embedding_dimension_one():
    S = NumericalSemigroup((1,))
    assert S.betti_elements() == set()
    assert S.betti_elements(5) == set()
    with pytest.raises(OverflowError, match="Betti scan bound"):
        S.betti_elements(2**63)
    with pytest.raises(OverflowError, match="Betti scan bound"):
        NumericalSemigroup((2, 3)).betti_elements(2**63)


def _random_semigroup(rng: random.Random, e: int, top: int) -> NumericalSemigroup:
    """A random semigroup of embedding dimension e with generators <= top."""
    while True:
        gens = rng.sample(range(2, top + 1), e)
        if math.gcd(*gens) == 1:
            S = NumericalSemigroup(gens)
            if S.embedding_dimension == e:
                return S


@pytest.mark.parametrize("gens", [(1,), (2, 3), (3, 5, 7), (4, 6, 9, 10), (6, 10, 15), (5, 6, 7, 8, 9)])
def test_factorization_table_matches_cartesian_product(gens):
    facts = factorization_table(gens, 50)
    assert len(facts) == 51
    for s, vectors in enumerate(facts):
        assert vectors == naive_factorizations(gens, s), (gens, s)


def test_betti_elements_match_naive_scan():
    rng = random.Random(0xBE77)
    # the oracle builds every factorization up to the bound: fewer, smaller draws at large e
    for e, draws, top in ((2, 3, 60), (3, 3, 60), (4, 3, 60), (5, 2, 60), (6, 2, 40), (7, 4, 25), (8, 4, 25)):
        for _ in range(draws):
            S = _random_semigroup(rng, e, top)
            gens = S.generators
            default = naive_frobenius(gens) + gens[-2] + gens[-1]
            above = default + rng.randint(1, gens[-1])
            expected = naive_betti(gens, above)
            assert expected and max(expected) <= default, gens
            assert S.betti_elements() == expected, gens
            bounds = [
                default,
                above,
                rng.randint(1, default - 1),
                max(expected),
                max(expected) - 1,
                min(expected),
                min(expected) - 1,
                0,
                -rng.randint(1, 100),
            ]
            for bound in bounds:
                assert S.betti_elements(bound) == {b for b in expected if b <= bound}, (gens, bound)


# largest multiplicity drawn per entry count: the oracle enumerates every
# factorization of every s up to the bound, about s**e vectors
_BETTI_MULTIPLICITY_CAP = {2: 20, 3: 12, 4: 9, 5: 7}


@st.composite
def _betti_semigroups(draw):
    """A semigroup from 2-5 entries below 3 n_1."""
    e = draw(st.integers(2, 5))
    m = draw(st.integers(e, _BETTI_MULTIPLICITY_CAP[e]))
    others = draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=e - 1, max_size=e - 1, unique=True))
    gens = (m, *others)
    assume(math.gcd(*gens) == 1)
    return NumericalSemigroup(gens)


@st.composite
def _betti_cases(draw):
    """A semigroup from ``_betti_semigroups`` and a bound: negative, below
    2 n_1, up to the default (or past it by at most n_e) or None."""
    S = draw(_betti_semigroups())
    m = S.multiplicity
    default = S.frobenius() + S.generators[-1] + S.generators[-2]
    bound = draw(
        st.one_of(
            st.none(),
            st.just(default),
            st.integers(-50, -1),
            st.integers(0, 2 * m - 1),
            st.integers(2 * m, default + S.generators[-1]),
        )
    )
    return S, default, bound


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_betti_cases())
def test_betti_elements_match_naive_betti_for_every_bound(case):
    S, default, bound = case
    expected = naive_betti(S.generators, default if bound is None else bound)
    assert S.betti_elements(bound) == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_betti_semigroups(), st.integers(1, 100))
def test_betti_bitsets_and_loop_match_naive_betti(S, offset):
    gens = S.generators
    m = gens[0]
    default = S.frobenius() + gens[-1] + gens[-2]
    expected = naive_betti(gens, default)
    table = S._smallest_apery()
    for bound in (None, -offset, 2 * m - 1, 2 * m, default // 2, default, default + 17, 2**62):
        b = default if bound is None else bound
        want = {s for s in expected if s <= b}
        assert S.betti_elements(bound) == want, bound
        if b >= 0:
            top = min(b, S.frobenius() + m + gens[-1])
            assert core._betti_bits(gens, table, top) == want, bound
            assert core._betti_loop(gens, table, top) == want, bound


def test_betti_elements_switch_between_bitsets_and_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong Betti scan path")

    # F = 146,880: top + 1 = 148,900 > 32 * 1006 * 3 = 96,576 bits, so the loop
    sparse = NumericalSemigroup((1006, 1009, 1011, 1013))
    dense = NumericalSemigroup((10, 15, 21))
    bits, loop = core._betti_bits, core._betti_loop
    monkeypatch.setattr(core, "_betti_bits", refuse)
    sparse_betti = sparse.betti_elements()
    monkeypatch.setattr(core, "_betti_bits", bits)
    monkeypatch.setattr(core, "_betti_loop", refuse)
    assert dense.betti_elements() == {30, 105}
    gens = sparse.generators
    top = sparse.frobenius() + gens[0] + gens[-1]
    assert sparse_betti and bits(gens, sparse._smallest_apery(), top) == sparse_betti
    assert loop(gens, sparse._smallest_apery(), top) == sparse_betti


def test_betti_elements_enumerate_no_factorizations(monkeypatch):
    examples = [
        (NumericalSemigroup((6, 10, 15)), {30}),
        (NumericalSemigroup((10, 15, 21)), {30, 105}),
        (NumericalSemigroup((1009, 1013, 1019, 1021, 1031)), None),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("betti_elements enumerated factorizations")

    calls = {"apery_cosets": 0}
    apery_cosets = _kernels.apery_cosets

    def counted_apery_cosets(*args):
        calls["apery_cosets"] += 1
        return apery_cosets(*args)

    monkeypatch.setattr(_kernels, "factorizations_of", refuse)
    monkeypatch.setattr(NumericalSemigroup, "rs_partition", refuse)
    monkeypatch.setattr(_kernels, "apery_cosets", counted_apery_cosets)
    for S, expected in examples:
        before = calls["apery_cosets"]
        betti = S.betti_elements()
        assert calls["apery_cosets"] - before == 1
        if expected is not None:
            assert betti == expected
        else:
            # 1009 + 1031 == 1019 + 1021
            assert min(betti) == 2040
            assert all(S.contains(b) for b in betti)


def test_betti_elements_below_twice_the_multiplicity_is_empty():
    # every Betti element is >= 2 * n_1, so no Apery table is built here
    S = NumericalSemigroup((10_000_000_019, 10_000_000_033))
    assert S.betti_elements(2 * 10_000_000_019 - 1) == set()
    with pytest.raises(ValueError, match="desk-scale"):
        S.betti_elements(2 * 10_000_000_019)


def test_embedding_dimension_examples():
    assert NumericalSemigroup((1,)).embedding_dimension == 1
    assert NumericalSemigroup((10, 20, 35, 56)).embedding_dimension == 3
    assert NumericalSemigroup((20, 35, 56, 84)).embedding_dimension == 4


def _random_coprime_gens(rng: random.Random) -> tuple[int, ...]:
    while True:
        length = rng.randint(2, 4)
        gens = tuple(sorted(rng.sample(range(2, 80), length)))
        if math.gcd(*gens) == 1:
            return gens


def test_apery_and_frobenius_consistency_random():
    rng = random.Random(0xA9E127)
    for _ in range(60):
        gens = _random_coprime_gens(rng)
        S = NumericalSemigroup(gens)
        m = S.generators[0]
        ap = S.apery()
        assert len(ap) == m
        assert ap.by_residue[0] == 0
        for element in ap:
            assert S.contains(element)
            assert not S.contains(element - m)
        f = S.frobenius()
        assert not S.contains(f) or f == -1
        for x in range(f + 1, f + m + 1):
            assert S.contains(x)


def test_frobenius_matches_naive_oracle():
    rng = random.Random(0x5EED)
    for _ in range(25):
        gens = _random_coprime_gens(rng)
        assert frobenius_oracle(gens) == naive_frobenius(gens), gens


def test_apery_matches_naive_oracle():
    for gens in [(6, 10, 15), (4, 6, 9), (5, 7, 11), (3, 10)]:
        S = NumericalSemigroup(gens)
        m = S.generators[0]
        assert list(S.apery(m).by_residue) == naive_apery(gens, m)


def test_sylvester_random_pairs():
    rng = random.Random(0x515C)
    seen = 0
    while seen < 100:
        a = rng.randint(2, 199)
        b = rng.randint(a + 1, 200)
        if math.gcd(a, b) != 1:
            continue
        seen += 1
        assert frobenius_oracle((a, b)) == a * b - a - b


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.data())
def test_factorization_soundness(s, data):
    gens = data.draw(
        st.lists(st.integers(min_value=2, max_value=60), min_size=2, max_size=4, unique=True)
    )
    if math.gcd(*gens) != 1:
        gens.append(1 + max(gens))
    S = NumericalSemigroup(tuple(gens))
    facts = S.factorizations(s)
    for v in facts:
        assert sum(c * g for c, g in zip(v, S.generators)) == s
    assert set(facts) == naive_factorizations(S.generators, s)
    assert len(facts) == len(set(facts))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5))
@example([1, 2])  # N: no gap
@example([6, 10, 15])  # free: g = (F + 1) / 2 = 15
def test_genus_matches_the_gap_count(gens):
    assume(math.gcd(*gens) == 1)
    assert NumericalSemigroup(gens).genus() == naive_genus(gens)


def test_apery_set_validation():
    with pytest.raises(InvariantViolation):
        AperySet(3, (0, 1))
    with pytest.raises(InvariantViolation):
        AperySet(3, (1, 4, 2))
    with pytest.raises(InvariantViolation):
        AperySet(3, (0, 2, 4))
    # -2 % 3 == 1: a negative element sits in the right class but is no
    # semigroup element, and would make frobenius() read -3
    with pytest.raises(InvariantViolation, match="negative"):
        AperySet(3, (0, -2, -1))


def test_caches_are_idempotent():
    S = NumericalSemigroup((6, 10, 15))
    assert S.frobenius() == S.frobenius() == 29
    assert S.apery().by_residue == S.apery().by_residue


def test_huge_generators_answer_membership_but_refuse_materialization():
    S = NumericalSemigroup((10_000_000_019, 10_000_000_033))
    assert S.contains(10_000_000_019 + 10_000_000_033)
    assert not S.contains(10_000_000_020)
    with pytest.raises(ValueError, match="desk-scale"):
        S.frobenius()
    with pytest.raises(ValueError, match="desk-scale"):
        S.apery()


def test_evaluate_refuses_a_vector_of_another_length():
    with pytest.raises(ValueError, match="vector length does not match generator count"):
        core.evaluate((1,), (2, 3))


def test_semigroups_are_equal_by_their_minimal_generators():
    S = NumericalSemigroup((6, 10, 15))
    T = NumericalSemigroup((15, 10, 6, 30))
    assert S == T and hash(S) == hash(T)
    assert S != (6, 10, 15)


def test_apery_refuses_an_anchor_below_one():
    with pytest.raises(ValueError, match="Apery anchor must be >= 1, got 0"):
        NumericalSemigroup((3, 5)).apery(0)
