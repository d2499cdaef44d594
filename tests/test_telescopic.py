"""Telescopic certificates, c* search, freeness, and reduction formulas."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsemi import _kernels, cli, telescopic
from numsemi.core import APERY_MATERIALIZE_LIMIT, NumericalSemigroup, evaluate, frobenius_oracle
from numsemi.errors import InvariantViolation, NotCoprimeError
from numsemi.figurate import (
    TelescopicClass,
    choose4_family,
    figurate_embedding_dimension,
    tetrahedral_cstar,
    tetrahedral_generators,
    triangular_cstar,
    triangular_generators,
)
from numsemi.telescopic import (
    FreeDecomposition,
    NotFree,
    NotTelescopic,
    _residues_distinct,
    apery_box,
    arranged_minimal,
    box_elements,
    box_is_apery,
    box_levels,
    brauer_shockley_frobenius,
    cstar_constants,
    divide_chain,
    free_apery,
    free_betti,
    free_frobenius,
    free_presentation,
    is_free,
    is_telescopic,
    johnson_reduce,
)

from oracles import canonical_witness, dijkstra_cstars, filed_box, reachable_table


def test_divide_chain_examples():
    assert divide_chain((6, 10, 15)) == (6, 2, 1)
    assert divide_chain((42,)) == (42,)
    assert divide_chain((56, 84, 120, 165)) == (56, 28, 4, 1)


def test_is_telescopic_examples():
    assert is_telescopic((6, 10, 15))
    verdict = is_telescopic((220, 286, 364, 455))
    assert isinstance(verdict, NotTelescopic)
    assert not verdict
    assert is_telescopic((455, 364, 286, 220))


def test_is_telescopic_errors():
    with pytest.raises(NotCoprimeError):
        is_telescopic((6, 10))
    with pytest.raises(ValueError):
        is_telescopic((7,))
    with pytest.raises(ValueError, match="repeated"):
        is_telescopic((3, 3, 5))


def test_certificate_soundness():
    for seq in [(6, 10, 15), (455, 364, 286, 220), (4, 6, 9), (84, 56, 35, 20)]:
        cert = is_telescopic(seq)
        assert cert
        for i in range(2, len(seq) + 1):
            witness = cert.witnesses[i - 2]
            assert evaluate(witness, cert.scaled_prefix(i)) == cert.scaled_target(i)


def test_not_telescopic_reports_first_failure():
    verdict = is_telescopic((220, 286, 364, 455))
    assert verdict.failing_index == 4
    assert verdict.failing_value == 455


def test_prefix_closure_on_family_instances():
    # scaled prefixes of a telescopic sequence are telescopic themselves
    seqs = [triangular_generators(n) for n in range(3, 16)]
    seqs += [
        tetrahedral_generators(n) if n % 6 < 4 else tetrahedral_generators(n)[::-1]
        for n in range(4, 16)
    ]
    for seq in seqs:
        cert = is_telescopic(seq)
        assert cert, seq
        chain = cert.d_chain
        for i in range(2, len(seq)):
            scaled = tuple(a // chain[i - 1] for a in seq[:i])
            assert is_telescopic(scaled), (seq, i)


def test_cstar_examples():
    assert cstar_constants((6, 10, 15))[0] == (3, 2)
    assert cstar_constants((10, 15, 21))[0] == (2, 5)
    assert cstar_constants((84, 56, 35, 20))[0] == (3, 4, 7)


def test_cstar_witnesses_evaluate():
    entries = (84, 56, 35, 20)
    cstars, reps = cstar_constants(entries)
    for i, (c, rep) in enumerate(zip(cstars, reps), start=2):
        assert evaluate(rep, entries[: i - 1]) == c * entries[i - 1]


def test_cstar_requires_minimal_arrangement():
    with pytest.raises(ValueError, match="minimal"):
        cstar_constants((3, 6, 10))
    with pytest.raises(NotCoprimeError):
        cstar_constants((4, 6))


def test_cstar_is_least_above_two_hundred_thousand():
    # n_1 above 2e5: the c* lookups must come from tables, since a
    # coefficient DFS per k does not finish in a minute
    entries = (200003, 200009, 200017)
    verdict = is_free(entries)
    assert isinstance(verdict, NotFree)
    assert list(verdict.cstars) == dijkstra_cstars(entries)


def test_cstar_position_two_is_one_lookup():
    # c*_2 is always n_1 / gcd(n_1, n_2); a search over every k up to it
    # takes seconds
    start = time.perf_counter()
    assert cstar_constants((9_999_991, 10_000_019)) == ((9_999_991,), ((10_000_019,),))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "entries, witness",
    [
        ((10000000001, 3, 10000000003), (1, 3333333335)),  # not free: j = 2 at position 3
        ((20000000002, 6, 19000000001), (1, 3000000000)),  # free
    ],
)
def test_cstar_witness_over_a_small_second_entry_is_its_least_coefficient(entries, witness):
    # the coefficient of 3 in the scaled prefix (10000000001, 3) is least
    # in its class mod 10000000001; trying each one took about 3e9 steps
    cstars, reps = cstar_constants(entries)
    assert cstars == (10000000001, 2)
    assert reps[1] == witness
    assert evaluate(witness, entries[:2]) == cstars[1] * entries[2]
    assert witness[1] < 10000000001


@st.composite
def chained_arrangements(draw):
    """Minimal arrangements n_1..n_e (e = 2..5, entries <= 300) whose
    divide chain drops at every position: n_1 = q_2 ... q_e and
    n_i = d_i * t_i with q_i = d_{i-1} / d_i > 1 and gcd(t_i, q_i) = 1."""
    e = draw(st.integers(min_value=2, max_value=5))
    qs: list[int] = []
    for left in range(e - 2, -1, -1):
        budget = 300 // (math.prod(qs) * 2**left)
        qs.append(draw(st.sampled_from([q for q in (2, 3, 4, 5, 6, 7, 9, 10) if q <= budget])))
    chain = [math.prod(qs)]
    for q in qs:
        chain.append(chain[-1] // q)
    entries = [chain[0]]
    for q, d in zip(qs, chain[1:]):
        t = draw(st.integers(min_value=1, max_value=300 // d).filter(lambda t, q=q: math.gcd(t, q) == 1))
        entries.append(d * t)
    assume(len(set(entries)) == e)
    for g in entries:
        others = [h for h in entries if h != g]
        assume(not reachable_table(others, g)[g])
    return tuple(entries)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chained_arrangements())
def test_cstar_and_witnesses_match_oracles_on_divide_chains(entries):
    cstars, reps = cstar_constants(entries)
    assert list(cstars) == dijkstra_cstars(entries)
    for i, (c, rep) in enumerate(zip(cstars, reps), start=1):
        d = math.gcd(*entries[:i])
        scaled = [a // d for a in entries[:i]]
        assert rep == canonical_witness(c * entries[i] // d, scaled), (entries, i + 1)


@st.composite
def minimal_arrangements(draw):
    """The minimal generators of a random semigroup (2..5 coprime entries
    <= 300 before minimalizing), in a random order."""
    gens = draw(
        st.lists(st.integers(min_value=2, max_value=300), min_size=2, max_size=5, unique=True).filter(
            lambda g: math.gcd(*g) == 1
        )
    )
    return draw(st.permutations(NumericalSemigroup(gens).generators))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(minimal_arrangements())
@example((10, 15, 21))  # triangular n = 4, telescopic
@example((220, 286, 364, 455))  # tetrahedral n = 10 forward, not telescopic
def test_free_exactly_when_telescopic(arrangement):
    # c*_i = j_i q_i with j_i >= 1 and the q_i multiply to n_1: free means
    # every j_i = 1, which is the telescopic condition
    verdict = is_free(arrangement)
    certificate = is_telescopic(arrangement)
    assert bool(verdict) == bool(certificate)
    chain = divide_chain(arrangement)
    quotients = tuple(d_prev // d for d_prev, d in zip(chain, chain[1:]))
    assert all(c % q == 0 for c, q in zip(verdict.cstars, quotients))
    if verdict:
        assert verdict.cstars == quotients
        assert verdict.reps == certificate.witnesses


def _telescopic_arrangements():
    for n in range(3, 61):
        if figurate_embedding_dimension("triangular", n) == 3:
            yield "triangular", triangular_cstar(n).arrangement
    for n in range(4, 41):
        if figurate_embedding_dimension("tetrahedral", n) == 4:
            yield "tetrahedral", tetrahedral_cstar(n).arrangement
    for n in range(1, 61):
        gens, cls = choose4_family(n)
        if cls is not TelescopicClass.NEITHER:
            ordered = gens if cls in (TelescopicClass.FORWARD, TelescopicClass.BOTH) else gens[::-1]
            yield "choose4", arranged_minimal(ordered, NumericalSemigroup(ordered).generators)


def test_is_free_on_telescopic_arrangements_asks_the_witness_not_a_table(monkeypatch):
    seen: list[tuple[int, ...]] = []
    apery_cosets = _kernels.apery_cosets

    # a prefix table is the engine's n_1 table in coset form or a whole
    # one, which apery_levels fills from the coset form
    def counted(m, gens):
        seen.append(tuple(gens))
        return apery_cosets(m, gens)

    monkeypatch.setattr(_kernels, "apery_cosets", counted)
    for _, arrangement in _telescopic_arrangements():
        # the witness DFS answers every position within its budget
        seen.clear()
        assert is_free(arrangement), arrangement
        assert not seen, arrangement


def test_the_gate_sends_a_deep_dfs_to_the_prefix_table(monkeypatch):
    # position 6: the DFS for 332999 over (4001, 2000, 2002, 2004, 2006)
    # finds no vector; it gives up within the 5 * 2000 cells of the table
    # mod 2000, which then answers
    arrangement = (4001, 2000, 2002, 2004, 2006, 332999)
    min_representation = _kernels.min_representation
    calls = []

    def counted(x, gens, budget=None):
        calls.append((x, tuple(gens), budget))
        return min_representation(x, gens, budget)

    monkeypatch.setattr(_kernels, "min_representation", counted)
    start = time.perf_counter()
    verdict = is_free(arrangement)
    assert time.perf_counter() - start < 5
    assert isinstance(verdict, NotFree)
    assert verdict.cstars == (4001, 1000, 500, 334, 3)
    assert (332999, arrangement[:5], 5 * 2000) in calls
    assert _kernels.is_representable(332999, arrangement[:5], 5 * 2000) is None  # gave up
    assert (3 * 332999, arrangement[:5], None) in calls  # the witness for c*_6


def test_cstar_above_desk_scale_takes_the_table_mod_the_target(monkeypatch):
    # the prefix (10000019, 10000079) is above the desk-scale limit, so its
    # table is refused; c*_3 comes from the 7 cells of the table mod 7
    entries = (10_000_019, 10_000_079, 7)
    semigroup = NumericalSemigroup(entries)

    def refuse(x, gens):
        raise AssertionError(f"coefficient DFS for {x} over {tuple(gens)}")

    monkeypatch.setattr(_kernels, "is_representable", refuse)
    cstars, reps = cstar_constants(entries, _semigroup=semigroup)
    assert cstars == (10_000_019, 4_285_731)
    assert reps == ((10_000_079,), (2, 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(minimal_arrangements())
def test_cstar_from_the_table_mod_the_target_matches_the_oracle(arrangement):
    # a limit of 40 refuses every prefix table whose modulus is above 40,
    # so targets up to 40 over such prefixes take the table mod the target
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(telescopic, "APERY_MATERIALIZE_LIMIT", 40)
        cstars, reps = cstar_constants(arrangement)
    assert list(cstars) == dijkstra_cstars(arrangement)
    for i, (c, rep) in enumerate(zip(cstars, reps), start=1):
        d = math.gcd(*arrangement[:i])
        scaled = [a // d for a in arrangement[:i]]
        assert rep == canonical_witness(c * arrangement[i] // d, scaled), (arrangement, i + 1)


def test_is_free_examples():
    fd = is_free((6, 10, 15))
    assert isinstance(fd, FreeDecomposition)
    assert fd.cstars == (3, 2)
    assert math.prod(fd.cstars) == 6

    fd4 = is_free((84, 56, 35, 20))
    assert fd4 and math.prod(fd4.cstars) == 84

    verdict = is_free((5, 6, 8))
    assert isinstance(verdict, NotFree)
    assert not verdict
    assert verdict.cstars == (5, 2) and verdict.product == 10

    # telescopic in the given order, hence free
    assert is_free((4, 6, 9))


def test_is_free_trivial_semigroup():
    fd = is_free((1,))
    assert fd and fd.cstars == ()


def test_free_frobenius_examples():
    assert free_frobenius(is_free((6, 10, 15))) == 29
    assert free_frobenius(is_free((84, 56, 35, 20))) == 253
    for a, b in [(3, 10), (5, 7), (11, 13)]:
        assert free_frobenius(is_free((a, b))) == a * b - a - b


def test_free_apery_examples():
    ap = free_apery(is_free((6, 10, 15)))
    assert ap.by_residue == (0, 25, 20, 15, 10, 35)
    assert ap == NumericalSemigroup((6, 10, 15)).apery(6)
    assert free_apery(is_free((3, 10))).by_residue == (0, 10, 20)
    assert free_apery(is_free((1,))).by_residue == (0,)


def test_apery_box_refuses_cstars_whose_product_is_not_the_anchor():
    # without the product check the box {0, 4} would leave residue 2 of 3
    # empty, filed as -1 (which is 2 mod 3)
    with pytest.raises(InvariantViolation, match="multiply"):
        apery_box((3, 4), (2,))
    with pytest.raises(InvariantViolation, match="multiply"):
        apery_box((6, 10, 15), (3,))


def test_apery_box_refuses_duplicate_residues():
    # 0, 2, 4, 6 repeat residues 0 and 2 mod 4: the chain asks c* 2, not 4
    with pytest.raises(InvariantViolation, match="divide chain of \\(4, 2\\) does not prove"):
        apery_box((4, 2), (4,))


def test_apery_box_falls_back_to_the_checked_constructor():
    # every entry and c* must be positive before any element is filed:
    # a negative generator, negative c* that multiply to the anchor, and a
    # zero entry (whose c* 1 would leave the box of the free <6, 10, 15>)
    positive = "^a c\\* box needs positive entries and c\\*"
    for arrangement, cstars in [
        ((6, -5, 10), (2, 3)),
        ((6, 10, 15), (-2, -3)),
        ((6, 0, 10, 15), (1, 3, 2)),
        ((6, 0, 10, 15), (2, 3, 1)),
        ((6, 5, -1, 1), (2, 3, 1)),
    ]:
        for build in (apery_box, box_elements, box_levels):
            with pytest.raises(InvariantViolation, match=positive):
                build(arrangement, cstars)


def test_apery_box_refuses_anchors_above_the_materialize_limit():
    anchor = APERY_MATERIALIZE_LIMIT + 1
    for build in (apery_box, box_elements, box_levels):
        with pytest.raises(ValueError, match="desk-scale"):
            build((anchor, 2), (anchor,))
    with pytest.raises(ValueError, match="desk-scale"):
        box_is_apery(NumericalSemigroup((2, 3)), (anchor, 2), (anchor,))


def test_free_apery_overflow():
    fd = FreeDecomposition((3, 2**63 - 4), (3,), ((2**63 - 4,),))
    with pytest.raises(OverflowError):
        free_apery(fd)
    for build in (box_elements, box_levels):
        with pytest.raises(OverflowError):
            build(fd.arrangement, fd.cstars)


def _box(arrangement, cstars):
    """Every sum over n_2..n_e with the coefficient of n_j below c*_j."""
    coefficients = itertools.product(*(range(c) for c in cstars))
    return [sum(lam * n for lam, n in zip(lams, arrangement[1:])) for lams in coefficients]


coprime_lists = st.lists(st.integers(min_value=2, max_value=89), min_size=2, max_size=4, unique=True).filter(
    lambda gens: math.gcd(*gens) == 1
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coprime_lists, st.randoms(use_true_random=False))
def test_box_elements_match_the_apery_set_on_random_free_arrangements(gens, rng):
    # every free arrangement's box is proved by the divide chain: no free
    # box needs filing element by element
    S = NumericalSemigroup(gens)
    arrangement = list(S.generators)
    rng.shuffle(arrangement)
    fd = is_free(arrangement)
    assume(fd)
    anchor = fd.arrangement[0]
    assert _residues_distinct(fd.arrangement, fd.cstars)
    elements = list(box_elements(fd.arrangement, fd.cstars))
    assert elements == sorted(_box(fd.arrangement, fd.cstars)) == sorted(S.apery(anchor))
    assert apery_box(fd.arrangement, fd.cstars) == S.apery(anchor)
    assert apery_box(fd.arrangement, fd.cstars).by_residue == tuple(filed_box(fd.arrangement, fd.cstars))
    assert box_is_apery(S, fd.arrangement, fd.cstars)


def test_box_elements_checks_at_the_call_and_sweeps_lazily():
    elements = box_elements((6, 10, 15), (3, 2))
    assert iter(elements) is elements
    assert next(elements) == 0
    assert list(elements) == [10, 15, 20, 25, 35]
    with pytest.raises(InvariantViolation, match="multiply"):
        box_elements((6, 10, 15), (3,))  # not drawn from


def test_box_levels_check_at_the_call_and_give_each_level_once():
    # n_e = 15 with c* 2 over the bases 0, 10, 20: levels 0, 1 and 2
    levels = box_levels((6, 10, 15), (3, 2))
    assert iter(levels) is levels
    assert list(levels) == [(15, (15, 5)), (30, (15, 10, 5)), (45, (10,))]
    # a box the divide chain does not prove is refused before any level is drawn
    with pytest.raises(InvariantViolation, match="does not prove"):
        box_levels((4, 1, 2), (2, 2))


def test_box_elements_skip_the_empty_levels():
    # runs of n_e = 1 at levels 0 and 2,000,000,002: the sweep jumps the gap
    start = time.perf_counter()
    assert list(box_elements((4, 2_000_000_002, 1), (2, 2))) == [0, 1, 2000000002, 2000000003]
    assert time.perf_counter() - start < 0.5


def test_box_elements_with_a_last_cstar_of_one():
    # every run of n_e = 5 is one level long, and offsets 0 and 2 enter twice
    arrangement, cstars = (6, 2, 3, 5), (3, 2, 1)
    assert _residues_distinct(arrangement, cstars)
    assert list(box_elements(arrangement, cstars)) == sorted(_box(arrangement, cstars)) == [0, 2, 3, 4, 5, 7]


@pytest.mark.parametrize("kind", ["triangular", "tetrahedral"])
def test_family_summaries_match_the_sorted_box(kind):
    # every n below 90 at full embedding dimension, against the box filed
    # by residue and sorted, as the JSON and text writers write them: a
    # box of at most 6 elements is listed from its levels
    forms = cli._closed_forms(kind)
    for n in range(1, 90):
        if figurate_embedding_dimension(kind, n) != len(forms.generators(n)):
            continue
        form = forms.cstar(n)
        elements = sorted(filed_box(form.arrangement, form.cstars))
        expected = cli._apery_summary(form.arrangement[0], elements, False)
        for fmt in ("json", "text"):
            summary = cli._box_summary(form.arrangement, form.cstars, False)
            assert cli._format_payload(summary, fmt) == cli._format_payload(expected, fmt), (kind, n)


def test_box_is_apery_accepts_the_reverse_tetrahedral_boxes():
    # n mod 6 in {4, 5}: the anchor is TH_{n+3}, not the multiplicity
    for n in (10, 11):
        gens = tetrahedral_generators(n)
        form = tetrahedral_cstar(n)
        assert form.arrangement[0] == gens[-1]
        assert box_is_apery(NumericalSemigroup(gens), form.arrangement, form.cstars)


def test_free_boxes_pass_the_divide_chain_residue_proof():
    # A free arrangement's c* are the quotients d_{i-1} / d_i of its divide
    # chain down to 1 (test_free_exactly_when_telescopic), which settles
    # the residue proof in e - 1 gcds with no bitset; random free
    # arrangements pass it in the box sweep above.
    forms = [triangular_cstar(n) for n in (3, 4, 4470, 4471)]
    forms += [tetrahedral_cstar(n) for n in (4, 10, 11, 387)]
    for form in forms:
        chain = divide_chain(form.arrangement)
        assert chain[-1] == 1
        assert tuple(form.cstars) == tuple(p // d for p, d in zip(chain, chain[1:]))
        assert _residues_distinct(form.arrangement, form.cstars)
    # an anchor of 2**40: a bitset of its residues would take 128 GiB
    assert _residues_distinct((2**40, 3 * 2**20, 3), (2**20, 2**20))


def test_residue_proof_stays_exact_where_the_chain_does_not_settle():
    # gcd(4, 1) = 1 asks c*_1 = 4: the chain fails, and although the sums
    # 0..3 are distinct the box is refused, as no free arrangement's is
    assert not _residues_distinct((4, 1, 2), (2, 2))
    assert sorted(_box((4, 1, 2), (2, 2))) == [0, 1, 2, 3]
    for build in (apery_box, box_elements, box_levels):
        with pytest.raises(InvariantViolation, match="does not prove"):
            build((4, 1, 2), (2, 2))
    assert not box_is_apery(NumericalSemigroup((1,)), (4, 1, 2), (2, 2))


def test_box_is_apery_rejects_what_is_no_apery_set():
    S = NumericalSemigroup(triangular_generators(6))  # <21, 28, 36>, c* (3, 7)
    assert box_is_apery(S, (21, 28, 36), (3, 7))
    # n_2 moved to n_2 + a: the box lies in S and its residues stay distinct
    assert None not in filed_box((21, 49, 36), (3, 7))
    assert not box_is_apery(S, (21, 49, 36), (3, 7))
    # c* reversed: the residues collide
    assert not box_is_apery(S, (21, 28, 36), (7, 3))
    # 6 = 2 * 3 is in the box twice although top - a = 15 - 8 = 2 g - 1
    assert not _residues_distinct((8, 3, 6), (4, 2))
    assert not box_is_apery(NumericalSemigroup((3, 5)), (8, 3, 6), (4, 2))
    # 4 is a gap of <3, 5, 7>, which has the genus 3 of <3, 4>
    assert box_is_apery(NumericalSemigroup((3, 4)), (3, 4), (3,))
    assert not box_is_apery(NumericalSemigroup((3, 5, 7)), (3, 4), (3,))
    # c* (3, 2) multiply to 6, not 5: the six sums cover every residue mod 5
    # and top - a = 12 - 5 = 2 g - 1
    assert {w % 5 for w in _box((5, 3, 6), (3, 2))} == set(range(5))
    assert not box_is_apery(NumericalSemigroup((3, 5)), (5, 3, 6), (3, 2))
    # c* (-1, -1) multiply to 1 but leave the box empty
    assert not box_is_apery(NumericalSemigroup((2, 3)), (2, 2, 2, 11), (-1, -1, 2))


@st.composite
def product_boxes(draw):
    """Boxes whose c* multiply to the anchor n_1 (1 to 3 c* up to 6) over
    positive generators below 200: most of them repeat a residue."""
    cstars = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
    gens = draw(st.lists(st.integers(min_value=1, max_value=200), min_size=len(cstars), max_size=len(cstars)))
    return (math.prod(cstars), *gens), tuple(cstars)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(product_boxes())
@example(((4, 2), (4,)))  # duplicate residue 0
@example(((6, 1, 7), (2, 3)))  # duplicate residue 1: 7 and 1
@example(((6, 10, 15), (3, 2)))  # distinct: the free arrangement
def test_box_checks_match_the_per_element_filing(box):
    arrangement, cstars = box
    if _residues_distinct(arrangement, cstars):  # the chain is a proof
        by_residue = filed_box(arrangement, cstars)
        assert None not in by_residue
        assert apery_box(arrangement, cstars).by_residue == tuple(by_residue)
        assert list(box_elements(arrangement, cstars)) == sorted(by_residue)
    else:  # refused at the call, with nothing drawn
        for build in (apery_box, box_elements, box_levels):
            with pytest.raises(InvariantViolation, match="does not prove"):
                build(arrangement, cstars)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(product_boxes())
@example(((6, 10, 15), (3, 2)))
@example(((6, 9, 2), (2, 3)))  # runs at levels 0..2 and 4..6: level 3 is empty
def test_box_elements_sweep_distinct_boxes_in_ascending_order(box):
    arrangement, cstars = box
    assume(_residues_distinct(arrangement, cstars))
    assert list(box_elements(arrangement, cstars)) == sorted(_box(arrangement, cstars))
    # one pair per level that holds an element: tops ascending multiples of
    # n_e, each level's elements within [top - n_e, top) and ascending
    levels = list(box_levels(arrangement, cstars))
    n = arrangement[-1]
    assert all(offsets for _, offsets in levels)
    assert [top for top, _ in levels] == sorted({top for top, _ in levels})
    for top, offsets in levels:
        assert top % n == 0 and all(0 < o <= n for o in offsets)
        assert list(offsets) == sorted(offsets, reverse=True)


def test_free_presentation_examples():
    pres = free_presentation(is_free((6, 10, 15)))
    assert len(pres) == 2
    assert sorted(pres.evaluations()) == [30, 30]

    two_gen = free_presentation(is_free((3, 10)))
    assert two_gen.relations == (((0, 3), (10, 0)),)

    pres4 = free_presentation(is_free((84, 56, 35, 20)))
    assert len(pres4) == 3
    assert sorted(pres4.evaluations()) == [140, 140, 168]


def test_free_presentation_sides_disjoint_support():
    for arrangement in [(6, 10, 15), (84, 56, 35, 20), (3, 10)]:
        for lhs, rhs in free_presentation(is_free(arrangement)).relations:
            assert all(a == 0 or b == 0 for a, b in zip(lhs, rhs))


def test_free_betti_examples():
    assert free_betti(is_free((6, 10, 15))) == {30}
    assert free_betti(is_free((10, 15, 21))) == {30, 105}
    assert free_betti(is_free((84, 56, 35, 20))) == {168, 140}


def test_betti_evaluation_property():
    # presentation evaluations, the free closed form, and the scan agree
    for arrangement in [(6, 10, 15), (10, 15, 21), (84, 56, 35, 20), (4, 6, 9), (2, 3)]:
        fd = is_free(arrangement)
        assert fd
        betti = free_betti(fd)
        assert set(free_presentation(fd).evaluations()) == betti
        assert NumericalSemigroup(arrangement).betti_elements() == betti


def test_free_agrees_with_oracles():
    for arrangement in [(6, 10, 15), (10, 15, 21), (84, 56, 35, 20), (4, 6, 9)]:
        fd = is_free(arrangement)
        S = NumericalSemigroup(arrangement)
        assert free_frobenius(fd) == S.frobenius()
        assert free_apery(fd) == S.apery(fd.arrangement[0])


def test_johnson_examples():
    assert johnson_reduce(6, 10, 15) == 29
    assert johnson_reduce(3, 5, 7) == 4
    assert johnson_reduce(4, 6, 9) == 11
    with pytest.raises(NotCoprimeError):
        johnson_reduce(4, 6, 10)


def test_brauer_shockley_examples():
    assert brauer_shockley_frobenius((6, 10, 15)) == 29
    assert brauer_shockley_frobenius((20, 35, 56, 84)) == 253
    assert brauer_shockley_frobenius((3, 10)) == 17


def test_brauer_shockley_errors():
    with pytest.raises(NotCoprimeError):
        brauer_shockley_frobenius((6, 10))
    with pytest.raises(ValueError):
        brauer_shockley_frobenius((7,))


def test_brauer_shockley_matches_oracle_randomized():
    rng = random.Random(0xB5)
    cases = 0
    while cases < 200:
        length = rng.randint(2, 5)
        gens = tuple(sorted(rng.sample(range(2, 501), length)))
        if math.gcd(*gens) != 1:
            continue
        cases += 1
        assert brauer_shockley_frobenius(gens) == frobenius_oracle(gens), gens
    # unsorted, with repeats and with multiples and sums of other entries
    cases = 0
    while cases < 200:
        base = rng.sample(range(2, 201), rng.randint(2, 4))
        extra = [rng.choice(base) for _ in range(rng.randint(1, 2))]
        extra.append(rng.randint(1, 3) * rng.choice(base) + rng.choice(base))
        gens = tuple(rng.sample(base + extra, len(base) + len(extra)))
        if math.gcd(*gens) != 1:
            continue
        cases += 1
        assert brauer_shockley_frobenius(gens) == frobenius_oracle(gens), gens


def test_arranged_minimal_keeps_each_generator_at_its_last_occurrence():
    # the order picks the reduction path of brauer_shockley_frobenius
    cases = {
        (5, 3, 5): (3, 5),
        (10, 6, 15, 6): (10, 15, 6),
        (9, 4, 6, 4, 9): (6, 4, 9),
        (12, 8, 3, 20, 8): (3, 8),
    }
    for entries, expected in cases.items():
        minimal = NumericalSemigroup(entries).generators
        assert arranged_minimal(entries, minimal) == expected, entries


def test_brauer_shockley_handles_generator_one():
    assert brauer_shockley_frobenius((1, 7)) == -1


def test_cstar_constants_refuse_a_repeated_entry():
    with pytest.raises(ValueError, match=r"arrangement is not a minimal generating set \(repeated entry\)"):
        telescopic.cstar_constants((6, 10, 10, 15))
