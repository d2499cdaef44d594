"""Closed-form engine tests: every formula against the generic machinery."""

from __future__ import annotations

import math

import pytest

from numsemi.arith import INT64_MAX, tetrahedral, triangular
from numsemi.core import AperySet, NumericalSemigroup, evaluate, frobenius_oracle
from numsemi.figurate import (
    CHOOSE5_BASE,
    Direction,
    TelescopicClass,
    baker_a,
    baker_alternating_form,
    baker_parity_form,
    brauer_arithmetic_frobenius,
    choose4_family,
    choose4_generators,
    choose5_counterexample,
    figurate_embedding_dimension,
    table_row,
    frobenius_tetrahedral,
    frobenius_triangular,
    tetrahedral_apery,
    tetrahedral_betti,
    tetrahedral_cstar,
    tetrahedral_direction,
    tetrahedral_generators,
    tetrahedral_pair_gcd,
    tetrahedral_presentation,
    triangular_apery,
    triangular_betti,
    triangular_cstar,
    triangular_direction,
    triangular_frobenius_case_form,
    triangular_frobenius_floor_form,
    triangular_generators,
    triangular_pair_gcd,
    triangular_presentation,
)
from numsemi.telescopic import cstar_constants, free_betti, is_free, is_telescopic


def test_pair_gcd_examples():
    assert triangular_pair_gcd(3) == 2
    assert triangular_pair_gcd(4) == 5
    assert triangular_pair_gcd(1) == 1
    assert tetrahedral_pair_gcd(6) == 28
    assert tetrahedral_pair_gcd(4) == 5
    assert tetrahedral_pair_gcd(5) == 7


def test_pair_gcd_lemma_sweep():
    for n in range(1, 501):
        t = triangular_generators(n)
        th = tetrahedral_generators(n)
        assert triangular_pair_gcd(n) == math.gcd(t[0], t[1])
        assert tetrahedral_pair_gcd(n) == math.gcd(th[0], th[1])


def test_family_coprimality_sweep():
    for n in range(1, 501):
        assert math.gcd(*triangular_generators(n)) == 1
        assert math.gcd(*tetrahedral_generators(n)) == 1


def test_frobenius_triangular_examples():
    assert frobenius_triangular(3) == 29
    assert frobenius_triangular(4) == 89
    assert frobenius_triangular(1) == -1


def test_baker_examples():
    assert baker_a(3) == 29
    assert baker_a(4) == 89
    assert baker_a(2) == 17


def test_triangular_form_variants_agree():
    for n in range(1, 200):
        assert triangular_frobenius_case_form(n) == triangular_frobenius_floor_form(n)
        assert baker_alternating_form(n) == baker_parity_form(n)
        assert frobenius_triangular(n) == baker_a(n)


def test_frobenius_tetrahedral_examples():
    assert frobenius_tetrahedral(4) == 253
    assert frobenius_tetrahedral(6) == 1243
    assert frobenius_tetrahedral(5) == 853


def test_frobenius_closed_forms_vs_oracle_small():
    for n in range(1, 13):
        assert frobenius_triangular(n) == frobenius_oracle(triangular_generators(n)), n
    for n in range(1, 10):
        assert frobenius_tetrahedral(n) == frobenius_oracle(tetrahedral_generators(n)), n


def test_brauer_arithmetic_examples():
    assert brauer_arithmetic_frobenius(6, 2) == 29
    # (floor(3/4) + 1) * 5 - 1; the run 5..9 misses only 1..4
    assert brauer_arithmetic_frobenius(5, 5) == 4
    assert brauer_arithmetic_frobenius(2, 2) == 1


def test_brauer_arithmetic_errors():
    with pytest.raises(ValueError):
        brauer_arithmetic_frobenius(6, 1)
    with pytest.raises(ValueError):
        brauer_arithmetic_frobenius(1, 2)


def test_brauer_arithmetic_vs_oracle_small():
    for n in range(2, 15):
        for k in range(2, n + 1):
            gens = tuple(range(n, n + k))
            assert brauer_arithmetic_frobenius(n, k) == frobenius_oracle(gens), (n, k)


def test_directions():
    assert triangular_direction(7) is Direction.FORWARD
    assert tetrahedral_direction(10) is Direction.REVERSE
    assert tetrahedral_direction(6) is Direction.FORWARD


def test_cstar_examples():
    assert triangular_cstar(3).cstars == (3, 2)
    form = tetrahedral_cstar(6)
    assert form.cstars == (2, 7, 4)
    assert form.arrangement == tetrahedral_generators(6)
    form4 = tetrahedral_cstar(4)
    assert form4.arrangement == (84, 56, 35, 20)
    assert form4.cstars == (3, 4, 7)


def test_cstar_closed_vs_generic():
    for n in range(3, 13):
        form = triangular_cstar(n)
        assert form.cstars == cstar_constants(form.arrangement)[0], n
    for n in range(4, 13):
        form = tetrahedral_cstar(n)
        assert form.cstars == cstar_constants(form.arrangement)[0], n


def test_cstar_product_is_freeness():
    for n in range(3, 20):
        form = triangular_cstar(n)
        assert math.prod(form.cstars) == form.arrangement[0]
    for n in range(4, 20):
        form = tetrahedral_cstar(n)
        assert math.prod(form.cstars) == form.arrangement[0]


def test_structural_forms_refuse_small_n():
    for fn in (triangular_cstar, triangular_presentation, triangular_betti, triangular_apery):
        with pytest.raises(ValueError, match="reduced embedding dimension"):
            fn(2)
    for fn in (tetrahedral_cstar, tetrahedral_presentation, tetrahedral_betti, tetrahedral_apery):
        with pytest.raises(ValueError, match="reduced embedding dimension"):
            fn(3)


def test_triangular_presentation_examples():
    pres3 = triangular_presentation(3)
    assert set(pres3.relations) == {((0, 3, 0), (5, 0, 0)), ((0, 0, 2), (0, 3, 0))}
    pres4 = triangular_presentation(4)
    assert set(pres4.relations) == {((0, 2, 0), (3, 0, 0)), ((0, 0, 5), (0, 7, 0))}


def test_tetrahedral_presentation_example():
    # one n per residue class mod 6; n = 10 and 11 use the reversed arrangement
    expected = {
        6: {((0, 2, 0, 0), (3, 0, 0, 0)), ((0, 0, 7, 0), (0, 10, 0, 0)), ((0, 0, 0, 4), (0, 5, 2, 0))},
        7: {((0, 7, 0, 0), (10, 0, 0, 0)), ((0, 0, 4, 0), (5, 2, 0, 0)), ((0, 0, 0, 3), (0, 0, 4, 0))},
        8: {((0, 8, 0, 0), (11, 0, 0, 0)), ((0, 0, 3, 0), (0, 4, 0, 0)), ((0, 0, 0, 5), (0, 6, 2, 0))},
        9: {((0, 3, 0, 0), (4, 0, 0, 0)), ((0, 0, 5, 0), (6, 2, 0, 0)), ((0, 0, 0, 11), (0, 0, 14, 0))},
        10: {((0, 5, 0, 0), (4, 0, 0, 0)), ((0, 0, 7, 0), (2, 3, 0, 0)), ((0, 0, 0, 13), (0, 0, 10, 0))},
        11: {((0, 16, 0, 0), (13, 0, 0, 0)), ((0, 0, 5, 0), (0, 4, 0, 0)), ((0, 0, 0, 7), (0, 2, 3, 0))},
    }
    for n, relations in expected.items():
        pres = tetrahedral_presentation(n)
        assert pres.arrangement == tetrahedral_cstar(n).arrangement
        assert set(pres.relations) == relations, n


def test_presentations_have_e_minus_1_pairs_and_equal_sides():
    for n in range(3, 25):
        pres = triangular_presentation(n)
        assert len(pres) == 2
        for lhs, rhs in pres.relations:
            assert evaluate(lhs, pres.arrangement) == evaluate(rhs, pres.arrangement)
    for n in range(4, 25):
        pres = tetrahedral_presentation(n)
        assert len(pres) == 3
        for lhs, rhs in pres.relations:
            assert evaluate(lhs, pres.arrangement) == evaluate(rhs, pres.arrangement)


def test_betti_examples():
    assert triangular_betti(3) == {30}
    assert triangular_betti(4) == {30, 105}
    assert tetrahedral_betti(4) == {168, 140}


def test_betti_closed_vs_free_and_presentation():
    for n in range(3, 20):
        fd = is_free(triangular_cstar(n).arrangement)
        assert triangular_betti(n) == free_betti(fd)
        assert triangular_betti(n) == set(triangular_presentation(n).evaluations())
    for n in range(4, 20):
        fd = is_free(tetrahedral_cstar(n).arrangement)
        assert tetrahedral_betti(n) == free_betti(fd)
        assert tetrahedral_betti(n) == set(tetrahedral_presentation(n).evaluations())


def test_betti_closed_vs_oracle_small():
    for n in range(3, 9):
        assert triangular_betti(n) == NumericalSemigroup(triangular_generators(n)).betti_elements()
    for n in range(4, 7):
        assert tetrahedral_betti(n) == NumericalSemigroup(tetrahedral_generators(n)).betti_elements()


# The coefficient ranges printed in the paper for the Apery box, one per
# class of n, listed in ascending generator order with the outermost
# coefficient first.  Each range must equal c* - 1 for the generator it
# runs over; in the reversed tetrahedral arrangement (n mod 6 in {4, 5})
# ascending order is the reverse of c* order.  Both sides are linear in n
# within a class, so two points per class already prove the identity.
PRINTED_TRIANGULAR_RANGES = {
    0: lambda n: ((n - 2) // 2, n),
    1: lambda n: (n - 1, (n - 1) // 2),
}
PRINTED_TETRAHEDRAL_RANGES = {
    0: lambda n: ((n - 3) // 3, n, n // 2),
    1: lambda n: (n - 1, (n - 1) // 2, (n - 1) // 3),
    2: lambda n: (n - 1, (n - 2) // 3, n // 2),
    3: lambda n: ((n - 3) // 3, (n - 1) // 2, n + 1),
    4: lambda n: (n + 2, (n + 2) // 2, (n + 2) // 3),
    5: lambda n: ((n + 1) // 2, (n + 1) // 3, n + 4),
}


def test_printed_apery_ranges_are_cstar_minus_one():
    for n in range(3, 61):
        cstars = triangular_cstar(n).cstars
        assert PRINTED_TRIANGULAR_RANGES[n % 2](n) == tuple(c - 1 for c in cstars), n
    for n in range(4, 61):
        cstars = tetrahedral_cstar(n).cstars
        if n % 6 in (4, 5):
            cstars = cstars[::-1]
        assert PRINTED_TETRAHEDRAL_RANGES[n % 6](n) == tuple(c - 1 for c in cstars), n


def test_triangular_apery_examples():
    ap3 = triangular_apery(3)
    assert ap3.anchor == 6
    assert PRINTED_TRIANGULAR_RANGES[1](3) == (2, 1)
    assert set(ap3) == {a * 10 + b * 15 for a in range(3) for b in range(2)}
    # even case: the largest element pins the Frobenius number
    ap4 = triangular_apery(4)
    assert ap4.max_element() == 99
    assert ap4.frobenius() == 89


def test_tetrahedral_apery_example():
    ap = tetrahedral_apery(4)
    assert ap.anchor == 84
    assert PRINTED_TETRAHEDRAL_RANGES[4](4) == (6, 3, 2)
    assert len(set(ap)) == 84
    assert set(ap) == {
        a * 20 + b * 35 + c * 56 for a in range(7) for b in range(4) for c in range(3)
    }
    assert ap.frobenius() == 253


def test_apery_closed_vs_oracle():
    for n in range(3, 12):
        ap = triangular_apery(n)
        S = NumericalSemigroup(triangular_generators(n))
        assert ap == S.apery(ap.anchor), n
    for n in range(4, 10):
        ap = tetrahedral_apery(n)
        S = NumericalSemigroup(tetrahedral_generators(n))
        assert ap == S.apery(ap.anchor), n


def test_closed_form_boxes_pass_the_checked_constructor():
    # tetrahedral n mod 6 in {4, 5} are reverse boxes over TH_{n+3}
    boxes = [triangular_apery(n) for n in range(3, 81)] + [tetrahedral_apery(n) for n in range(4, 41)]
    assert {ap.anchor for ap in boxes} >= {tetrahedral_generators(n)[-1] for n in (4, 5, 10, 11)}
    for ap in boxes:
        assert AperySet(ap.anchor, ap.by_residue) == ap


def test_family_semigroups_are_symmetric():
    # free semigroups are symmetric: F = 2 g - 1
    for n in range(1, 41):
        assert 2 * NumericalSemigroup(triangular_generators(n)).genus() - 1 == frobenius_triangular(n), n
    for n in range(1, 31):
        assert 2 * NumericalSemigroup(tetrahedral_generators(n)).genus() - 1 == frobenius_tetrahedral(n), n


def test_apery_frobenius_cross_check():
    for n in range(3, 30):
        assert triangular_apery(n).frobenius() == frobenius_triangular(n)
    for n in range(4, 25):
        assert tetrahedral_apery(n).frobenius() == frobenius_tetrahedral(n)


def test_choose4_examples():
    assert choose4_generators(6) == (126, 210, 330, 495, 715)
    _, cls6 = choose4_family(6)
    assert cls6 is TelescopicClass.FORWARD
    _, cls10 = choose4_family(10)
    assert cls10 is TelescopicClass.REVERSE
    _, cls4 = choose4_family(4)
    assert cls4 is TelescopicClass.BOTH


def test_choose5_counterexample():
    report = choose5_counterexample()
    assert report.total == 720
    assert report.telescopic_count == 0
    assert not is_telescopic(CHOOSE5_BASE)
    assert not is_telescopic(CHOOSE5_BASE[::-1])


def test_choose5_base_values():
    assert CHOOSE5_BASE == (792, 1287, 2002, 3003, 4368, 6188)
    assert CHOOSE5_BASE == tuple(math.comb(12 + j, 5) for j in range(6))


def test_embedding_dimension_examples():
    assert figurate_embedding_dimension("triangular", 2) == 2
    assert figurate_embedding_dimension("tetrahedral", 3) == 3
    assert figurate_embedding_dimension("tetrahedral", 12) == 4
    with pytest.raises(ValueError):
        figurate_embedding_dimension("square", 3)


def test_embedding_dimension_matches_generic():
    for n in range(1, 13):
        assert (
            figurate_embedding_dimension("triangular", n)
            == NumericalSemigroup(triangular_generators(n)).embedding_dimension
        )
        assert (
            figurate_embedding_dimension("tetrahedral", n)
            == NumericalSemigroup(tetrahedral_generators(n)).embedding_dimension
        )


def _per_value(form, count: int, n: int) -> tuple[int, ...]:
    """The generators as the per-value forms give them, one call each, n
    itself first."""
    return (form(n), *(form(n + j) for j in range(1, count)))


def test_generator_forms_equal_the_per_value_forms():
    for n in range(1, 5001):
        assert triangular_generators(n) == _per_value(triangular, 3, n)
        assert tetrahedral_generators(n) == _per_value(tetrahedral, 4, n)


@pytest.mark.parametrize(
    "family, form, count, edge",
    [
        # edge: the last index whose value fits in 64 bits
        (triangular_generators, triangular, 3, 2**32 - 1),
        (tetrahedral_generators, tetrahedral, 4, 3810777),
    ],
)
def test_generator_forms_raise_the_per_value_error_past_64_bits(family, form, count, edge):
    assert form(edge) <= INT64_MAX
    with pytest.raises(OverflowError):
        form(edge + 1)
    assert family(edge - count + 1) == _per_value(form, count, edge - count + 1)
    # the first value fits and a later one does not, then none fits, then
    # n itself is out of range, or not a positive int
    for n in (*range(edge - count + 2, edge + 2), INT64_MAX, 2**63, 0, -1, True, 2.5):
        with pytest.raises((TypeError, ValueError, OverflowError)) as expected:
            _per_value(form, count, n)
        with pytest.raises(expected.type) as got:
            family(n)
        assert str(got.value) == str(expected.value)
    with pytest.raises(OverflowError, match=r"^triangular\(4294967296\) exceeds the 64-bit integer range"):
        triangular_generators(2**32 - 2)


def test_closed_form_overflow():
    with pytest.raises(OverflowError):
        frobenius_triangular(3_000_000)
    with pytest.raises(OverflowError):
        frobenius_tetrahedral(300_000)
    with pytest.raises(OverflowError):
        brauer_arithmetic_frobenius(2**40, 2)


def _row_from_public_forms(family: str, n: int) -> tuple:
    """A table row from the public forms, each taking n alone, in the
    order the row evaluates them."""
    forms = {
        "triangular": (triangular_generators, frobenius_triangular, triangular_cstar, triangular_betti, triangular_direction),
        "tetrahedral": (tetrahedral_generators, frobenius_tetrahedral, tetrahedral_cstar, tetrahedral_betti, tetrahedral_direction),
    }
    generators, frobenius, cstar, betti, direction = forms[family]
    gens = generators(n)
    full = figurate_embedding_dimension(family, n) == len(gens)
    return (
        n,
        gens,
        frobenius(n),
        cstar(n).cstars if full else "",
        sorted(betti(n)) if full else "",
        direction(n).value,
    )


@pytest.mark.parametrize("family", ["triangular", "tetrahedral"])
def test_table_row_is_the_public_forms(family):
    for n in range(1, 301):
        assert table_row(family, n) == _row_from_public_forms(family, n)
    # the same error first, from the same form: n out of range or not an
    # int, generators past 64 bits, or F past 64 bits with the generators in
    for n in (0, -1, True, 2.5, INT64_MAX, 2**32, 3_810_777, 3_000_000, 300_000):
        try:
            expected = _row_from_public_forms(family, n)
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                table_row(family, n)
            assert str(got.value) == str(exc)
        else:
            assert table_row(family, n) == expected
    with pytest.raises(ValueError, match="unknown family 'choose4'"):
        table_row("choose4", 5)
