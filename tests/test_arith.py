"""Integer kernel tests: gcd folds, binomials, figurate generators."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numsemi.arith import (
    INT64_MAX,
    binomial,
    checked_int64,
    gcd,
    gcd_list,
    require_positive,
    tetrahedral,
    triangular,
    validated_generators,
)


def test_gcd_examples():
    assert gcd(6, 10) == 2
    assert gcd(7, 7) == 7
    assert gcd(792, 1287) == 99


def test_gcd_zero_convention():
    assert gcd(0, 42) == 42
    assert gcd(42, 0) == 42


def test_gcd_list_examples():
    assert gcd_list([6, 10, 15]) == 1
    assert gcd_list([20, 35, 56, 84]) == 1
    assert gcd_list([42]) == 42
    assert gcd_list([-4]) == 4
    assert gcd_list(iter([12, 18, 30])) == 6


def test_gcd_list_empty():
    with pytest.raises(ValueError, match="empty sequence"):
        gcd_list([])


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8))
def test_gcd_list_permutation_and_duplicate_invariance(xs):
    base = gcd_list(xs)
    rng = random.Random(0xC0FFEE)
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert gcd_list(shuffled) == base
    assert gcd_list(xs + [xs[0]]) == base


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(7, 3) == 35
    assert binomial(17, 5) == 6188
    assert binomial(3, 7) == 0
    assert binomial(0, 0) == 1


def test_binomial_pascal_identity():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_overflow():
    with pytest.raises(OverflowError):
        binomial(70, 35)


def test_binomial_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_triangular_examples():
    assert triangular(1) == 1
    assert triangular(6) == 21
    assert triangular(3) == 6


def test_tetrahedral_examples():
    assert tetrahedral(5) == 35
    assert tetrahedral(1) == 1
    assert tetrahedral(4) == 20


def test_figurate_matches_binomial():
    for n in range(1, 200):
        assert triangular(n) == binomial(n + 1, 2)
        assert tetrahedral(n) == binomial(n + 2, 3)


def test_figurate_difference_identities():
    # consecutive tetrahedral differences are the *next* triangular number
    for n in range(1, 501):
        assert triangular(n + 1) - triangular(n) == n + 1
        assert tetrahedral(n + 1) - tetrahedral(n) == triangular(n + 1)


def test_difference_gcd_lemma():
    # gcd of a sequence divides the gcd of consecutive differences; if the
    # differences are coprime the sequence is coprime.
    rng = random.Random(20260810)
    for _ in range(1000):
        length = rng.randint(2, 8)
        seq = [rng.randint(1, 10**4) for _ in range(length)]
        d1 = gcd_list(seq)
        diffs = [b - a for a, b in zip(seq, seq[1:])]
        d2 = math.gcd(*diffs)
        if d2 == 0:
            continue  # constant sequence: every d1 divides 0
        assert d2 % d1 == 0
        if d2 == 1:
            assert d1 == 1


def test_figurate_overflow():
    with pytest.raises(OverflowError):
        triangular(10**12)
    with pytest.raises(OverflowError):
        tetrahedral(10**9)


def test_checked_int64_bounds():
    assert checked_int64(INT64_MAX) == INT64_MAX
    with pytest.raises(OverflowError):
        checked_int64(INT64_MAX + 1)


def test_validated_generators():
    assert validated_generators((6, 10, 15)) == (6, 10, 15)
    with pytest.raises(ValueError):
        validated_generators(())
    with pytest.raises(ValueError):
        validated_generators((0, 3))
    with pytest.raises(OverflowError):
        validated_generators((2**63,))
    with pytest.raises(TypeError):
        validated_generators((1.5, 2))


def test_overflow_and_entry_messages_are_built_only_on_failure_and_unchanged():
    cases = [
        (triangular, (2**32,), OverflowError, "triangular(4294967296) exceeds the 64-bit integer range: 9223372039002259456"),
        (tetrahedral, (2**22,), OverflowError, "tetrahedral(4194304) exceeds the 64-bit integer range: 12297838178567454720"),
        (binomial, (70, 35), OverflowError, "binomial(70, 35) exceeds the 64-bit integer range: 112186277816662845432"),
        (validated_generators, ((3, True),), TypeError, "generators entry must be an int, got bool"),
        (validated_generators, ((3, 0), "gens"), ValueError, "gens entry must be >= 1, got 0"),
        (validated_generators, ((2**63,),), OverflowError, "generators entry exceeds the 64-bit integer range: 9223372036854775808"),
    ]
    for func, args, error, message in cases:
        with pytest.raises(error) as info:
            func(*args)
        assert str(info.value) == message
    assert triangular(2**32 - 1) == 2**63 - 2**31
    # an int subclass other than bool passes as before
    class Count(int):
        pass

    assert validated_generators((Count(3), 5)) == (3, 5)


def test_require_positive_returns_a_plain_int_at_once_and_keeps_every_refusal():
    for value in (1, 5, INT64_MAX):
        assert require_positive(value, "n") is value
    cases = [
        (True, TypeError, "n must be an int, got bool"),
        (2.5, TypeError, "n must be an int, got float"),
        (0, ValueError, "n must be >= 1, got 0"),
        (-1, ValueError, "n must be >= 1, got -1"),
        (2**63, OverflowError, "n exceeds the 64-bit integer range: 9223372036854775808"),
    ]
    for value, error, message in cases:
        with pytest.raises(error) as info:
            require_positive(value, "n")
        assert str(info.value) == message

    # an int subclass is not a plain int: the checks pass it as it is
    class Count(int):
        pass

    count = Count(3)
    assert require_positive(count, "n") is count
    with pytest.raises(ValueError):
        require_positive(Count(0), "n")
