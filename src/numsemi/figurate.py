"""Closed forms for consecutive triangular and tetrahedral generators.

Everything here is a formula keyed on n (often on n mod 2 or n mod 6):
pair gcds, telescopic direction, Frobenius numbers, c* constants, minimal
presentations, Betti elements and Apery sets.  Each operation checks its
own internal consistency (alternate formula variants must agree, every
fractional coefficient must divide exactly) and raises
``InvariantViolation`` on any mismatch, so a transcription bug can never
come back as a plausible-looking number.

Structural forms (c*, presentation, Betti, Apery) require the full
embedding dimension: n >= 3 for triangular triples, n >= 4 for
tetrahedral quadruples.  The Frobenius forms hold for every n >= 1.
"""

from __future__ import annotations

import enum
import itertools

from numsemi._record import Record, set_field
from numsemi.arith import INT64_MAX, binomial, checked_int64, require_positive, tetrahedral, triangular
from numsemi.core import AperySet
from numsemi.errors import InvariantViolation
from numsemi.telescopic import (
    FreeDecomposition,
    NotTelescopic,
    Presentation,
    apery_box,
    free_presentation,
    is_telescopic,
)


class Direction(enum.Enum):
    """Which arrangement of a generator family is telescopic."""

    FORWARD = "forward"
    REVERSE = "reverse"


class TelescopicClass(enum.Enum):
    """Joint classification of a sequence and its reversal."""

    FORWARD = "forward"
    REVERSE = "reverse"
    BOTH = "both"
    NEITHER = "neither"


class CstarForm(Record):
    """Closed-form c* constants together with the arrangement they refer to."""

    __slots__ = ("arrangement", "cstars")

    def __init__(self, arrangement: tuple[int, ...], cstars: tuple[int, ...]) -> None:
        set_field(self, "arrangement", arrangement)
        set_field(self, "cstars", cstars)


class PermutationOutcome(Record):
    """One permutation of a swept generator tuple, with the position at
    which its telescopic condition fails, or None when it is telescopic."""

    __slots__ = ("permutation", "failing_index")

    def __init__(self, permutation: tuple[int, ...], failing_index: int | None) -> None:
        set_field(self, "permutation", permutation)
        set_field(self, "failing_index", failing_index)

    @property
    def telescopic(self) -> bool:
        return self.failing_index is None


class PermutationReport(Record):
    """Result of sweeping every permutation of a generator tuple."""

    __slots__ = ("base", "outcomes")

    def __init__(self, base: tuple[int, ...], outcomes: tuple[PermutationOutcome, ...]) -> None:
        set_field(self, "base", base)
        set_field(self, "outcomes", outcomes)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def telescopic_count(self) -> int:
        return sum(1 for o in self.outcomes if o.telescopic)


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InvariantViolation(f"{what}: {num} is not divisible by {den}")
    return q


def triangular_generators(n: int) -> tuple[int, int, int]:
    """Three consecutive triangular numbers starting at index n.  n is
    checked once; past 64 bits the per-value forms raise their error."""
    require_positive(n, "n")
    t0 = n * (n + 1) // 2
    t1 = t0 + n + 1
    t2 = t1 + n + 2
    if t2 > INT64_MAX:
        return (triangular(n), triangular(n + 1), triangular(n + 2))
    return (t0, t1, t2)


def tetrahedral_generators(n: int) -> tuple[int, int, int, int]:
    """Four consecutive tetrahedral numbers starting at index n.  n is
    checked once; past 64 bits the per-value forms raise their error."""
    require_positive(n, "n")
    pair = (n + 1) * (n + 2)
    t0 = n * pair // 6
    # TH_{k+1} - TH_k = T_{k+1} = (k + 1)(k + 2) / 2
    t1 = t0 + pair // 2
    t2 = t1 + (n + 2) * (n + 3) // 2
    t3 = t2 + (n + 3) * (n + 4) // 2
    if t3 > INT64_MAX:
        return (tetrahedral(n), tetrahedral(n + 1), tetrahedral(n + 2), tetrahedral(n + 3))
    return (t0, t1, t2, t3)


def choose4_generators(n: int) -> tuple[int, ...]:
    """Five consecutive C(., 4) values: C(n+3, 4) .. C(n+7, 4)."""
    require_positive(n, "n")
    return tuple(binomial(n + 3 + j, 4) for j in range(5))


def arithmetic_generators(n: int, k: int) -> tuple[int, ...]:
    """The consecutive run n, n+1, ..., n+k-1."""
    require_positive(n, "n")
    require_positive(k, "k")
    return tuple(n + j for j in range(k))


def triangular_pair_gcd(n: int) -> int:
    """gcd of two consecutive triangular numbers: (n+1)/2 for odd n, n+1 for even."""
    require_positive(n, "n")
    if n % 2:
        return (n + 1) // 2
    return n + 1


def tetrahedral_pair_gcd(n: int) -> int:
    """gcd of two consecutive tetrahedral numbers, keyed on n mod 6."""
    require_positive(n, "n")
    k, r = divmod(n, 6)
    if r == 0:
        return (6 * k + 1) * (3 * k + 1)
    if r == 1:
        return (3 * k + 1) * (2 * k + 1)
    if r == 2:
        return (2 * k + 1) * (3 * k + 2)
    if r == 3:
        return (3 * k + 2) * (6 * k + 5)
    if r == 4:
        return (6 * k + 5) * (k + 1)
    return (k + 1) * (6 * k + 7)


def triangular_frobenius_case_form(n: int) -> int:
    """Parity-split cubic for the triangular Frobenius number."""
    require_positive(n, "n")
    if n % 2:
        return _exact_div(3 * n**3 + 6 * n**2 - 3 * n - 10, 4, "odd triangular Frobenius form")
    return _exact_div(3 * n**3 + 9 * n**2 + 6 * n - 4, 4, "even triangular Frobenius form")


def triangular_frobenius_floor_form(n: int) -> int:
    """Unified floor form: floor(n/2) * (sum of the three generators - 1) - 1."""
    return _triangular_floor_form(n, triangular_generators(n))


def _triangular_floor_form(n: int, gens: tuple[int, int, int]) -> int:
    return (n // 2) * (sum(gens) - 1) - 1


def frobenius_triangular(n: int) -> int:
    """Frobenius number of three consecutive triangular numbers.

    Evaluates both printed forms and insists they agree.
    """
    return _frobenius_triangular(n, triangular_generators(n))


def _frobenius_triangular(n: int, gens: tuple[int, int, int]) -> int:
    case = triangular_frobenius_case_form(n)
    floor = _triangular_floor_form(n, gens)
    if case != floor:
        raise InvariantViolation(f"triangular Frobenius forms disagree at n={n}: {case} != {floor}")
    return checked_int64(case, "triangular Frobenius number")


def baker_alternating_form(n: int) -> int:
    """Single-expression (-1)^n variant of the triangular Frobenius number."""
    require_positive(n, "n")
    sign = -1 if n % 2 else 1
    num = -14 + 6 * sign + (3 + 9 * sign) * n + 3 * (5 + sign) * n**2 + 6 * n**3
    return _exact_div(num, 8, "alternating-form numerator")


def baker_parity_form(n: int) -> int:
    """Parity-split variant of the same value."""
    require_positive(n, "n")
    if n % 2:
        return _exact_div(6 * n**3 + 12 * n**2 - 6 * n - 20, 8, "odd parity form")
    return _exact_div(6 * n**3 + 18 * n**2 + 12 * n - 8, 8, "even parity form")


def baker_a(n: int) -> int:
    """Triangular Frobenius number via the conjectured cubic forms,
    cross-asserting the alternating and parity-split variants."""
    alt = baker_alternating_form(n)
    parity = baker_parity_form(n)
    if alt != parity:
        raise InvariantViolation(f"cubic form variants disagree at n={n}: {alt} != {parity}")
    return checked_int64(alt, "triangular Frobenius number")


def frobenius_tetrahedral(n: int) -> int:
    """Frobenius number of four consecutive tetrahedral numbers, keyed on
    n mod 6.  All interior divisions are exact by construction."""
    return _frobenius_tetrahedral(n, tetrahedral_generators(n))


def _frobenius_tetrahedral(n: int, gens: tuple[int, int, int, int]) -> int:
    t0, t1, t2, t3 = gens
    r = n % 6
    if r == 0:
        value = _exact_div(n - 3, 3, "n=6k case") * t1 + n * t2 + _exact_div(n, 2, "n=6k case") * t3 - t0
    elif r == 1:
        value = (
            (n - 1) * t1
            + _exact_div(n - 1, 2, "n=6k+1 case") * t2
            + _exact_div(n - 1, 3, "n=6k+1 case") * t3
            - t0
        )
    elif r == 2:
        value = (
            (n - 1) * t1
            + _exact_div(n - 2, 3, "n=6k+2 case") * t2
            + _exact_div(n, 2, "n=6k+2 case") * t3
            - t0
        )
    elif r == 3:
        value = (
            _exact_div(n - 3, 3, "n=6k+3 case") * t1
            + _exact_div(n - 1, 2, "n=6k+3 case") * t2
            + (n + 1) * t3
            - t0
        )
    elif r == 4:
        value = (
            _exact_div(n + 2, 3, "n=6k+4 case") * t2
            + _exact_div(n + 2, 2, "n=6k+4 case") * t1
            + (n + 2) * t0
            - t3
        )
    else:
        value = (
            (n + 4) * t2
            + _exact_div(n + 1, 3, "n=6k+5 case") * t1
            + _exact_div(n + 1, 2, "n=6k+5 case") * t0
            - t3
        )
    return checked_int64(value, "tetrahedral Frobenius number")


def brauer_arithmetic_frobenius(n: int, k: int) -> int:
    """Frobenius number of the consecutive run n, ..., n+k-1:
    (floor((n-2)/(k-1)) + 1) * n - 1."""
    require_positive(n, "n")
    if k < 2:
        raise ValueError(f"need a run of at least 2 consecutive integers, got k={k}")
    if n < 2:
        raise ValueError(f"need n >= 2 (n=1 generates everything), got n={n}")
    return checked_int64(((n - 2) // (k - 1) + 1) * n - 1, "arithmetic-run Frobenius number")


def triangular_direction(n: int) -> Direction:
    """Both triangular arrangements are telescopic; forward is canonical."""
    require_positive(n, "n")
    return Direction.FORWARD


def tetrahedral_direction(n: int) -> Direction:
    """Forward for n mod 6 in {0, 1, 2, 3}, reverse for {4, 5}."""
    require_positive(n, "n")
    return Direction.FORWARD if n % 6 in (0, 1, 2, 3) else Direction.REVERSE


REDUCED_EDIM_MSG = "reduced embedding dimension; use generic machinery"


def triangular_cstar(n: int) -> CstarForm:
    """Closed-form c* constants for the forward triangular arrangement."""
    require_positive(n, "n")
    if n < 3:
        raise ValueError(REDUCED_EDIM_MSG)
    return CstarForm(triangular_generators(n), _triangular_cstars(n))


def _triangular_cstars(n: int) -> tuple[int, int]:
    if n % 2:
        return (n, _exact_div(n + 1, 2, "odd triangular c*"))
    return (_exact_div(n, 2, "even triangular c*"), n + 1)


def tetrahedral_cstar(n: int) -> CstarForm:
    """Closed-form c* constants over the telescopic arrangement (forward
    for n mod 6 in {0..3}, reversed for {4, 5})."""
    require_positive(n, "n")
    if n < 4:
        raise ValueError(REDUCED_EDIM_MSG)
    gens = tetrahedral_generators(n)
    return CstarForm(gens if n % 6 < 4 else gens[::-1], _tetrahedral_cstars(n))


def _tetrahedral_cstars(n: int) -> tuple[int, int, int]:
    div = _exact_div
    r = n % 6
    if r == 0:
        return (div(n, 3, "c*"), n + 1, div(n + 2, 2, "c*"))
    if r == 1:
        return (n, div(n + 1, 2, "c*"), div(n + 2, 3, "c*"))
    if r == 2:
        return (n, div(n + 1, 3, "c*"), div(n + 2, 2, "c*"))
    if r == 3:
        return (div(n, 3, "c*"), div(n + 1, 2, "c*"), n + 2)
    if r == 4:
        return (div(n + 5, 3, "c*"), div(n + 4, 2, "c*"), n + 3)
    return (n + 5, div(n + 4, 3, "c*"), div(n + 3, 2, "c*"))


def triangular_presentation(n: int) -> Presentation:
    """Minimal presentation of the triangular triple semigroup over the
    forward arrangement: c*_i x_i against the printed witness over
    x_1..x_{i-1}, checked as a free decomposition."""
    form = triangular_cstar(n)
    if n % 2:
        reps = ((n + 2,), (0, _exact_div(n + 3, 2, "presentation")))
    else:
        reps = ((_exact_div(n + 2, 2, "presentation"),), (0, n + 3))
    return free_presentation(FreeDecomposition(form.arrangement, form.cstars, reps))


def tetrahedral_presentation(n: int) -> Presentation:
    """Minimal presentation of the tetrahedral quadruple semigroup over its
    telescopic arrangement: c*_i x_i against the printed witness over
    x_1..x_{i-1} for i = 2..4, checked as a free decomposition."""
    form = tetrahedral_cstar(n)
    div = _exact_div
    r = n % 6
    if r == 0:
        reps = ((div(n + 3, 3, "pres"),), (0, n + 4), (0, div(n + 4, 2, "pres"), 2))
    elif r == 1:
        reps = ((n + 3,), (div(n + 3, 2, "pres"), 2), (0, 0, div(n + 5, 3, "pres")))
    elif r == 2:
        reps = ((n + 3,), (0, div(n + 4, 3, "pres")), (0, div(n + 4, 2, "pres"), 2))
    elif r == 3:
        reps = ((div(n + 3, 3, "pres"),), (div(n + 3, 2, "pres"), 2), (0, 0, n + 5))
    elif r == 4:
        # reversed arrangement: positions run TH_{n+3}, TH_{n+2}, TH_{n+1}, TH_n
        reps = ((div(n + 2, 3, "pres"),), (div(n + 2, 6, "pres"), div(n - 1, 3, "pres")), (0, 0, n))
    else:
        reps = ((n + 2,), (0, div(n + 1, 3, "pres")), (0, div(n + 1, 6, "pres"), div(n - 2, 3, "pres")))
    return free_presentation(FreeDecomposition(form.arrangement, form.cstars, reps))


def triangular_betti(n: int) -> set[int]:
    """Betti elements of the triangular triple semigroup (values are
    multiples of tetrahedral numbers)."""
    require_positive(n, "n")
    if n < 3:
        raise ValueError(REDUCED_EDIM_MSG)
    big, small = binomial(n + 3, 3), binomial(n + 2, 3)
    if n % 2:
        values = (_exact_div(3 * big, 2, "Betti"), 3 * small)
    else:
        values = (3 * big, _exact_div(3 * small, 2, "Betti"))
    return {checked_int64(v, "Betti element") for v in values}


def tetrahedral_betti(n: int) -> set[int]:
    """Betti elements of the tetrahedral quadruple semigroup, keyed on
    n mod 6 (values are multiples of C(., 4) numbers)."""
    require_positive(n, "n")
    if n < 4:
        raise ValueError(REDUCED_EDIM_MSG)
    b5, b4, b3 = binomial(n + 5, 4), binomial(n + 4, 4), binomial(n + 3, 4)
    r = n % 6
    # one of the three is 4/3 of its C(., 4)
    if r == 0:
        values = (2 * b5, 4 * b4, _exact_div(4 * b3, 3, "Betti"))
    elif r == 1:
        values = (_exact_div(4 * b5, 3, "Betti"), 2 * b4, 4 * b3)
    elif r == 2:
        values = (2 * b5, _exact_div(4 * b4, 3, "Betti"), 4 * b3)
    elif r == 3:
        values = (4 * b5, 2 * b4, _exact_div(4 * b3, 3, "Betti"))
    elif r == 4:
        values = (_exact_div(4 * b5, 3, "Betti"), 2 * b4, 4 * b3)
    else:
        values = (4 * b5, _exact_div(4 * b4, 3, "Betti"), 2 * b3)
    return {checked_int64(v, "Betti element") for v in values}


def table_row(family: str, n: int) -> tuple:
    """One row of a family table, in column order: (n, generators, F, c*,
    sorted Betti elements, direction value), with c* and Betti "" below
    full embedding dimension.  The generators are computed once and passed
    to the formula ``frobenius_*`` wraps; c* is the tuple ``*_cstar`` wraps,
    with no ``CstarForm``.  Every check of those forms runs.  The Betti
    elements and the direction are read through this module, so a patched
    form is the one a row reports."""
    if family == "triangular":
        gens = triangular_generators(n)
        row = (n, gens, _frobenius_triangular(n, gens))
        if n < 3:
            return (*row, "", "", triangular_direction(n).value)
        return (*row, _triangular_cstars(n), sorted(triangular_betti(n)), triangular_direction(n).value)
    if family == "tetrahedral":
        gens = tetrahedral_generators(n)
        row = (n, gens, _frobenius_tetrahedral(n, gens))
        if n < 4:
            return (*row, "", "", tetrahedral_direction(n).value)
        return (*row, _tetrahedral_cstars(n), sorted(tetrahedral_betti(n)), tetrahedral_direction(n).value)
    raise ValueError(f"unknown family {family!r}")


def triangular_apery(n: int) -> AperySet:
    """Closed-form Apery set of T_n: the box of the closed-form c*."""
    form = triangular_cstar(n)
    return apery_box(form.arrangement, form.cstars)


def tetrahedral_apery(n: int) -> AperySet:
    """Closed-form Apery set over the family anchor (TH_n for n mod 6 in
    {0..3}, TH_{n+3} for {4, 5}): the box of the closed-form c*."""
    form = tetrahedral_cstar(n)
    return apery_box(form.arrangement, form.cstars)


def choose4_family(n: int) -> tuple[tuple[int, ...], TelescopicClass]:
    """Five consecutive C(., 4) generators plus their joint classification,
    computed by the generic telescopic checker in both directions."""
    gens = choose4_generators(n)
    forward = bool(is_telescopic(gens))
    reverse = bool(is_telescopic(gens[::-1]))
    if forward and reverse:
        cls = TelescopicClass.BOTH
    elif forward:
        cls = TelescopicClass.FORWARD
    elif reverse:
        cls = TelescopicClass.REVERSE
    else:
        cls = TelescopicClass.NEITHER
    return gens, cls


CHOOSE5_BASE = (792, 1287, 2002, 3003, 4368, 6188)


def choose5_counterexample() -> PermutationReport:
    """Sweep all 720 permutations of six consecutive C(., 5) values; none
    is telescopic."""
    outcomes = []
    for perm in itertools.permutations(CHOOSE5_BASE):
        verdict = is_telescopic(perm)
        if verdict:
            outcomes.append(PermutationOutcome(perm, None))
        else:
            assert isinstance(verdict, NotTelescopic)
            outcomes.append(PermutationOutcome(perm, verdict.failing_index))
    return PermutationReport(CHOOSE5_BASE, tuple(outcomes))


def figurate_embedding_dimension(family: str, n: int) -> int:
    """Embedding dimension of the family semigroup at index n."""
    require_positive(n, "n")
    if family == "triangular":
        return 1 if n == 1 else 2 if n == 2 else 3
    if family == "tetrahedral":
        return 1 if n == 1 else 3 if n in (2, 3) else 4
    raise ValueError(f"unknown family {family!r}")
