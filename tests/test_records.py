"""The frozen result records: value semantics, repr, checks, pickling and
copying, pattern matching, and the import cost of the package."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from numsemi import core, figurate, telescopic
from numsemi._record import Record
from numsemi.errors import InvariantViolation

# one record of each class, with its exact repr
RECORDS = [
    (core.NumericalSemigroup((5, 7, 9)).apery(), "AperySet(anchor=5, by_residue=(0, 16, 7, 18, 9))"),
    (
        core.NumericalSemigroup((6, 9, 20)).rs_partition(60),
        "RsPartition(value=60, classes=(((10, 0, 0), (7, 2, 0), (4, 4, 0), (1, 6, 0)), ((0, 0, 3),)))",
    ),
    (
        telescopic.is_telescopic((4, 6, 5)),
        "TelescopicCertificate(sequence=(4, 6, 5), d_chain=(4, 2, 1), witnesses=((3,), (1, 1)))",
    ),
    (telescopic.is_telescopic((4, 5, 6)), "NotTelescopic(sequence=(4, 5, 6), failing_index=3, failing_value=6)"),
    (telescopic.is_free((4, 6, 5)), "FreeDecomposition(arrangement=(4, 6, 5), cstars=(2, 2), reps=((3,), (1, 1)))"),
    (telescopic.is_free((4, 5, 6)), "NotFree(arrangement=(4, 5, 6), cstars=(4, 2), product=8)"),
    (
        telescopic.free_presentation(telescopic.is_free((4, 6, 5))),
        "Presentation(arrangement=(4, 6, 5), relations=(((0, 2, 0), (3, 0, 0)), ((0, 0, 2), (1, 1, 0))))",
    ),
    (figurate.triangular_cstar(5), "CstarForm(arrangement=(15, 21, 28), cstars=(5, 3))"),
    (
        figurate.choose5_counterexample().outcomes[0],
        "PermutationOutcome(permutation=(792, 1287, 2002, 3003, 4368, 6188), failing_index=4)",
    ),
    (
        figurate.PermutationReport((1, 2), (figurate.PermutationOutcome((1, 2), None),)),
        "PermutationReport(base=(1, 2), outcomes=(PermutationOutcome(permutation=(1, 2), failing_index=None),))",
    ),
]

IDS = [type(record).__name__ for record, _ in RECORDS]

FIELDS = {
    "AperySet": ("anchor", "by_residue"),
    "RsPartition": ("value", "classes"),
    "TelescopicCertificate": ("sequence", "d_chain", "witnesses"),
    "NotTelescopic": ("sequence", "failing_index", "failing_value"),
    "FreeDecomposition": ("arrangement", "cstars", "reps"),
    "NotFree": ("arrangement", "cstars", "product"),
    "Presentation": ("arrangement", "relations"),
    "CstarForm": ("arrangement", "cstars"),
    "PermutationOutcome": ("permutation", "failing_index"),
    "PermutationReport": ("base", "outcomes"),
}


def _rebuilt(record):
    cls = type(record)
    return cls(*(getattr(record, name) for name in cls.__match_args__))


def test_every_record_class_is_pinned():
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(FIELDS)
    assert sorted(type(record).__name__ for record, _ in RECORDS) == sorted(FIELDS)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_the_class_and_its_fields_by_name(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_equality_and_hash_are_those_of_the_fields(record, _):
    twin = _rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    assert record != tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


def test_records_of_different_classes_are_unequal():
    # the same field values under another class
    form = figurate.CstarForm((4, 6, 5), (2, 2))
    report = figurate.PermutationReport((4, 6, 5), (2, 2))
    assert form != report and report != form
    records = [record for record, _ in RECORDS]
    for a in records:
        assert [b for b in records if a == b] == [a]


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, _):
    name = FIELDS[type(record).__name__][-1]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_pickle_and_copies_round_trip(record, _):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and repr(deep) == repr(record)


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_match_args_are_the_fields_in_order(record, _):
    cls = type(record)
    assert cls.__match_args__ == FIELDS[cls.__name__]
    match record:
        case cls(first, second):
            assert (first, second) == tuple(getattr(record, name) for name in cls.__match_args__[:2])
        case _:
            pytest.fail(f"{cls.__name__} did not match positionally")


def test_checks_refuse_inconsistent_records():
    with pytest.raises(ValueError, match="anchor must be >= 1"):
        core.AperySet(0, ())
    with pytest.raises(InvariantViolation, match="exactly 3 elements"):
        core.AperySet(3, (0, 1))
    with pytest.raises(InvariantViolation, match="one c\\* and one witness"):
        telescopic.FreeDecomposition((4, 6, 5), (2,), ((3,),))
    with pytest.raises(InvariantViolation, match="not free: n_1 = 4 but the c\\* product is 8"):
        telescopic.FreeDecomposition((4, 5, 6), (4, 2), ((1,), (0, 2)))
    with pytest.raises(InvariantViolation, match="witness for position 3"):
        telescopic.FreeDecomposition((4, 6, 5), (2, 2), ((3,), (2, 1)))
    with pytest.raises(InvariantViolation, match="relation sides evaluate to 12 != 10"):
        telescopic.Presentation((4, 6, 5), (((0, 2, 0), (0, 0, 2)),))


def test_importing_the_cli_loads_no_code_generator_and_no_typing():
    # the record classes import no code generator, and so neither do the
    # commands; annotations are strings, so no module imports typing (nor
    # the contextlib it loads): a cold start pays for the stdlib modules
    # the CLI needs (imported first, so that only what the package adds is
    # counted)
    script = (
        "import sys, argparse, csv, json, heapq, enum\n"
        "before = set(sys.modules)\n"
        "import numsemi.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "numsemi.cli" in added
    assert not added & {"dataclasses", "inspect", "typing", "contextlib"}, sorted(added)
