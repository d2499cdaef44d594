"""Property tests driven through ``cli.main``: on random generator lists
every method must agree, and the Frobenius number and the c* constants
must match the heap-Dijkstra oracles.  The CLI's JSON writer must match
``json.dumps(sort_keys=True, indent=2)`` byte for byte, and its text and
CSV fields the item-by-item writer of ``oracles.scalar_field``; its
table rows are those ``oracles.flat_rows`` writes with the stdlib."""

from __future__ import annotations

import enum
import io
import json
import math

import pytest
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsemi import cli, figurate, telescopic
from numsemi.core import NumericalSemigroup

from oracles import dijkstra_apery, dijkstra_cstars, flat_rows, scalar_field


def oracle_frobenius(gens: list[int]) -> int:
    m = min(gens)
    return max(dijkstra_apery(m, gens)) - m


def run_json(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def generator_lists(max_entry: int):
    return st.lists(st.integers(min_value=2, max_value=max_entry), min_size=2, max_size=6, unique=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(generator_lists(10_000))
def test_frobenius_cross_check_agrees_with_oracle(gens):
    assume(math.gcd(*gens) == 1)
    record = run_json("frobenius", "--gens", ",".join(map(str, gens)), "--cross-check", "--format", "json")
    assert record["agreement"] is True
    assert record["frobenius"] == oracle_frobenius(gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_lists(1_000))
def test_analyze_agrees_with_oracle(gens):
    assume(math.gcd(*gens) == 1)
    record = run_json("analyze", "--gens", ",".join(map(str, gens)), "--format", "json")
    assert record["agreement"] is True
    assert record["frobenius"] == oracle_frobenius(gens)
    assert record["cstar"] == dijkstra_cstars(record["arrangement"])
    assert record["free"] == (math.prod(record["cstar"]) == record["arrangement"][0])


@st.composite
def telescopic_inputs(draw):
    """A coprime list as its own minimal arrangement, reordered, or with a
    redundant entry inserted; the triangular generators are telescopic."""
    gens = draw(st.one_of(generator_lists(60), st.integers(2, 12).map(figurate.triangular_generators)))
    assume(math.gcd(*gens) == 1)
    minimal = list(telescopic.arranged_minimal(gens, NumericalSemigroup(gens).generators))
    kind = draw(st.sampled_from(("minimal", "reordered", "non-minimal")))
    if kind == "reordered":
        return draw(st.permutations(minimal))
    if kind == "non-minimal" and len(minimal) >= 2:
        redundant = minimal[0] + minimal[-1]
        assume(redundant not in minimal)
        at = draw(st.integers(0, len(minimal)))
        return minimal[:at] + [redundant] + minimal[at:]
    return minimal


@settings(max_examples=150, deadline=None, derandomize=True)
@given(telescopic_inputs())
def test_analyze_telescopic_flag_matches_is_telescopic(gens):
    assume(len(gens) >= 2)
    record = run_json("analyze", "--gens", ",".join(map(str, gens)), "--format", "json")
    assert record["telescopic_as_given"] == bool(telescopic.is_telescopic(gens))


INT64_MAX = 2**63 - 1
json_ints = st.one_of(
    st.integers(),
    st.sampled_from([INT64_MAX, -INT64_MAX, INT64_MAX + 1, -(INT64_MAX + 2), 10**30, -(10**30)]),
)
json_strings = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\x7f\"\\", "é\u2028\U0001f600", "\ud800"]))
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_strings)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(json_strings, children),
        st.lists(json_ints, min_size=1),
        st.lists(st.one_of(st.booleans(), json_ints), min_size=1),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._format_payload(value, "json") == json.dumps(value, sort_keys=True, indent=2) + "\n"


class Colour(enum.IntEnum):
    RED = 1


class Plain(int):
    pass


@pytest.mark.parametrize(
    "value",
    [
        (5,), [-1], [2**63, -(10**30)], [1, True], (3, -4, 2**70), {"a": [(7, 8), [0]]},
        [1, "2"], [1, None], [1, [2, 3]], [1, (2,)], [1, {"a": 2}], [1, Colour.RED], [1, Plain(7)],
        [1, 2**64, -(2**64) - 1, 10**40], {"elements": [0, Plain(-3), Colour.RED]},
    ],
)
def test_json_writer_int_lists(value):
    # a one-tuple's repr ends in ",)", and a bool among ints stays true; a
    # str, None, container or IntEnum after a first plain int fails the repr
    # check, and an int subclass with int's repr passes it
    assert cli._format_payload(value, "json") == json.dumps(value, sort_keys=True, indent=2) + "\n"


text_fields = st.recursive(
    st.one_of(st.booleans(), json_ints, st.text(max_size=5)),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(text_fields, st.lists(json_ints), st.lists(json_ints).map(tuple)))
@example([1, True])
@example((5,))
def test_text_field_matches_item_by_item_writer(value):
    assert cli._scalar(value) == scalar_field(value)


table_ints = st.integers(min_value=-(10**20), max_value=10**20)
table_words = st.text(alphabet='ab,"\n\r %', max_size=4)  # the characters CSV quotes, and %
table_values = st.one_of(
    table_ints,
    table_words,
    st.booleans(),
    st.lists(table_ints, max_size=3),
    st.lists(table_ints, max_size=3).map(tuple),
)


@st.composite
def tables(draw) -> tuple[list[str], list[tuple]]:
    columns = draw(st.lists(st.text(alphabet='ab%,"', max_size=3), min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[table_values] * len(columns)), max_size=6))
    return columns, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
@example((["a"], [("",), ([],), ([-7],), ((3, -4),)]))  # a lone empty CSV field is quoted
@example((["b", "a"], [(-1, 'x,"y\n'), ([], "")]))
@example((["a", "b"], [(True, 1), (False, [1]), (1, True)]))  # a bool's shape is not an int's or a list length's
def test_table_row_writer_matches_the_dict_writers(table):
    columns, rows = table
    dicts = [dict(zip(columns, row)) for row in rows]
    written = cli._Rows(columns, rows)
    as_json = cli._format_payload({"rows": written}, "json")
    assert as_json == cli._format_payload({"rows": dicts}, "json") == json.dumps({"rows": dicts}, sort_keys=True, indent=2) + "\n"
    assert written.write("text") == "".join(cli._format_payload(d, "text") for d in dicts)
    for fmt in ("json", "text", "csv"):
        assert written.write(fmt) == flat_rows(columns, rows, fmt)
