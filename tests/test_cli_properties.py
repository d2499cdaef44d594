"""Property tests driven through ``cli.main``: on random generator lists
every method must agree, and the Frobenius number and the c* constants
must match the heap-Dijkstra oracles."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numsemi import cli

from oracles import dijkstra_apery, dijkstra_cstars


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
