"""Seeded workloads for the end-to-end benchmark, and the output checks.

Each workload turns a seed and an operation count into a list of distinct
``numsemi`` argv lists (no two operations in a run share an argv, so a
cache can only help through sub-work the inputs really share), and checks
each operation's captured stdout with code that does not call the program.

Why each workload exists:

* ``verify-figurate`` -- the paper's own closed-form-vs-oracle sweep, one n
  per operation.  Time goes to ``_kernels.apery_levels`` on moduli up to
  about 90k; the Betti scan only runs for small n.
* ``analyze-generic`` -- random coprime generator lists (e = 3..5, entries
  in [40, 120)).  Generic, non-free inputs, so the time goes to the
  factorization DFS under the Betti scan; Apery tables are small and the
  closed forms never run.
* ``family-report`` -- full structure reports and 500-row tables for the
  triangular and tetrahedral families.  Materialises the closed-form Apery
  boxes and serialises records of several MB, so the CLI's record
  building and JSON encoding dominate and the kernels are nearly idle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

TABLE_ROWS = 500
VERIFY_RANGES = {"triangular": (3, 340), "tetrahedral": (4, 80)}
REPORT_RANGES = {"triangular": (3, 800), "tetrahedral": (4, 120)}
GENERIC_LISTS_SEED = 20170613


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    family: str = ""
    n: int = 0
    gens: tuple[int, ...] = ()
    lo: int = 0
    fmt: str = ""


@dataclass
class CheckState:
    """Facts one run's earlier operations established, for later checks."""

    frobenius: dict[tuple[str, int], int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def tetrahedral(n: int) -> int:
    return n * (n + 1) * (n + 2) // 6


def family_generators(family: str, n: int) -> list[int]:
    if family == "triangular":
        return [triangular(n + j) for j in range(3)]
    return [tetrahedral(n + j) for j in range(4)]


def sieve_frobenius(gens: tuple[int, ...]) -> int:
    """Largest integer that is not a non-negative combination of ``gens``.

    Walks x = 1, 2, ... marking members; once min(gens) consecutive
    members are seen every larger integer is a member too.
    """
    smallest = min(gens)
    member = bytearray([1])
    run = 0
    x = 0
    while run < smallest:
        x += 1
        hit = any(g <= x and member[x - g] for g in gens)
        member.append(hit)
        run = run + 1 if hit else 0
    return x - smallest


# ---------------------------------------------------------------------------
# verify-figurate


def verify_figurate_ops(rng: random.Random, count: int) -> list[Op]:
    """``count`` single-n checks drawn from the whole pool, in an order
    drawn from the seed.  At the benchmark's run length ``count`` covers
    the pool, so every seed checks the same inputs: the cost of a check
    grows steeply with n, and a sample would change the total work."""
    pool = [(fam, n) for fam, (lo, hi) in VERIFY_RANGES.items() for n in range(lo, hi + 1)]
    picked = rng.sample(pool, min(count, len(pool)))
    return [
        Op(("verify", "--family", fam, "--range", f"{n}..{n}", "--format", "json"), "verify", fam, n)
        for fam, n in picked
    ]


def check_verify(op: Op, out: str, state: CheckState) -> str | None:
    records = json.loads(out)
    if len(records) != 1:
        return f"expected one record, got {len(records)}"
    rec = records[0]
    if rec["family"] != op.family or rec["n"] != op.n:
        return f"record is for {rec['family']} n={rec['n']}"
    if rec["pass"] is not True:
        return f"check failed: {rec['detail']}"
    return None


# ---------------------------------------------------------------------------
# analyze-generic


def analyze_generic_ops(rng: random.Random, count: int) -> list[Op]:
    """The first ``count`` lists of one fixed sequence of distinct coprime
    lists (e cycling through 3..5), in an order drawn from the seed.

    Rare near-arithmetic lists cost up to 50x the median (their Betti scans
    enumerate far more factorizations), so independently drawn samples of
    a few hundred lists differ by over 10% in total work.  Every run of a
    given length therefore analyzes the same lists.
    """
    source = random.Random(GENERIC_LISTS_SEED)
    lists: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(lists) < count:
        gens = tuple(source.sample(range(40, 120), 3 + len(lists) % 3))
        if math.gcd(*gens) == 1 and gens not in seen:
            seen.add(gens)
            lists.append(gens)
    rng.shuffle(lists)
    return [
        Op(("analyze", "--gens", ",".join(map(str, gens)), "--format", "json"), "analyze-gens", gens=gens)
        for gens in lists
    ]


def check_analyze_generic(op: Op, out: str, state: CheckState) -> str | None:
    rec = json.loads(out)
    if rec["input"]["generators"] != list(op.gens):
        return "record is for other generators"
    if rec["agreement"] is not True:
        return f"methods disagree: {rec['methods']}"
    expected = sieve_frobenius(op.gens)
    if rec["frobenius"] != expected:
        return f"frobenius {rec['frobenius']} != sieve {expected}"
    if rec["apery"]["size"] != rec["apery"]["anchor"]:
        return "Apery size differs from its anchor"
    return None


# ---------------------------------------------------------------------------
# family-report


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One random integer from each of k equal strata of lo..hi, shuffled.

    Work per report grows steeply with n, so stratifying keeps the cost
    profile of a run the same for every seed while the inputs differ.
    """
    edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
    picks = [rng.randrange(edges[i], edges[i + 1]) for i in range(k)]
    rng.shuffle(picks)
    return picks


def family_report_ops(rng: random.Random, count: int) -> list[Op]:
    """Blocks of two triangular and one tetrahedral report, then one
    500-row table slice per family.  Each slice covers an n reported
    earlier in the run, so its rows can be checked against that report.
    With two of five operations cheap tables, the median latency lies
    among them rather than on the steep edge of the report costs."""
    (tri_lo, tri_hi), (tet_lo, tet_hi) = REPORT_RANGES["triangular"], REPORT_RANGES["tetrahedral"]
    blocks = min(math.ceil(count / 5), tet_hi - tet_lo + 1)  # one distinct tetrahedral n per block
    picks = {
        "triangular": stratified(rng, tri_lo, tri_hi, 2 * blocks),
        "tetrahedral": stratified(rng, tet_lo, tet_hi, blocks),
    }
    reported: dict[str, list[int]] = {"triangular": [], "tetrahedral": []}
    slices: set[tuple[str, int, str]] = set()
    ops: list[Op] = []
    for block in range(blocks):
        for family in ("triangular", "triangular", "tetrahedral"):
            n = picks[family].pop()
            reported[family].append(n)
            argv = ("analyze", f"--{family}", str(n), "--full", "--format", "json")
            ops.append(Op(argv, "analyze-family", family, n))
        fmt = ("text", "json", "csv")[block % 3]
        for family in ("triangular", "tetrahedral"):
            while True:
                anchor_n = rng.choice(reported[family])
                lo = max(REPORT_RANGES[family][0], anchor_n - rng.randrange(TABLE_ROWS))
                if (family, lo, fmt) not in slices:
                    break
            slices.add((family, lo, fmt))
            argv = ("table", "--family", family, "--range", f"{lo}..{lo + TABLE_ROWS - 1}", "--format", fmt)
            ops.append(Op(argv, "table", family, lo=lo, fmt=fmt))
    return ops[:count]


def _table_rows(out: str, fmt: str) -> list[tuple[int, list[int], int]]:
    """(n, generators, frobenius) per row, parsed from any output format."""
    if fmt == "json":
        return [(r["n"], r["generators"], r["frobenius"]) for r in json.loads(out)["rows"]]
    if fmt == "csv":
        return [
            (int(r["n"]), json.loads(r["generators"]), int(r["frobenius"]))
            for r in csv.DictReader(io.StringIO(out))
        ]
    rows = []
    fields: dict[str, str] = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        if key == "n" and fields:
            rows.append(fields)
            fields = {}
        fields[key] = value
    rows.append(fields)
    return [(int(r["n"]), json.loads(r["generators"]), int(r["frobenius"])) for r in rows]


def check_family_report(op: Op, out: str, state: CheckState) -> str | None:
    if op.kind == "analyze-family":
        rec = json.loads(out)
        if rec["input"]["n"] != op.n or rec["input"]["generators"] != family_generators(op.family, op.n):
            return "record is for another input"
        if rec["agreement"] is not True:
            return f"methods disagree: {rec['methods']}"
        apery = rec["apery"]
        if apery["max"] - apery["anchor"] != rec["frobenius"]:
            return "max(Apery) - anchor != frobenius"
        if len(apery["elements"]) != apery["anchor"]:
            return f"{len(apery['elements'])} Apery elements for anchor {apery['anchor']}"
        state.frobenius[(op.family, op.n)] = rec["frobenius"]
        return None
    rows = _table_rows(out, op.fmt)
    if [r[0] for r in rows] != list(range(op.lo, op.lo + TABLE_ROWS)):
        return "table rows do not cover the requested range"
    matched = 0
    for n, gens, frob in rows:
        if gens != family_generators(op.family, n):
            return f"row n={n} has generators {gens}"
        reported = state.frobenius.get((op.family, n))
        if reported is not None:
            if frob != reported:
                return f"row n={n} frobenius {frob} != analyze {reported}"
            matched += 1
    if not matched:
        return "no row overlaps an analyzed n"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, int], list[Op]]
    check: Callable[[Op, str, CheckState], str | None]
    # Operations per second of --seconds: sized so one run takes about
    # --seconds on a 2-core x86-64 host with the pure-Python kernels.
    # verify-figurate's pool (415 inputs) is used whole from 20 seconds up.
    ops_per_second: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-figurate", verify_figurate_ops, check_verify, 21.0),
        Workload("analyze-generic", analyze_generic_ops, check_analyze_generic, 29.0),
        Workload("family-report", family_report_ops, check_family_report, 11.0),
    )
}
