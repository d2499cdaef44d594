"""CLI byte identity: exit code and the sha256 of stdout and stderr for a
fixed set of small argvs, compared against ``tests/cli_golden.json``.

The argvs cover every subcommand in text, json and csv, plus exit-2
refusals and exit-3 overflows.  A refactor that must not change the CLI
keeps this file passing unchanged.  A deliberate output change
regenerates the file, and the change is recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from numsemi import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

ARGVS: tuple[tuple[str, ...], ...] = (
    # frobenius
    ("frobenius", "--triangular", "3"),
    ("frobenius", "--triangular", "7", "--cross-check", "--format", "json"),
    ("frobenius", "--tetrahedral", "5", "--format", "csv"),
    ("frobenius", "--tetrahedral", "10", "--cross-check"),
    ("frobenius", "--gens", "3,10"),
    ("frobenius", "--gens", "6,10,15", "--cross-check", "--format", "json"),
    ("frobenius", "--gens", "84,56,35,20", "--cross-check", "--format", "csv"),
    ("frobenius", "--gens", "12,8,3,20", "--cross-check", "--format", "json"),
    ("frobenius", "--gens", "1"),
    ("frobenius", "--gens", "7"),
    ("frobenius", "--arith", "6,3", "--cross-check"),
    ("frobenius", "--arith", "10,4", "--format", "json"),
    ("frobenius", "--choose4", "6", "--format", "json"),
    ("frobenius", "--choose4", "11", "--cross-check", "--format", "csv"),
    ("frobenius", "--triangular", "2", "--cross-check", "--format", "csv"),
    ("frobenius", "--tetrahedral", "11", "--cross-check", "--format", "json"),
    ("frobenius", "--gens", "2,4611686018427387905"),
    ("frobenius", "--gens", "2,4611686018427387905", "--cross-check"),
    ("frobenius", "--gens", "20000000,30000001,50000001"),
    ("frobenius", "--gens", "4,6"),
    ("frobenius", "--gens", "6,6,10"),
    ("frobenius", "--gens", "6,x"),
    ("frobenius", "--triangular", "3000000"),
    ("frobenius",),
    ("frobenius", "--gens", "5,7", "--format", "xml"),
    # analyze
    ("analyze", "--gens", "5,6,8"),
    ("analyze", "--gens", "5,6,8", "--betti-bound", "10", "--format", "json"),
    ("analyze", "--gens", "6,10,15", "--format", "json"),
    ("analyze", "--gens", "12,8,3,20", "--format", "json"),
    ("analyze", "--gens", "10,6,15,9", "--format", "csv"),
    ("analyze", "--gens", "84,56,35,20", "--full", "--format", "json"),
    ("analyze", "--gens", "41,53,67,79,97"),
    ("analyze", "--gens", "31,37,41,43,47,53,59"),
    ("analyze", "--gens", "31,37,41,43,47,53,59", "--format", "json"),
    ("analyze", "--gens", "101,113,127,131", "--format", "json"),
    ("analyze", "--gens", "1,5"),
    ("analyze", "--gens", "7"),
    ("analyze", "--gens", "4,6"),
    ("analyze", "--triangular", "2"),
    ("analyze", "--triangular", "3"),
    ("analyze", "--triangular", "9", "--full", "--format", "json"),
    ("analyze", "--tetrahedral", "3", "--format", "json"),
    ("analyze", "--tetrahedral", "10", "--format", "csv"),
    ("analyze", "--tetrahedral", "2000"),
    ("analyze", "--triangular", "0"),
    ("analyze", "--triangular", "1", "--full"),
    ("analyze", "--triangular", "4", "--format", "csv"),
    ("analyze", "--tetrahedral", "1"),
    ("analyze", "--tetrahedral", "11", "--full", "--format", "json"),
    ("analyze", "--gens", "3,9223372036854775807"),
    ("analyze", "--gens", "5,4611686018427387904,4611686018427387905"),
    ("analyze", "--gens", "15,10,6", "--format", "json"),
    ("analyze", "--gens", "30,42,105,70", "--format", "json"),
    ("analyze", "--gens", "6,4611686018427387905"),
    ("analyze", "--gens", "4,6,9223372036854775807"),
    ("analyze", "--gens", "1", "--full", "--format", "json"),
    ("analyze", "--triangular", "2", "--format", "json"),
    ("analyze", "--triangular", "60", "--full", "--format", "json"),
    ("analyze", "--tetrahedral", "40", "--full", "--format", "json"),
    # verify
    ("verify", "--family", "triangular", "--range", "3..6"),
    ("verify", "--family", "triangular", "--range", "1..5", "--format", "json"),
    ("verify", "--family", "tetrahedral", "--range", "4..9", "--format", "csv"),
    ("verify", "--family", "tetrahedral", "--range", "1..12"),
    ("verify", "--family", "tetrahedral", "--range", "10..11", "--format", "json"),
    ("verify", "--family", "choose4", "--range", "1..60"),
    ("verify", "--family", "choose4", "--range", "3..12", "--format", "json"),
    ("verify", "--family", "arith", "--range", "1..8", "--format", "csv"),
    ("verify", "--family", "choose5perms"),
    ("verify", "--family", "choose5perms", "--format", "json"),
    ("verify", "--family", "triangular"),
    ("verify", "--family", "triangular", "--range", "5..3"),
    # table
    ("table", "--family", "triangular", "--range", "1..6", "--format", "csv"),
    ("table", "--family", "tetrahedral", "--range", "4..9"),
    ("table", "--family", "triangular", "--range", "1..5"),
    ("table", "--family", "triangular", "--range", "1..8", "--format", "json"),
    ("table", "--family", "tetrahedral", "--range", "1..12", "--format", "json"),
    ("table", "--family", "choose4", "--range", "1..80", "--format", "csv"),
    ("table", "--family", "choose4", "--range", "4..12", "--format", "json"),
    ("table", "--family", "arith", "--n", "6", "--k", "2..5", "--format", "json"),
    ("table", "--family", "arith"),
    ("table", "--family", "tetrahedral", "--range", "3000000..3000000"),
    ("table", "--family", "triangular", "--range", "1..500", "--format", "json"),
    # perms
    ("perms",),
    ("perms", "--format", "json"),
    ("perms", "--full", "--format", "csv"),
    ("perms", "--full", "--format", "json"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(argv: tuple[str, ...]) -> dict:
    """Exit code and output digests of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()), "stderr_sha256": _sha256(err.getvalue())}


def _load() -> dict[str, dict]:
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_exactly_the_argvs():
    assert sorted(_load()) == sorted(" ".join(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_byte_identical(argv):
    expected = _load()[" ".join(argv)]
    assert observe(argv) == {k: expected[k] for k in ("exit", "stdout_sha256", "stderr_sha256")}


def write() -> None:
    records = [{"argv": list(argv), **observe(argv)} for argv in ARGVS]
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    write()
