"""CLI byte identity: exit code and the sha256 of stdout and stderr for a
fixed set of small argvs, compared against ``tests/cli_golden.json``.

The argvs cover every subcommand in text, json and csv, plus exit-2
refusals and exit-3 overflows.  Where argparse rejects an argv, the
usage block it writes wraps differently from one Python to the next:
the file pins the final ``error:`` line instead of the stderr digest,
and the block must be the usage that this Python's argparse formats for
``cli.build_parser()``.  A refactor that must not change the CLI
keeps this file passing unchanged.  A deliberate output change
regenerates the file, and the change is recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import argparse
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


def _run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def observe(argv: tuple[str, ...]) -> dict:
    """Exit code and output digests of one in-process ``cli.main`` call."""
    code, out, err = _run(argv)
    return {"exit": code, "stdout_sha256": _sha256(out), "stderr_sha256": _sha256(err)}


def _usage(command: str) -> str:
    """The usage block this Python's argparse writes for ``command``."""
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command].format_usage()


def pinned(argv: tuple[str, ...]) -> dict:
    """The record ``cli_golden.json`` pins for ``argv``: ``observe``'s,
    but where argparse rejects the argv, its final ``error:`` line in
    place of the stderr digest, once the usage block above it is checked
    against ``_usage``."""
    code, out, err = _run(argv)
    record = {"exit": code, "stdout_sha256": _sha256(out)}
    if err.startswith("usage: "):
        block, error = err[:-1].rsplit("\n", 1)
        assert block + "\n" == _usage(argv[0]), err
        record["stderr_error"] = error
    else:
        record["stderr_sha256"] = _sha256(err)
    return record


def _choices_quoted() -> bool:
    """Whether this Python's argparse quotes the choices it lists in an
    ``invalid choice`` error: some releases write ``'a', 'b'``, later ones
    ``a, b``."""
    probe = argparse.ArgumentParser(prog="probe", add_help=False)
    probe.add_argument("--x", choices=("a",))
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit):
        probe.parse_args(["--x", "b"])
    return "(choose from 'a')" in err.getvalue()


def _as_written_here(error: str) -> str:
    """A pinned ``error:`` line as this Python's argparse writes it: its
    list of choices unquoted where ``_choices_quoted`` says so."""
    head, sep, choices = error.rpartition("(choose from ")
    return error if _choices_quoted() or not sep else head + sep + choices.replace("'", "")


def _load() -> dict[str, dict]:
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_exactly_the_argvs():
    assert sorted(_load()) == sorted(" ".join(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_byte_identical(argv):
    expected = {k: v for k, v in _load()[" ".join(argv)].items() if k != "argv"}
    if "stderr_error" in expected:
        expected["stderr_error"] = _as_written_here(expected["stderr_error"])
    assert pinned(argv) == expected


def write() -> None:
    if not _choices_quoted():
        raise SystemExit("write the file on a Python whose argparse quotes the choices it lists")
    records = [{"argv": list(argv), **pinned(argv)} for argv in ARGVS]
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    write()
