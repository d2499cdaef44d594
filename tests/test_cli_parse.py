"""How ``cli.main`` reads an argv: ``cli._read_argv`` builds the namespace
of a well-formed argv from the parser's own actions, and declines every
other argv, which argparse then reads, prints help for, or refuses."""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numsemi import cli

import cli_identity

COMMANDS = ("frobenius", "analyze", "verify", "table", "perms")
NUMBERS = ("3", "0", "12", " 7", "1_0", "+4")
# option -> values argparse takes
VALUES = {
    "--gens": ("5,6,8", "4,2", "", "abc"),
    "--triangular": NUMBERS,
    "--tetrahedral": NUMBERS,
    "--choose4": NUMBERS,
    "--betti-bound": NUMBERS,
    "--n": NUMBERS,
    "--arith": ("4,2",),
    "--family": ("triangular", "tetrahedral", "choose4", "arith"),
    "--range": ("3..5", "5"),
    "--k": ("3..5",),
    "--format": ("text", "json", "csv"),
    "--out": ("out.txt",),
    "--cross-check": (),
    "--full": (),
}
COMMON = ("--format", "--out")
INPUTS = ("--gens", "--triangular", "--tetrahedral", "--arith", "--choose4")
VOCABULARY = {
    "frobenius": (*INPUTS, "--cross-check", *COMMON),
    "analyze": (*INPUTS[:3], "--full", "--betti-bound", *COMMON),
    "verify": ("--family", "--range", *COMMON),
    "table": ("--family", "--range", "--n", "--k", *COMMON),
    "perms": ("--full", *COMMON),
}
JUNK = (
    *VALUES, *COMMANDS, "frob", "-h", "--help", "--", "-", "", "-3", "-3..5", "x", "xml", "choose5perms",
    "--fam", "--gen", "--tri", "--cross", "--form", "--bet", "--ra", "--format=json", "--gens=5,6,8",
    "--triangular=4", "--family=triangular", "--full=1", "-x", "--bogus",
)


@st.composite
def argvs(draw) -> list[str]:
    """A command with one input of its exclusive group or its family, a
    few more of its options, each with a value argparse takes, in any
    order; then up to two tokens inserted or deleted anywhere."""
    command = draw(st.sampled_from(COMMANDS))
    vocabulary = VOCABULARY[command]
    options = [draw(st.sampled_from([o for o in vocabulary if o in INPUTS or o == "--family"] or ["--full"]))]
    options += draw(st.lists(st.sampled_from([o for o in vocabulary if o != options[0]]), max_size=3, unique=True))
    argv = [command]
    for option in draw(st.permutations(options)):
        argv += [option, draw(st.sampled_from(VALUES[option]))] if VALUES[option] else [option]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        position = draw(st.integers(min_value=0, max_value=len(argv) - 1))
        if draw(st.booleans()):
            argv.insert(position, draw(st.sampled_from(JUNK)))
        else:
            del argv[position]
    return argv


def argparse_outcome(argv) -> tuple[dict | None, int, str]:
    """``vars`` of argparse's namespace (None when it exits), the exit code
    and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            return vars(cli._parser().parse_args(list(argv))), 0, ""
        except SystemExit as exc:
            return None, exc.code, err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
@example(["verify", "--family", "triangular", "--range", "3..5"])
@example(["verify", "--fam", "triangular", "--range", "3..5"])
@example(["analyze", "--gens", "5,6,8", "--gens", "5,7"])
@example(["frobenius", "--triangular", "3", "--tetrahedral", "4"])
@example(["analyze", "--triangular", " 7", "--betti-bound", "1_0"])
@example(["table", "--family", "arith", "--n", "-3", "--k", "3..5"])
@example(["analyze", "--gens", "", "--format", "csv"])
@example(["perms", "--full", "--full"])
@example(["perms"])
def test_a_read_argv_is_what_argparse_reads(argv):
    namespace = cli._read_argv(argv)
    if namespace is not None:
        assert vars(namespace) == argparse_outcome(argv)[0]


def test_every_argv_argparse_accepts_in_the_identity_dump_is_read_directly():
    declined = []
    for argv in cli_identity.argvs(1):
        namespace = cli._read_argv(argv)
        expected = argparse_outcome(argv)[0]
        if namespace is None:
            declined.append(argv)
            assert expected is None, argv
        else:
            assert vars(namespace) == expected, argv
    assert declined == [("frobenius",), ("frobenius", "--gens", "5,7", "--format", "xml")]


@pytest.mark.parametrize(
    "argv",
    [("analyze", "--gens", "5,6,8", "--format", "json"), ("frobenius",), ("verify", "-h")],
    ids=" ".join,
)
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    expected = cli.main(list(argv)), capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["numsemi", *argv])
    assert (cli.main(), capsys.readouterr()) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--fam", "triangular", "--range", "3..5"),
        ("analyze", "--gens=5,6,8"),
        ("analyze", "--gens", "5,6,8", "--gens", "5,7"),
        ("perms", "--full", "--full"),
        ("frobenius",),
        ("frobenius", "--gens", "5,7", "--format", "xml"),
        ("frobenius", "--triangular", "3", "--tetrahedral", "4"),
        ("frobenius", "--triangular", "three"),
        ("verify", "--family", "triangular", "--range", "-3..5"),
        ("verify", "--family", "triangular", "--", "--range", "3..5"),
        ("table", "--family"),
        ("verify", "-h"),
        ("-h",),
        (),
    ],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_a_declined_argv_keeps_argparse_exit_code_and_stderr(capsys, argv):
    assert cli._read_argv(argv) is None
    _, code, err = argparse_outcome(argv)
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().err == err
