"""CLI surface: exit codes, formats, round-trips, byte stability."""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from numsemi import _kernels, arith, cli, core, figurate, telescopic
from numsemi.errors import InvariantViolation

from oracles import flat_rows


def run(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_frobenius_triangular_text(capsys):
    code, out = run(capsys, "frobenius", "--triangular", "3")
    assert code == 0
    assert "frobenius: 29" in out
    assert "provenance: closed-form" in out


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        code, out = run(capsys, "frobenius", "--gens", "5,7", "--cross-check", "--format", "json")
        assert code == 0 and "oracle" in json.loads(out)["methods"]
        assert cli.main(["frobenius", "--gens", "5,7", "--format", "xml"]) == 2
        capsys.readouterr()
        code, out = run(capsys, "frobenius", "--gens", "5,7", "--format", "json")
        assert code == 0 and json.loads(out)["methods"] == {"reduction": 23}
        code, out = run(capsys, "analyze", "--gens", "5,6,8", "--betti-bound", "10", "--format", "json")
        assert code == 0 and json.loads(out)["betti"] == []
        code, out = run(capsys, "analyze", "--gens", "5,6,8", "--format", "json")
        assert code == 0 and json.loads(out)["betti"] == sorted(core.NumericalSemigroup((5, 6, 8)).betti_elements())
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_frobenius_gens(capsys):
    code, out = run(capsys, "frobenius", "--gens", "3,10")
    assert code == 0
    assert "frobenius: 17" in out


def test_frobenius_cross_check_json(capsys):
    code, out = run(capsys, "frobenius", "--tetrahedral", "4", "--cross-check", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "1"
    assert record["frobenius"] == 253
    assert record["agreement"] is True
    assert record["methods"] == {"closed-form": 253, "oracle": 253, "reduction": 253}


@pytest.mark.parametrize(
    "argv",
    [
        ("frobenius", "--triangular", "3"),
        ("analyze", "--triangular", "3"),
        ("analyze", "--gens", "5,6,8"),
        ("verify", "--family", "triangular", "--range", "3..4"),
        ("table", "--family", "choose4", "--range", "4..6"),
        ("perms",),
    ],
)
def test_json_round_trip(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert json.loads(json.dumps(record, sort_keys=True, indent=2)) == record


def test_invalid_gcd_exits_2(capsys):
    code, _ = run(capsys, "frobenius", "--gens", "4,6")
    assert code == 2


def test_duplicate_generators_exit_2(capsys):
    code, _ = run(capsys, "frobenius", "--gens", "6,6,10")
    assert code == 2


def test_malformed_gens_exit_2(capsys):
    code, _ = run(capsys, "frobenius", "--gens", "6,x")
    assert code == 2


def test_overflow_exits_3(capsys):
    code, _ = run(capsys, "frobenius", "--triangular", "3000000")
    assert code == 3


def test_parse_error_exits_2(capsys):
    assert cli.main(["frobenius"]) == 2


@pytest.mark.parametrize("pair", ["a,3", "6,b", "6", "6,3,1"])
def test_arith_pair_must_be_two_integers(capsys, pair):
    assert cli.main(["frobenius", "--arith", pair]) == 2
    assert capsys.readouterr().err == f"error: expected n,k with two integers, got {pair!r}\n"


def test_frobenius_arith(capsys):
    code, out = run(capsys, "frobenius", "--arith", "6,3", "--cross-check", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["frobenius"] == 17
    assert record["agreement"] is True


def test_frobenius_choose4(capsys):
    code, out = run(capsys, "frobenius", "--choose4", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["provenance"] == "reduction"


def test_analyze_triangular_record_values(capsys):
    code, out = run(capsys, "analyze", "--triangular", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == [30]
    assert record["free"] is True
    assert record["cstar"] == [3, 2]
    assert record["frobenius"] == 29


def test_analyze_gens_not_free(capsys):
    code, out = run(capsys, "analyze", "--gens", "5,6,8")
    assert code == 0
    assert "free: false" in out


def test_analyze_betti_bound_override(capsys):
    code, out = run(capsys, "analyze", "--gens", "5,6,8", "--betti-bound", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == []
    code, out = run(capsys, "analyze", "--gens", "5,6,8", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [16, 18, 20]


def test_analyze_betti_bound_caps_free_and_closed_form_betti(capsys):
    # free inputs and full-dimension family members report a closed Betti
    # set, which --betti-bound caps as it caps the scan of other inputs
    cases = [
        (("--gens", "6,10,15"), [30]),
        (("--gens", "10,6,15"), [30]),
        (("--triangular", "5"), [84, 105]),
        (("--tetrahedral", "4"), [140, 168]),
    ]
    for argv, betti in cases:
        code, out = run(capsys, "analyze", *argv, "--format", "json")
        assert code == 0 and json.loads(out)["betti"] == betti, argv
        for bound in (min(betti) - 1, min(betti), max(betti), -1):
            code, out = run(capsys, "analyze", *argv, "--betti-bound", str(bound), "--format", "json")
            assert code == 0, (argv, bound)
            assert json.loads(out)["betti"] == [b for b in betti if b <= bound], (argv, bound)


@pytest.mark.parametrize(
    "argv",
    [
        ("--gens", "2,3"),  # free
        ("--gens", "3,5,7"),  # not free: the Betti scan
        ("--gens", "31,37,41,43,47,53,59"),  # not free, no Betti report above e = 6
        ("--gens", "1"),
        ("--triangular", "5"),  # closed forms
        ("--triangular", "1"),  # below full embedding dimension: S = N
    ],
    ids=" ".join,
)
def test_analyze_betti_bound_outside_64_bits_exits_3_on_every_path(capsys, argv):
    for bound in (arith.INT64_MAX + 1, arith.INT64_MIN - 1):
        code = cli.main(["analyze", *argv, f"--betti-bound={bound}"])
        captured = capsys.readouterr()
        assert code == 3, (argv, bound)
        assert captured.err == f"overflow: Betti scan bound exceeds the 64-bit integer range: {bound}\n"
        assert captured.out == ""
    for bound in (arith.INT64_MAX, arith.INT64_MIN):
        assert cli.main(["analyze", *argv, f"--betti-bound={bound}"]) == 0, (argv, bound)
        capsys.readouterr()


def test_analyze_direction(capsys):
    code, out = run(capsys, "analyze", "--tetrahedral", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["direction"] == "reverse"


def test_analyze_full_dumps_apery(capsys):
    code, out = run(capsys, "analyze", "--triangular", "5", "--full", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert len(record["apery"]["elements"]) == record["apery"]["size"] == 15


@pytest.mark.parametrize(
    "family, n, digest",
    [
        ("triangular", 20, "e9afd65ea686a9717b80e26a355c2afaf2911439060a564ffe872da51c2ebf08"),
        # a reverse member: the anchor is TH_{n+3}, not the multiplicity
        ("tetrahedral", 10, "ace4268d3693e4cb63fd50fa2cced0be2c465d6f42eba5139c31d56dccc3aa5f"),
    ],
)
def test_analyze_family_full_lists_the_box_without_filing_it(capsys, monkeypatch, family, n, digest):
    # the report sorts the box list: it files no Apery set by residue
    def refuse(*args):
        raise AssertionError("Apery set filed by residue")

    monkeypatch.setattr(telescopic, "apery_box", refuse)
    code, out = run(capsys, "analyze", f"--{family}", str(n), "--full", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_triangular(capsys):
    code, out = run(capsys, "verify", "--family", "triangular", "--range", "3..6")
    assert code == 0
    assert "4/4 pass" in out


def test_verify_json_is_array(capsys):
    code, out = run(capsys, "verify", "--family", "triangular", "--range", "3..4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert isinstance(records, list)
    assert all(r["pass"] for r in records)


def test_verify_choose5perms(capsys):
    code, out = run(capsys, "verify", "--family", "choose5perms")
    assert code == 0
    assert "telescopic: 0" in out


def test_verify_requires_range(capsys):
    code, _ = run(capsys, "verify", "--family", "triangular")
    assert code == 2


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("table", "--family", "triangular", "--range", "1..3", "--n", "6"), "--n does not apply to table --family triangular"),
        # a value equal to False is still a value
        (("table", "--family", "triangular", "--range", "1..3", "--n", "0"), "--n does not apply to table --family triangular"),
        (("table", "--family", "tetrahedral", "--range", "1..3", "--k", "2..3"), "--k does not apply to table --family tetrahedral"),
        (("table", "--family", "choose4", "--n", "6", "--k", "2..3", "--range", "1..3"), "--n does not apply to table --family choose4"),
        (("table", "--family", "arith", "--n", "6", "--k", "2..3", "--range", "1..3"), "--range does not apply to table --family arith"),
        # read by argparse, not by the option table
        (("table", "--family=arith", "--n=6", "--k=2..3", "--range=1..3"), "--range does not apply to table --family arith"),
        (("verify", "--family", "choose5perms", "--range", "1..3"), "--range does not apply to verify --family choose5perms"),
    ],
)
def test_an_option_the_family_ignores_is_refused(capsys, tmp_path, argv, refused):
    for fmt in ("text", "json", "csv"):
        target = tmp_path / f"out.{fmt}"
        for out in ((), ("--out", str(target))):
            code = cli.main([*argv, "--format", fmt, *out])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {refused}\n")
            assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--gens", "6,10,15"),
        ("analyze", "--triangular", "9"),
        ("analyze", "--tetrahedral", "11"),
        ("perms",),
    ],
)
def test_full_is_refused_where_csv_would_ignore_it(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args):
        raise AssertionError("work before the refusal")

    for owner, name in ((core, "NumericalSemigroup"), (figurate, "choose5_counterexample")):
        monkeypatch.setattr(owner, name, refuse)
    target = tmp_path / "out.csv"
    for out in ((), ("--out", str(target))):
        code = cli.main([*argv, "--full", "--format", "csv", *out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --full does not apply to {argv[0]} --format csv\n"
        assert not target.exists()
    monkeypatch.undo()
    # the same command without --full, or in another format, still runs
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert cli.main([*argv, "--full", "--format", "json"]) == 0
    capsys.readouterr()


def _count_tables(monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """Record (m, gens) for every Apery table built from generators: the
    engine's table of n_1 in coset form, and every whole table, which
    ``apery_levels`` fills from the same coset form."""
    seen = []
    apery_cosets = _kernels.apery_cosets

    def counted(m, gens):
        seen.append((m, tuple(gens)))
        return apery_cosets(m, gens)

    monkeypatch.setattr(_kernels, "apery_cosets", counted)
    return seen


@pytest.mark.parametrize(
    "kind, generators, oracle_max_n, ns",
    [
        ("triangular", figurate.triangular_generators, 12, [*range(3, 61), 339, 340]),
        ("tetrahedral", figurate.tetrahedral_generators, 8, [*range(4, 41), 79, 80]),
    ],
)
def test_family_check_fills_the_n1_table_only_for_the_betti_oracle(monkeypatch, kind, generators, oracle_max_n, ns):
    # above oracle_max_n only the coset form's max, sum and lookups are read
    fills = []
    fill_cosets = _kernels.fill_cosets

    def counted_fill(base, d, g):
        fills.append(len(base) * d)
        return fill_cosets(base, d, g)

    def refuse(m, gens):
        raise AssertionError(f"whole Apery table mod {m} over {tuple(gens)}")

    seen = _count_tables(monkeypatch)
    monkeypatch.setattr(_kernels, "fill_cosets", counted_fill)
    monkeypatch.setattr(_kernels, "apery_levels", refuse)
    for n in ns:
        gens = core.NumericalSemigroup(generators(n)).generators
        del fills[:], seen[:]
        assert cli._VERIFY_CHECKS[kind](n) is None, n
        assert (gens[0], gens) in seen, n
        betti_oracle = n <= oracle_max_n and figurate.figurate_embedding_dimension(kind, n) == len(gens)
        assert fills == ([gens[0]] if betti_oracle else []), n


@pytest.mark.parametrize(
    "kind, n, max_calls",
    [
        ("tetrahedral", 9, 4),  # forward: anchor TH_n is the oracle's modulus
        # reverse: the box mod the anchor TH_{n+3} is checked in the table mod TH_n
        ("tetrahedral", 10, 4),
        ("tetrahedral", 11, 4),
        ("triangular", 9, 3),
    ],
)
def test_family_check_builds_each_apery_table_once(monkeypatch, kind, n, max_calls):
    seen = _count_tables(monkeypatch)
    assert cli._VERIFY_CHECKS[kind](n) is None
    assert seen  # the oracle's table of n_1 at least
    assert len(seen) == len(set(seen)), seen
    assert len(seen) <= max_calls, seen
    assert all(m != arith.tetrahedral(n + 3) for m, _ in seen), seen


def test_each_input_builds_its_semigroup_once(monkeypatch, capsys):
    # the oracle, the c* walk and the gcd reduction share the input's semigroup
    def minimal(kind, n):
        return core.NumericalSemigroup(getattr(figurate, f"{kind}_generators")(n)).generators

    runs = [
        (("verify", "--family", kind, "--range", f"{n}..{n}"), [minimal(kind, n)])
        for kind, ns in (("triangular", (1, 2, 9)), ("tetrahedral", (3, 9, 10)))
        for n in ns
    ] + [
        (("analyze", "--triangular", "9"), [minimal("triangular", 9)]),
        (("analyze", "--tetrahedral", "10"), [minimal("tetrahedral", 10)]),
        (("table", "--family", "choose4", "--range", "1..40"), [minimal("choose4", n) for n in range(1, 41)]),
    ]
    built = []
    init = core.NumericalSemigroup.__init__

    def counted_init(self, entries):
        init(self, entries)
        built.append(self.generators)

    monkeypatch.setattr(core.NumericalSemigroup, "__init__", counted_init)
    for argv, inputs in runs:
        del built[:]
        code, _ = run(capsys, *argv)
        assert code == 0, argv
        assert [built.count(gens) for gens in inputs] == [1] * len(inputs), (argv, built)


def test_each_input_enters_the_reduction_once_with_its_semigroup(monkeypatch, capsys):
    calls = []
    reduction = telescopic.brauer_shockley_frobenius

    def counted_reduction(seq, **kwargs):
        calls.append((tuple(seq), kwargs.get("_semigroup")))
        return reduction(seq, **kwargs)

    monkeypatch.setattr(telescopic, "brauer_shockley_frobenius", counted_reduction)
    for argv, inputs in (
        (("analyze", "--gens", "6,10,15"), [(6, 10, 15)]),
        (("analyze", "--triangular", "9"), [figurate.triangular_generators(9)]),
        (("analyze", "--tetrahedral", "10"), [figurate.tetrahedral_generators(10)]),
        (("verify", "--family", "tetrahedral", "--range", "9..9"), [figurate.tetrahedral_generators(9)]),
        (("table", "--family", "choose4", "--range", "1..5"), [figurate.choose4_generators(n) for n in range(1, 6)]),
    ):
        del calls[:]
        code, _ = run(capsys, *argv)
        assert code == 0, argv
        assert [seq for seq, _ in calls] == inputs, argv
        assert all(S is not None and S.generators == core.NumericalSemigroup(seq).generators for seq, S in calls), argv
    # the cross-checks keep their oracle independent of the reduction
    for argv, inputs in (
        (("frobenius", "--gens", "6,10,15", "--cross-check"), [(6, 10, 15)]),
        (("verify", "--family", "choose4", "--range", "5..5"), [figurate.choose4_generators(5)]),
    ):
        del calls[:]
        code, _ = run(capsys, *argv)
        assert code == 0, argv
        assert calls == [(seq, None) for seq in inputs], argv


@pytest.mark.parametrize("kind, ns", [("triangular", range(1, 341)), ("tetrahedral", range(1, 81))])
def test_reduction_reaches_two_generators_without_the_oracle(monkeypatch, kind, ns):
    # on the check's semigroup the reduction stays independent of its oracle
    forms = cli._closed_forms(kind)
    semigroups = [core.NumericalSemigroup(forms.generators(n)) for n in ns]

    def refuse(self):
        raise AssertionError(f"the reduction fell back to the oracle of {self!r}")

    monkeypatch.setattr(core.NumericalSemigroup, "frobenius", refuse)
    for n, S in zip(ns, semigroups):
        arrangement = telescopic.arranged_minimal(forms.generators(n), S.generators)
        assert telescopic._brauer_shockley(arrangement, S) == forms.frobenius(n), n


@pytest.mark.parametrize(
    "gens",
    [
        "41,53,67,79,97",  # not free: the reduction falls back to the n_1 table
        "12,8,3,20",  # 12 and 20 redundant; the c* walk divides (8) by d_1 = 8
        "10,6,15",  # free
        # the reduction's inner semigroup (19, 35, 39) is the last c*
        # prefix, which the c* walk does not build: t_4 has a witness
        "57,105,117,70",
    ],
)
def test_analyze_gens_builds_each_apery_table_once(monkeypatch, capsys, gens):
    seen = _count_tables(monkeypatch)
    code, out = run(capsys, "analyze", "--gens", gens, "--format", "json")
    assert code == 0 and json.loads(out)["agreement"] is True
    minimal = tuple(json.loads(out)["minimal_generators"])
    assert len(seen) == len(set(seen)), seen
    # c* prefix tables may share the modulus n_1, over fewer generators
    assert seen.count((minimal[0], minimal)) == 1, seen


@pytest.mark.parametrize("gens", ["41,53,67,79,97", "57,105,117,70"])
def test_analyze_gens_runs_the_public_freeness_test_once(monkeypatch, capsys, gens):
    calls = []
    is_free = telescopic.is_free

    def counted_is_free(*args, **kwargs):
        calls.append(args)
        return is_free(*args, **kwargs)

    monkeypatch.setattr(telescopic, "is_free", counted_is_free)
    code, out = run(capsys, "analyze", "--gens", gens, "--format", "json")
    assert code == 0 and json.loads(out)["agreement"] is True
    assert len(calls) == 1, calls


def test_is_free_does_not_minimalize_a_built_semigroup(monkeypatch):
    S = core.NumericalSemigroup((57, 105, 117, 70))
    arrangements = (S.generators, S.generators[::-1])
    expected = [telescopic.is_free(arr) for arr in arrangements]
    built = []

    def counted(entries):
        built.append(tuple(sorted(entries)))
        return core.NumericalSemigroup(entries)

    monkeypatch.setattr(telescopic, "NumericalSemigroup", counted)
    for arr, verdict in zip(arrangements, expected):
        assert telescopic.is_free(arr, _semigroup=S) == verdict
    assert S.generators not in built
    telescopic.is_free(S.generators)
    assert S.generators in built


def test_verify_counterexample_exits_1(capsys, monkeypatch):
    # one wrong form per check; each is looked up when the command runs
    genus = core.NumericalSemigroup.genus
    apery_mismatch = "Apery mismatch between closed form and oracle"
    cases = [
        (
            "triangular", 3, figurate, "frobenius_triangular", lambda n: 0,
            "frobenius mismatch: closed=0 cubic=29 oracle=29 reduction=29",
        ),
        (
            "triangular", 5, figurate, "triangular_cstar",
            lambda n: figurate.CstarForm(figurate.triangular_generators(n), (1, 1)),
            "c* mismatch: closed=(1, 1) generic=(5, 3)",
        ),
        (
            "tetrahedral", 10, figurate, "tetrahedral_betti", lambda n: {0},
            "Betti mismatch: closed={0} free={2002, 1820, 2860}",
        ),
        # Selmer's identity fails for a genus one too large: at the forward
        # anchor n_1 and at the reverse anchor TH_{n+3}
        ("triangular", 6, core.NumericalSemigroup, "genus", lambda self: genus(self) + 1, apery_mismatch),
        ("tetrahedral", 10, core.NumericalSemigroup, "genus", lambda self: genus(self) + 1, apery_mismatch),
        # a box with a repeated residue is no Apery set
        ("tetrahedral", 11, telescopic, "_residues_distinct", lambda arrangement, cstars: False, apery_mismatch),
        # the printed direction is checked against both telescopic tests
        (
            "tetrahedral", 9, figurate, "tetrahedral_direction", lambda n: figurate.Direction.REVERSE,
            "classification mismatch: forward=True reverse=False n mod 6 = 3",
        ),
    ]
    for family, n, owner, name, patch, message in cases:
        with monkeypatch.context() as patched:
            patched.setattr(owner, name, patch)
            code = cli.main(["verify", "--family", family, "--range", f"{n}..{n}"])
        captured = capsys.readouterr()
        assert code == 1, name
        assert f"n={n} FAIL {message}" in captured.out
        assert captured.err == f"first counterexample: n={n}: {message}\n"


def test_a_failing_verify_is_written_in_csv_as_in_json(capsys, monkeypatch):
    monkeypatch.setattr(figurate, "triangular_betti", lambda n: {42})
    argv = ["verify", "--family", "triangular", "--range", "3..4", "--format"]
    code, out = run(capsys, *argv, "json")
    assert code == 1
    records = json.loads(out)
    columns = ("schema", "family", "n", "pass", "detail")
    code, out = run(capsys, *argv, "csv")
    assert code == 1
    assert out == flat_rows(columns, [tuple(r[c] for c in columns) for r in records], "csv")
    assert out.endswith('\n1,triangular,4,false,"Betti mismatch: closed={42} free={105, 30}"\n')


VERIFY_COLUMNS = ("schema", "family", "n", "pass", "detail")


def _verify_outputs(capsys, argv: list[str]) -> dict[str, tuple[int, str, str]]:
    """Exit code, stdout and stderr of ``argv`` in each format."""
    outputs = {}
    for fmt in ("json", "text", "csv"):
        code = cli.main([*argv, "--format", fmt])
        captured = capsys.readouterr()
        outputs[fmt] = (code, captured.out, captured.err)
    return outputs


def test_a_failing_verify_range_is_written_as_the_stdlib_writes_its_records(capsys, monkeypatch):
    # n = 1, 2 are below full embedding dimension and pass; 3 and 4 fail
    monkeypatch.setattr(figurate, "triangular_betti", lambda n: {42})
    details = ["", "", "Betti mismatch: closed={42} free={30}", "Betti mismatch: closed={42} free={105, 30}"]
    records = [
        {"schema": "1", "family": "triangular", "n": n, "pass": not detail, "detail": detail}
        for n, detail in enumerate(details, 1)
    ]
    lines = [f"n={r['n']} pass\n" if r["pass"] else f"n={r['n']} FAIL {r['detail']}\n" for r in records]
    err = "first counterexample: n=3: Betti mismatch: closed={42} free={30}\n"
    rows = [tuple(r[c] for c in VERIFY_COLUMNS) for r in records]
    assert _verify_outputs(capsys, ["verify", "--family", "triangular", "--range", "1..4"]) == {
        "json": (1, json.dumps(records, sort_keys=True, indent=2) + "\n", err),
        "text": (1, "".join(lines) + "2/4 pass\n", err),
        "csv": (1, flat_rows(VERIFY_COLUMNS, rows, "csv"), err),
    }


def test_verify_builds_no_apery_box(capsys, monkeypatch):
    # the closed box is checked by Selmer's identity on the oracle's table
    def refuse(*args):
        raise AssertionError("Apery box built")

    for owner, name in (
        (telescopic, "apery_box"),
        (telescopic, "box_elements"),
        (telescopic, "box_levels"),
        (figurate, "triangular_apery"),
        (figurate, "tetrahedral_apery"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    code, out = run(capsys, "verify", "--family", "triangular", "--range", "3..12")
    assert code == 0 and "10/10 pass" in out
    code, out = run(capsys, "verify", "--family", "tetrahedral", "--range", "4..12")
    assert code == 0 and "9/9 pass" in out


def test_verify_refuses_an_anchor_above_the_materialize_limit(capsys, monkeypatch):
    # tetrahedral 4 is reverse: n_1 = 20 is within the limit, the anchor TH_7 = 84 is not
    monkeypatch.setattr(core, "APERY_MATERIALIZE_LIMIT", 50)
    code = cli.main(["verify", "--family", "tetrahedral", "--range", "4..4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: Apery set of size 84 exceeds the desk-scale limit (50)\n"
    assert captured.out == ""


def test_analyze_family_reports_the_patched_closed_form(capsys, monkeypatch):
    # n = 10 is a reverse member (see test_analyze_direction)
    monkeypatch.setattr(figurate, "tetrahedral_direction", lambda n: figurate.Direction.FORWARD)
    code, out = run(capsys, "analyze", "--tetrahedral", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["direction"] == "forward"


def test_table_reports_the_patched_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(figurate, "triangular_betti", lambda n: {42})
    code, out = run(capsys, "table", "--family", "triangular", "--range", "2..4", "--format", "json")
    assert code == 0
    assert [row["betti"] for row in json.loads(out)["rows"]] == ["", [42], [42]]


def test_analyze_above_the_materialize_limit_refuses(capsys):
    # the closed-form Apery box of TH_2000 would hold about 1.3e9 entries
    code = cli.main(["analyze", "--tetrahedral", "2000"])
    captured = capsys.readouterr()
    assert code == 2
    assert "desk-scale" in captured.err
    assert captured.out == ""


def test_analyze_full_past_the_materialize_limit_refuses_before_any_output(capsys, monkeypatch, tmp_path):
    # tetrahedral 388 is the first member whose anchor passes the limit
    start = time.perf_counter()
    code = cli.main(["analyze", "--tetrahedral", "388", "--full"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 10
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: Apery set of size 10039316 exceeds the desk-scale limit (10000000)\n"
    # the box's own checks run while the record is built: a box the divide
    # chain does not prove writes nothing, not even the --out file
    monkeypatch.setattr(telescopic, "_residues_distinct", lambda arrangement, cstars: False)
    out = tmp_path / "report.json"
    for fmt in ("json", "text"):
        code = cli.main(["analyze", "--tetrahedral", "11", "--full", "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "internal invariant violation: the divide chain of (560, 455, 364, 286)"
            " does not prove the c* (16, 5, 7) box's residues distinct\n"
        )
        assert not out.exists()


def written(elements) -> list[int]:
    """The ints an Apery summary's elements are written as."""
    return json.loads("[" + elements.write(b",") + "]")


def test_brief_apery_summaries_read_the_ends_without_a_sort(monkeypatch):
    # Ap(<7, 10, 12>, 7) filed by residue: the three smallest and largest
    # come by heapq; only a set of at most 6, or --full, is sorted whole
    ap = core.NumericalSemigroup((7, 10, 12)).apery()
    listed = sorted(ap)
    expected = {
        "anchor": 7,
        "size": 7,
        "max": listed[-1],
        "frobenius_from_apery": listed[-1] - 7,
        "smallest": listed[:3],
        "largest": listed[-3:],
    }
    with monkeypatch.context() as patched:
        patched.setattr(cli, "sorted", lambda *args: pytest.fail("sorted"), raising=False)
        assert cli._apery_summary(7, ap, False) == expected
    # a whole set is held as one run of the int-run writer
    assert written(cli._apery_summary(7, ap, True)["elements"]) == listed
    small = core.NumericalSemigroup((5, 7, 9)).apery()
    assert written(cli._apery_summary(5, small, False)["elements"]) == sorted(small) == [0, 7, 9, 16, 18]


@pytest.mark.parametrize("kind", ["triangular", "tetrahedral"])
def test_full_box_writer_gives_the_bytes_of_the_listed_box(kind):
    # every n below 90 at full embedding dimension: the levels written into
    # one buffer against a plain list of the box through json.dumps and
    # _scalar, and against the same elements written as one sorted run
    forms = cli._closed_forms(kind)
    anchors, reversed_residues = [], set()
    for n in range(1, 90):
        gens = forms.generators(n)
        if figurate.figurate_embedding_dimension(kind, n) != len(gens):
            continue
        form = forms.cstar(n)
        anchor = form.arrangement[0]
        anchors.append(anchor)
        if anchor == max(gens):
            reversed_residues.add(n % 6)
        elements = list(telescopic.box_elements(form.arrangement, form.cstars))
        top = elements[-1]
        summary = {"anchor": anchor, "size": len(elements), "max": top, "frobenius_from_apery": top - anchor}
        listed = {"apery": {**summary, "elements": elements}}
        text = cli._format_payload(listed, "text")
        assert text.endswith(f"\napery.elements: {cli._scalar(elements)}\n")
        for fmt, expected in (("json", json.dumps(listed, sort_keys=True, indent=2) + "\n"), ("text", text)):
            # a record holds the levels as runs, written once by one writer
            record = {"apery": cli._box_summary(form.arrangement, form.cstars, True)}
            assert type(record["apery"]["elements"]) is cli._IntRuns
            assert cli._format_payload(record, fmt) == expected
            generic = {"apery": cli._apery_summary(anchor, elements[::-1], True)}
            assert cli._format_payload(generic, fmt) == expected
    # anchors up to 6, which a brief summary lists whole, and the reversed
    # tetrahedral members, whose anchor TH_{n+3} is the largest generator
    assert min(anchors) <= 6 if kind == "triangular" else reversed_residues == {4, 5}


def test_analyze_gens_above_the_materialize_limit_refuses_before_the_cstar_search(capsys):
    # n_1 above 1e7: the Apery table every record needs may not be built,
    # and the c* search over a DFS per k ran for minutes
    for gens in ("10000019,10000079,10000103", "20000003,20000011,20000023,20000029"):
        code = cli.main(["analyze", "--gens", gens, "--betti-bound", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "desk-scale" in captured.err
        assert captured.out == ""


def test_analyze_gens_refuses_a_cstar_prefix_above_the_materialize_limit(capsys):
    # n_1 = 7, but c*_4 needs j * 20000003 in <10000019, 10000079>, whose
    # table may not be built; the least j is 322,589, one DFS each
    start = time.perf_counter()
    code = cli.main(["analyze", "--gens", "10000019,10000079,20000003,7"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert code == 2
    assert captured.err == "error: Apery set of size 10000019 exceeds the desk-scale limit (10000000)\n"
    assert captured.out == ""
    code, out = run(capsys, "frobenius", "--gens", "10000019,10000079,20000003,7")
    assert code == 0 and "frobenius: 30000170" in out


def test_deep_redundancy_and_cstar_searches_answer_from_tables(capsys):
    # each took seconds to minutes as one unbounded coefficient DFS
    start = time.perf_counter()
    code, out = run(capsys, "frobenius", "--gens", "10000,10001,10002,10003,33329999", "--cross-check")
    assert code == 0 and "methods.oracle: 33329998" in out and "agreement: true" in out
    code, out = run(capsys, "analyze", "--gens", "4001,2000,2002,2004,2006,332999")
    assert code == 0 and "apery.frobenius_from_apery: 665999" in out
    assert time.perf_counter() - start < 10


def test_cstar_witness_over_multiplicity_three_and_six_answers_at_once():
    # the witness over (10000000001, 3) tried each coefficient of 3 up to
    # the least one, about 3e9, and the process ran for minutes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    records = []
    for gens in ("10000000001,3,10000000003", "20000000002,6,19000000001"):
        argv = [sys.executable, "-m", "numsemi.cli", "analyze", "--gens", gens, "--format", "json"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, (gens, done.stderr)
        records.append(json.loads(done.stdout))
    assert [r["cstar"] for r in records] == [[10000000001, 2]] * 2
    assert [r["frobenius"] for r in records] == [10000000000, 58999999999]
    assert [r["free"] for r in records] == [False, True]
    assert records[1]["presentation"][1]["rhs"] == [1, 3000000000, 0]


def test_a_lower_prefix_with_a_large_gcd_answers_at_once():
    # is_telescopic tried each coefficient of 5 over (20000000002,
    # 30000000003), whose gcd is 10000000001, and the process ran for minutes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    records = []
    for gens in ("20000000002,30000000003,5,10000000006,10", "20000000002,30000000003,5,5000000000"):
        argv = [sys.executable, "-m", "numsemi.cli", "analyze", "--gens", gens, "--format", "json"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, (gens, done.stderr)
        records.append(json.loads(done.stdout))
    assert [r["arrangement"] for r in records] == [[20000000002, 30000000003, 5, 10000000006], [20000000002, 30000000003, 5]]
    assert [r["telescopic_as_given"] for r in records] == [False, True]
    assert [r["free"] for r in records] == [False, True]
    assert [r["cstar"] for r in records] == [[2, 10000000001, 2], [2, 10000000001]]
    D = 10**10 + 1
    assert [r["frobenius"] for r in records] == [4 * D - 5, 6 * D - 5] == [39999999999, 60000000001]
    assert [r["agreement"] for r in records] == [True, True]


def test_a_redundant_entry_over_a_coprime_pair_answers_at_once():
    # is_telescopic on the list as given stepped the coefficient of 2000
    # over the coprime (1000, 10**15 + 1), about 5e11 steps that all fail;
    # the same list without the 2000 is its own arrangement and never did
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    records = []
    for gens in ("1000,1000000000000001,2000,1000000000000003", "1000,1000000000000001,1000000000000003"):
        argv = [sys.executable, "-m", "numsemi.cli", "analyze", "--gens", gens, "--format", "json"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, (gens, done.stderr)
        records.append(json.loads(done.stdout))
    assert records[0]["input"]["generators"] == [1000, 10**15 + 1, 2000, 10**15 + 3]
    assert records[0]["telescopic_as_given"] is False
    assert records[0]["frobenius"] == 333999999999999998
    for record in records:
        del record["input"]
    assert records[0] == records[1]


def test_reduction_minimalizes_each_level_once(capsys, monkeypatch):
    # the DFS gives up on 33329999, and each semigroup reads its own table
    # mod 10000 over all five: one for the reduction's, whose Apery
    # fallback reads it, one for the oracle's own
    seen = _count_tables(monkeypatch)
    code, out = run(capsys, "frobenius", "--gens", "10000,10001,10002,10003,33329999", "--cross-check")
    assert code == 0 and "agreement: true" in out
    assert seen.count((10000, (10000, 10001, 10002, 10003))) == 0
    assert seen.count((10000, (10000, 10001, 10002, 10003, 33329999))) == 2
    assert len(seen) == 2


def test_analyze_builds_no_table_twice(capsys, monkeypatch):
    # the DFS gives up on 332999 over the first five: the semigroup's table
    # mod 2000 answers, and the c* walk's prefix tables are all different
    seen = _count_tables(monkeypatch)
    code, _ = run(capsys, "analyze", "--gens", "4001,2000,2002,2004,2006,332999")
    assert code == 0
    assert len(seen) == len(set(seen)) == 5, seen


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--family", "triangular", "--range", "1..6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,generators,frobenius,cstar,betti,direction"
    assert any(line.startswith("3,") and ",29," in line for line in lines)


def test_table_is_byte_stable(capsys):
    _, first = run(capsys, "table", "--family", "tetrahedral", "--range", "4..9", "--format", "csv")
    _, second = run(capsys, "table", "--family", "tetrahedral", "--range", "4..9", "--format", "csv")
    assert first == second
    assert any(line.startswith("5,") and ",853," in line for line in first.splitlines())


def _parse_field(text: str) -> object:
    """A text or CSV field of a family table: a list, an int or a word."""
    if text.startswith("["):
        return json.loads(text)
    if text.lstrip("-").isdigit():
        return int(text)
    return text


TABLE_FIELDS = ("n", "generators", "frobenius", "cstar", "betti", "direction")


@pytest.mark.parametrize("family, span", [("triangular", "1..2000"), ("tetrahedral", "1..1000")])
def test_table_formats_parse_back_to_the_same_rows(capsys, family, span):
    outs = {}
    for fmt in ("text", "csv", "json"):
        code, outs[fmt] = run(capsys, "table", "--family", family, "--range", span, "--format", fmt)
        assert code == 0
    from_json = [tuple(row[k] for k in TABLE_FIELDS) for row in json.loads(outs["json"])["rows"]]
    reader = csv.reader(io.StringIO(outs["csv"]))
    assert next(reader) == list(TABLE_FIELDS)
    from_csv = [tuple(map(_parse_field, fields)) for fields in reader]
    from_text = []
    for line in outs["text"].splitlines():
        key, _, value = line.partition(": ")
        if key == "n":
            from_text.append([])
        from_text[-1].append((key, _parse_field(value)))
    assert all([key for key, _ in row] == list(TABLE_FIELDS) for row in from_text)
    from_text = [tuple(value for _, value in row) for row in from_text]
    lo, hi = map(int, span.split(".."))
    assert [row[0] for row in from_json] == list(range(lo, hi + 1))
    assert from_text == from_csv == from_json
    # below full embedding dimension the structural fields are empty
    assert from_json[0][3:5] == ("", "")


ARITH_COLUMNS = ("k", "generators", "frobenius")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "family, extra, columns, rows",
    [
        # each range crosses every change of row shape of its family
        ("triangular", ("--range", "1..40"), TABLE_FIELDS, lambda: [figurate.table_row("triangular", n) for n in range(1, 41)]),
        ("tetrahedral", ("--range", "1..40"), TABLE_FIELDS, lambda: [figurate.table_row("tetrahedral", n) for n in range(1, 41)]),
        ("choose4", ("--range", "1..40"), TABLE_FIELDS, lambda: [cli._choose4_row(n) for n in range(1, 41)]),
        (
            "arith",
            ("--n", "6", "--k", "2..5"),
            ARITH_COLUMNS,
            lambda: [(k, figurate.arithmetic_generators(6, k), figurate.brauer_arithmetic_frobenius(6, k)) for k in range(2, 6)],
        ),
    ],
)
def test_table_rows_are_written_as_the_stdlib_writes_them(capsys, fmt, family, extra, columns, rows):
    code, out = run(capsys, "table", "--family", family, *extra, "--format", fmt)
    assert code == 0
    if fmt == "json":
        record = {"schema": cli.SCHEMA_VERSION, "family": family, "rows": [dict(zip(columns, row)) for row in rows()]}
        assert out == json.dumps(record, sort_keys=True, indent=2) + "\n"
    else:
        assert out == flat_rows(columns, rows(), fmt)


def test_table_evaluates_the_closed_forms_once_per_row(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("CstarForm built")

    monkeypatch.setattr(figurate, "CstarForm", refuse)
    calls: dict[str, list[int]] = {"triangular": [], "tetrahedral": []}
    for family, seen in calls.items():
        form = getattr(figurate, f"{family}_generators")
        monkeypatch.setattr(figurate, f"{family}_generators", lambda n, form=form, seen=seen: seen.append(n) or form(n))
    for family in calls:
        code, out = run(capsys, "table", "--family", family, "--range", "300..799", "--format", "json")
        assert code == 0 and len(json.loads(out)["rows"]) == 500
        assert calls[family] == list(range(300, 800))  # the parent computed each three times
        calls[family].clear()
    assert calls == {"triangular": [], "tetrahedral": []}


class _Plain(int):
    pass


def test_table_refuses_a_value_it_would_write_wrong(capsys, monkeypatch, tmp_path):
    # a Betti set of {True} would print 1 through %d
    monkeypatch.setattr(figurate, "triangular_betti", lambda n: {True})
    refused = "internal invariant violation: table values must be plain ints, strs and int lists, got ['bool']\n"
    for fmt in ("text", "json", "csv"):
        code = cli.main(["table", "--family", "triangular", "--range", "1..5", "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", refused)
        target = tmp_path / f"table.{fmt}"
        code = cli.main(["table", "--family", "triangular", "--range", "1..5", "--format", fmt, "--out", str(target)])
        assert (code, capsys.readouterr().err) == (1, refused) and not target.exists()
        # an int field or list item of any other type, and a row of another width
        for row in ((1.5, 2), (None, 2), (_Plain(3), 2), (["x"], 2), ((1, 2.0), 2), ([True], 2), (1, 2, 3)):
            with pytest.raises(InvariantViolation):
                cli._Rows(("a", "b"), [(1, [2]), row]).write(fmt)


def test_table_arith(capsys):
    code, out = run(capsys, "table", "--family", "arith", "--n", "6", "--k", "2..5", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["frobenius"] for row in rows] == [29, 17, 11, 11]


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "table", "--family", "triangular", "--range", "1..3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_bytes()
    assert content.startswith(b"n,generators")
    assert b"\r\n" not in content  # LF endings


def test_unwritable_out_exits_4(capsys):
    code, _ = run(capsys, "table", "--family", "triangular", "--range", "1..3", "--out", "/nonexistent-dir/x.csv")
    assert code == 4


def test_perms(capsys):
    code, out = run(capsys, "perms")
    assert code == 0
    assert "total: 720" in out and "telescopic: 0" in out


def test_perms_full_json(capsys):
    code, out = run(capsys, "perms", "--full", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert len(record["outcomes"]) == 720
    assert all(o["failing_index"] is not None for o in record["outcomes"])


def test_a_telescopic_permutation_has_an_empty_failing_index_in_csv(capsys, monkeypatch):
    outcomes = (figurate.PermutationOutcome((1, 2), None), figurate.PermutationOutcome((2, 1), 1))
    monkeypatch.setattr(figurate, "choose5_counterexample", lambda: figurate.PermutationReport((1, 2), outcomes))
    code, out = run(capsys, "perms", "--full", "--format", "json")
    assert code == 1 and [o["failing_index"] for o in json.loads(out)["outcomes"]] == [None, 1]
    code, out = run(capsys, "perms", "--format", "csv")
    assert (code, out) == (1, 'permutation,failing_index\n"[1, 2]",\n"[2, 1]",1\n')
    code, out = run(capsys, "verify", "--family", "choose5perms", "--format", "csv")
    assert (code, out) == (1, "schema,family,total,telescopic,pass\n1,choose5perms,2,1,false\n")


def test_a_failing_choose5perms_verify_is_written_as_the_stdlib_writes_its_record(capsys, monkeypatch):
    outcomes = (figurate.PermutationOutcome((1, 2), None), figurate.PermutationOutcome((2, 1), 1))
    monkeypatch.setattr(figurate, "choose5_counterexample", lambda: figurate.PermutationReport((1, 2), outcomes))
    record = {"schema": "1", "family": "choose5perms", "total": 2, "telescopic": 1, "pass": False}
    columns, row = tuple(record), tuple(record.values())
    err = "counterexample: some permutation is telescopic\n"
    assert _verify_outputs(capsys, ["verify", "--family", "choose5perms"]) == {
        "json": (1, json.dumps([record], sort_keys=True, indent=2) + "\n", err),
        "text": (1, flat_rows(columns, [row], "text"), err),
        "csv": (1, flat_rows(columns, [row], "csv"), err),
    }


def test_analyze_above_two_hundred_thousand_answers_from_tables(capsys):
    # n_1 above 2e5: every c* lookup (k up to 37,502 here) must come from a
    # table, since a coefficient DFS per k runs for minutes
    gens = "300007,300011,300017,300023"
    code, out = run(capsys, "analyze", "--gens", gens, "--betti-bound", "0", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["agreement"] is True
    code, out = run(capsys, "frobenius", "--gens", gens, "--cross-check", "--format", "json")
    assert code == 0
    cross = json.loads(out)
    assert cross["agreement"] is True
    assert record["frobenius"] == cross["frobenius"] == 11251462526


def test_module_entry_point_exit_codes():
    # ``python -m numsemi.cli`` runs ``cli.entry()``, which exits with main's code
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for args, code in (
        (("--triangular", "3"), 0),
        (("--gens", "4,6"), 2),
        (("--triangular", "3000000"), 3),
        (("--triangular", "3", "--out", "/nonexistent/dir/x"), 4),
    ):
        argv = [sys.executable, "-m", "numsemi.cli", "frobenius", *args]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (args, done.stderr)
        if code == 0:
            assert "frobenius: 29" in done.stdout.splitlines()


def test_cli_reads_no_private_name_of_another_module():
    # the CLI goes through each layer's public entries only, and argparse's
    # too: the read table comes from the actions build_parser declares, so
    # no attribute read names a private (non-dunder) member
    layers = {"core", "telescopic", "figurate", "arith"}
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    private += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in {f"numsemi.{layer}" for layer in layers}
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_frobenius_disagreement_lists_the_methods_in_the_order_they_ran(capsys, monkeypatch, fmt):
    monkeypatch.setattr(figurate, "frobenius_triangular", lambda n: 0)
    code = cli.main(["frobenius", "--triangular", "5", "--cross-check", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "method disagreement: {'closed-form': 0, 'cubic-form': 125, 'reduction': 125, 'oracle': 125}\n"
    )
    if fmt == "json":
        assert json.loads(captured.out)["agreement"] is False
    elif fmt == "text":
        assert "\nagreement: false\n" in captured.out
    else:
        assert captured.out == 'input,generators,frobenius,provenance\ntriangular,"[15, 21, 28]",0,closed-form\n'


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_analyze_disagreement_lists_the_methods_sorted(capsys, monkeypatch, fmt):
    reduction = telescopic.brauer_shockley_frobenius
    monkeypatch.setattr(telescopic, "brauer_shockley_frobenius", lambda gens, **kw: reduction(gens, **kw) + 1)
    code = cli.main(["analyze", "--gens", "6,10,15", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "method disagreement: {'free-form': 29, 'oracle': 29, 'reduction': 30}\n"
    if fmt == "json":
        assert json.loads(captured.out)["agreement"] is False
    elif fmt == "text":
        assert "\nagreement: false\n" in captured.out
    else:
        assert captured.out == 'generators,frobenius,free,betti\n"[6, 10, 15]",29,true,[30]\n'


REFUSED_INPUTS = {
    ("frobenius", "--gens", ""): "generator list must be comma-separated integers, got ''",
    ("frobenius", "--gens", "0,5"): "generators must be positive",
    ("verify", "--family", "triangular", "--range", "5"): "range must look like a..b, got '5'",
    ("verify", "--family", "triangular", "--range", "a..b"): "range endpoints must be integers, got 'a..b'",
    ("table", "--family", "triangular"): "--range a..b is required for this family",
}


@pytest.mark.parametrize("argv", list(REFUSED_INPUTS), ids=" ".join)
def test_an_input_the_parsers_refuse_exits_2_with_no_output(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {REFUSED_INPUTS[argv]}\n")
