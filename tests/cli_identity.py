"""CLI byte-identity dump: exit code, stdout sha256 and stderr sha256 of
every argv the benchmark runs for one seed, the figurate family sweep and
the golden argvs.

    PYTHONPATH=src python tests/cli_identity.py --seed N > identity.txt

The argvs are the perfbench operation lists of the three workloads at
``--seconds 20`` for that seed (415, 580 and 220 operations), then the
family sweep (``analyze`` with and without ``--full`` and ``frobenius``
with and without ``--cross-check`` for n = 0..30 of both families, the
largest ``--full`` reports the benchmark makes (triangular 800, tetrahedral
120), ``table`` over 1..200 and ``verify`` over 1..20, each in text, json
and csv, and the json ``verify`` sweeps tetrahedral 4..120 and triangular
3..400; 764 argvs), followed by ``ARGVS`` from ``tests/test_cli_golden.py``.
One line per argv, in a fixed order, so two checkouts that must not differ
in CLI output compare with one ``diff`` of their dumps.  Where argparse
rejects an argv, the line holds its ``error:`` line, with any list of
choices unquoted, in place of the stderr digest (as ``cli_golden.json``
pins it): the usage block above it wraps differently from one Python to
the next, so dumps from Python 3.10 to 3.13 compare too.  Not a
``test_*`` file: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from test_cli_golden import ARGVS, pinned  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 20
FAMILIES = ("triangular", "tetrahedral")
FORMATS = ("text", "json", "csv")


def family_sweep() -> list[tuple[str, ...]]:
    """Every family command over small n, with and without its extra flag."""
    out: list[tuple[str, ...]] = []
    for command, flag in (("analyze", "--full"), ("frobenius", "--cross-check")):
        for family in FAMILIES:
            for n in range(31):
                for extra in ((), (flag,)):
                    for fmt in FORMATS:
                        out.append((command, f"--{family}", str(n), *extra, "--format", fmt))
    for family, n in (("triangular", 800), ("tetrahedral", 120)):
        for fmt in FORMATS:
            out.append(("analyze", f"--{family}", str(n), "--full", "--format", fmt))
    for command, span in (("table", "1..200"), ("verify", "1..20")):
        for family in FAMILIES:
            for fmt in FORMATS:
                out.append((command, "--family", family, "--range", span, "--format", fmt))
    for family, span in (("tetrahedral", "4..120"), ("triangular", "3..400")):
        out.append(("verify", "--family", family, "--range", span, "--format", "json"))
    return out


def argvs(seed: int) -> list[tuple[str, ...]]:
    """The benchmark's argv lists for ``seed``, the family sweep, then the
    golden set."""
    out: list[tuple[str, ...]] = []
    for workload in WORKLOADS.values():
        count = math.ceil(SECONDS * workload.ops_per_second)
        out.extend(op.argv for op in workload.generate(random.Random(seed), count))
    return out + family_sweep() + list(ARGVS)


def _unquoted(error: str) -> str:
    """An argparse ``error:`` line with its list of choices unquoted, as
    some Python releases write it and others do not."""
    head, sep, choices = error.rpartition("(choose from ")
    return head + sep + choices.replace("'", "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for argv in argvs(args.seed):
        rec = pinned(argv)
        err = rec.get("stderr_sha256") or _unquoted(rec["stderr_error"])
        print(rec["exit"], rec["stdout_sha256"], err, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
