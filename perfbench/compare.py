"""Compare two result files that ``run.py`` wrote to ``perfbench/out/``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and the relative change, and marks an
end-to-end metric that got worse by more than its bound in
``BENCHMARK.json``.  Refuses, with exit code 2, to compare runs that used
different kernel backends or measured different work (workload, seed,
``--seconds`` or trace mode), because their numbers do not measure the
same thing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SAME_WORK = ("backend", "workload", "seed", "seconds", "trace")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bounds() -> dict[str, dict]:
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m for m in load(str(spec))["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in SAME_WORK:
        if base["run"][key] != new["run"][key]:
            print(f"refusing to compare: {key} differs ({base['run'][key]!r} vs {new['run'][key]!r})",
                  file=sys.stderr)
            return 2
    limits = bounds()
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:<44} {b['value']:>14.6g} {'missing':>14}")
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        flag = ""
        spec = limits.get(name)
        if spec is not None:
            worse = -change if spec["better"] == "higher" else change
            if worse > spec["bound"]:
                flag = "  WORSE than bound"
        print(f"{name:<44} {b['value']:>14.6g} {n['value']:>14.6g} {change:>+8.1%} {b['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
