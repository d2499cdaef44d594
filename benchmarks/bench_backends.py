"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot loops on realistic workloads and prints the speedup.
Run after an editable install:

    python benchmarks/bench_backends.py [--repeat N]

To time a whole CLI command on the fallback instead, set
``NUMSEMI_PURE_PYTHON=1`` in the environment.
"""

from __future__ import annotations

import argparse
import time

from numsemi._kernels import available_backends
from numsemi.figurate import tetrahedral_generators


def best_of(repeat: int, fn, *args) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def bench_apery(impl, repeat: int) -> float:
    gens = tetrahedral_generators(60)  # anchor 37820
    return best_of(repeat, impl.apery_levels, gens[0], gens)


def bench_apery_largest(impl, repeat: int) -> float:
    # verify's oracle table is taken mod TH_{n+3}, the largest generator,
    # whenever the tetrahedral arrangement is reversed (n mod 6 in {4, 5}).
    gens = tetrahedral_generators(80)  # largest generator 98770
    return best_of(repeat, impl.apery_levels, gens[-1], gens)


def bench_factorizations(impl, repeat: int) -> float:
    gens = tetrahedral_generators(8)  # (120, 165, 220, 286)

    def sweep() -> int:
        total = 0
        for s in range(1, 2001):
            total += len(impl.factorizations_of(s, gens))
        return total

    return best_of(repeat, sweep)


def bench_representation(impl, repeat: int) -> float:
    gens = (792, 1287, 2002, 3003, 4368)

    def sweep() -> int:
        hits = 0
        for x in range(1, 30_001, 7):
            if impl.min_representation(x, gens) is not None:
                hits += 1
        return hits

    return best_of(repeat, sweep)


WORKLOADS = [
    ("apery_levels (anchor 37820, 4 generators)", bench_apery),
    ("apery_levels (m = n_4 = 98770, 4 generators)", bench_apery_largest),
    ("factorizations_of (s = 1..2000, 4 generators)", bench_factorizations),
    ("min_representation (sparse sweep, 5 generators)", bench_representation),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions per workload")
    args = parser.parse_args()

    backends = available_backends()
    if "cython" not in backends:
        print("compiled kernels not available; rebuild with `pip install -e .`")
    print(f"backends: {', '.join(backends)}  (best of {args.repeat})\n")
    header = f"{'workload':<48s}" + "".join(f"{name:>12s}" for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10s}"
    print(header)
    for label, bench in WORKLOADS:
        timings = {name: bench(impl, args.repeat) for name, impl in backends.items()}
        row = f"{label:<48s}" + "".join(f"{timings[name] * 1000:>10.2f}ms" for name in backends)
        if len(timings) == 2:
            row += f"{timings['python'] / timings['cython']:>9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
