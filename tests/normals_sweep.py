"""Sweep the seeded normals against one generator per replicate.

Random (seed, replicate range, shape) cases, for a fixed wall time: every
row of ``fbm.replicate_normals(seed, replicates, shape)`` must equal
``replicate_stream(seed, i).standard_normal(shape)`` byte for byte.  Seeds
cover the signed and unsigned 64-bit ranges and their edges, and indices
run up to 2^64 - 1.  Too many cases for the tier-1 budget, so the tests do
not collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/normals_sweep.py [--seconds 5] [--seed 0]

Exits 1, printing the first mismatches, if any row differs.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from fracnls.fbm import replicate_normals, replicate_stream

EDGE_SEEDS = (0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**64 - 1)


def random_case(rng: np.random.Generator) -> tuple[int, range, tuple[int, ...]]:
    kind = int(rng.integers(4))
    if kind == 0:
        seed = EDGE_SEEDS[int(rng.integers(len(EDGE_SEEDS)))]
    elif kind == 1:
        seed = int(rng.integers(-(2**63), 2**63))
    else:
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    count, step = int(rng.integers(0, 9)), int(rng.integers(1, 4))
    span = max(count - 1, 0) * step
    starts = (0, int(rng.integers(0, 2**40)), 2**64 - 1 - span - int(rng.integers(0, 3)))
    start = starts[int(rng.integers(len(starts)))]
    shape = tuple(int(k) for k in rng.integers(1, 20, size=int(rng.integers(1, 4))))
    return seed, range(start, start + count * step, step), shape


def mismatch(seed: int, replicates: range, shape: tuple[int, ...]) -> bool:
    got = replicate_normals(seed, replicates, shape)
    want = np.empty((len(replicates), *shape))
    for row, index in zip(want, replicates):
        row[...] = replicate_stream(seed, index).standard_normal(shape)
    return got.shape != want.shape or got.tobytes() != want.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0, help="wall time to sweep for")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    cases, bad = 0, []
    stop = time.perf_counter() + args.seconds
    while time.perf_counter() < stop:
        case = random_case(rng)
        cases += 1
        if mismatch(*case):
            bad.append(case)
    print(f"{cases} random cases: {len(bad)} mismatches")
    for seed, replicates, shape in bad[:20]:
        print(f"  seed {seed}, replicates {replicates}, shape {shape}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
