"""Sweep the CSV float formatter against '%.17g' itself.

Random float64 bit patterns, in blocks; then as many values like a
snapshot's; then the edge values of ``test_cli.float_edge_values``: every
value's text from ``cli._float_text`` must equal ``('%.17g' % v).encode()``.
Random bit patterns land in the fixed-point layouts (-4 <= e <= 16) only 3.4%
of the time, and outside the formatter's table (1e-270, 1e270) 12.4% of it,
so the second part draws magnitudes log-uniform over [1e-30, 1e30] with
random signs, cuts a third of them to 1-16 significant digits (rows whose
trailing zeros are cut), and mixes zeros, subnormals and values past the
table into the same blocks.  Too many values for the tier-1 hypothesis
budget, so the tests do not collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/float_text_sweep.py [--values 4000000] [--seed 0]

Exits 1, printing the first mismatches, if any text differs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from fracnls.cli import _float_text
from test_cli import float_edge_values


def mismatches(values: np.ndarray) -> list[tuple[float, bytes, bytes]]:
    expected = [("%.17g" % v).encode() for v in values.tolist()]
    return [(v, got, want) for v, got, want in zip(values.tolist(), _float_text(values), expected) if got != want]


def random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)


def snapshot_like(rng: np.random.Generator, count: int) -> np.ndarray:
    values = 10.0 ** rng.uniform(-30, 30, count) * rng.choice([-1.0, 1.0], count)
    # to 1-16 significant digits: rounded at the place of the last kept digit
    place = np.floor(np.log10(np.abs(values))) + 1 - rng.integers(1, 17, count)
    scale = 10.0 ** np.abs(place)  # exact up to 1e22
    cut = np.where(place < 0, np.round(values * scale) / scale, np.round(values / scale) * scale)
    values = np.where(rng.random(count) < 1 / 3, cut, values)
    # one value in 50 a zero, a subnormal or past the table
    special = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf],
        rng.integers(1, 2**52, 64, dtype=np.uint64).view(np.float64),  # subnormals
        10.0 ** rng.uniform(-307, -270, 64), 10.0 ** rng.uniform(270, 308, 64),
    ])
    mixed = rng.random(count) < 1 / 50
    values[mixed] = rng.choice(special, mixed.sum()) * rng.choice([-1.0, 1.0], mixed.sum())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=4_000_000,
                        help="random bit patterns to check, and as many snapshot-like values")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    bad = []
    for values in (random_bits, snapshot_like):
        for start in range(0, args.values, 1 << 18):
            bad += mismatches(values(rng, min(1 << 18, args.values - start)))
    edges = float_edge_values()
    bad += mismatches(edges)
    print(f"{args.values} random bit patterns, {args.values} snapshot-like values and "
          f"{edges.size} edge values: {len(bad)} mismatches")
    for v, got, want in bad[:20]:
        print(f"  {v!r}: {got!r}, not {want!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
