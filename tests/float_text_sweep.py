"""Sweep the CSV float formatter against '%.17g' itself.

Random float64 bit patterns, in blocks, then the edge values of
``test_cli.float_edge_values``: every value's text from ``cli._float_text``
must equal ``('%.17g' % v).encode()``.  Too many values for the tier-1
hypothesis budget, so the tests do not collect this file.  Run from the
repository root:

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=4_000_000, help="random bit patterns to check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    bad = []
    for start in range(0, args.values, 1 << 18):
        count = min(1 << 18, args.values - start)
        bad += mismatches(rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64))
    edges = float_edge_values()
    bad += mismatches(edges)
    print(f"{args.values} random bit patterns and {edges.size} edge values: {len(bad)} mismatches")
    for v, got, want in bad[:20]:
        print(f"  {v!r}: {got!r}, not {want!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
