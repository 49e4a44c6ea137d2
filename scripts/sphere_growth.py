#!/usr/bin/env python3
"""Tabulate sphere sizes of the 17-move Cayley graph around the identity."""

import argparse
import resource
import time

from lampgrid import sphere_sizes
from lampgrid.metric import DEFAULT_MEMORY_LIMIT_MB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=5)
    parser.add_argument("--memory-limit-mb", type=int, default=DEFAULT_MEMORY_LIMIT_MB)
    args = parser.parse_args()

    start = time.perf_counter()
    sizes = sphere_sizes(args.radius, args.memory_limit_mb)
    elapsed = time.perf_counter() - start

    print(f"{'r':>3} {'|S(r)|':>10} {'|B(r)|':>10} {'ratio':>8}")
    total = 0
    for r, size in enumerate(sizes):
        total += size
        ratio = f"{size / sizes[r - 1]:.2f}" if r and sizes[r - 1] else "-"
        print(f"{r:>3} {size:>10} {total:>10} {ratio:>8}")
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"enumerated in {elapsed:.2f}s, peak RSS {peak_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
