#!/usr/bin/env python3
"""Produce dead-end depth certificates for the anchor family at desk scale.

For each n up to --max-n, certifies that every element within distance n
of the n-th anchor stays inside the closed radius-6n ball, i.e. that the
anchor's dead-end depth exceeds n.  Writes the certificates as JSON and
prints a summary table.
"""

import argparse
import json
import time

from lampgrid import certify_depth, make_gn, search_distance
from lampgrid.metric import DEFAULT_MEMORY_LIMIT_MB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--out", default=None, help="write certificates to this JSON file")
    parser.add_argument("--memory-limit-mb", type=int, default=DEFAULT_MEMORY_LIMIT_MB)
    args = parser.parse_args()

    certificates = []
    print(f"{'n':>3} {'checked':>8} {'max witness':>12} {'6n':>5} {'verdict':>10} {'secs':>7}")
    for n in range(1, args.max_n + 1):
        start = time.perf_counter()
        cert = certify_depth(n, n, memory_limit_mb=args.memory_limit_mb)
        elapsed = time.perf_counter() - start
        certificates.append(cert.to_json())
        print(
            f"{n:>3} {cert.neighborhood_size:>8}"
            f" {cert.max_witness_length:>12} {cert.ball_radius:>5} {cert.verdict:>10} {elapsed:>7.2f}"
        )
        if cert.verdict != "certified":
            print(f"  FAILED at offset {cert.failure_witness}")
            return 1

    anchor, _ = make_gn(1)
    # An explicit check, unlike `assert`, still runs under `python -O`.
    if search_distance(anchor, 6) != 6:
        print("n=1 anchor distance is not 6 by bidirectional search")
        return 1
    print("n=1 anchor distance confirmed exactly 6 by bidirectional search")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(certificates, handle, indent=2)
        print(f"wrote {len(certificates)} certificates to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
