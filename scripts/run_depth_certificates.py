#!/usr/bin/env python3
"""Prove the dead-end depth of the anchor family by the ball route, at desk scale.

For each n up to --max-n, runs one certificate, certify_depth(n, 2n + 1),
and requires it to fail at the offset s^(2n+1).  The certificate searches
the ball in breadth-first order, so it reaches that offset, of length
2n + 1, only after every element within distance 2n of the n-th anchor
has kept it inside the closed radius-6n ball: the depth exceeds 2n.  And
the offset takes it out: the depth is at most 2n + 1.  Together:
depth(g_n) = 2n + 1.  Prints one row per n with the time and the process's
peak RSS so far, optionally writes the certificates as JSON, and exits 1
when any certificate disagrees.
"""

import argparse
import json
import resource
import time

from lampgrid import certify_depth, make_gn, search_distance
from lampgrid.metric import DEFAULT_MEMORY_LIMIT_MB


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--out", default=None, help="write certificates to this JSON file")
    parser.add_argument("--memory-limit-mb", type=int, default=DEFAULT_MEMORY_LIMIT_MB)
    args = parser.parse_args()

    certificates = []
    print(
        f"{'n':>3} {'k':>3} {'checked':>9} {'6n':>4} {'verdict':>10} {'offset':>7}"
        f" {'secs':>7} {'peak MB':>8}"
    )
    for n in range(1, args.max_n + 1):
        k = 2 * n + 1
        start = time.perf_counter()
        cert = certify_depth(n, k, memory_limit_mb=args.memory_limit_mb)
        elapsed = time.perf_counter() - start
        certificates.append(cert.to_json())
        print(
            f"{n:>3} {k:>3} {cert.neighborhood_size:>9} {cert.ball_radius:>4}"
            f" {cert.verdict:>10} {cert.failure_witness or '-':>7}"
            f" {elapsed:>7.2f} {peak_rss_mb():>8.1f}"
        )
        if (cert.verdict, cert.failure_witness) != ("failed", f"s^{k}"):
            print(f"  expected a failure at s^{k}: depth(g_{n}) is not {k}")
            return 1
    print(f"depth(g_n) = 2n + 1 proved for n = 1..{args.max_n}")

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
