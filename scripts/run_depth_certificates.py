#!/usr/bin/env python3
"""Prove the dead-end depth of the anchor family by the ball route, at desk scale.

For each n up to --max-n, proves depth(g_n) = 2n + 1 by two checks.  The
certificate certify_depth(n, 2n) must be certified: every element within
distance 2n of the n-th anchor keeps it inside the closed radius-6n ball,
so the depth exceeds 2n.  And the escape e = s^(2n+1), spelled by 2n + 1
letters, must take it out: exact_distance(e * g_n, 6n) must raise
RadiusExceeded, which it does on the proved half-plane bound.  As g_n is an
involution, |g_n * e^-1| = |e * g_n|, so the depth is at most 2n + 1.
Together: depth(g_n) = 2n + 1, with no search of the ball past radius 2n.
Prints one row per n with the time and the process's peak RSS so far,
optionally writes the certificates as JSON, and exits 1 when any check
disagrees.
"""

import argparse
import json
import resource
import time

from lampgrid import (
    METRIC,
    RadiusExceeded,
    a_length,
    certify_depth,
    evaluate,
    exact_distance,
    make_gn,
    multiply,
    parse,
    search_distance,
)
from lampgrid.metric import DEFAULT_MEMORY_LIMIT_MB


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def escapes(n: int, escape: str, memory_limit_mb: int) -> bool:
    """Whether ``escape``, in 2n + 1 letters, takes g_n out of its radius-6n ball."""
    word = parse(escape, METRIC)
    anchor, _ = make_gn(n)
    try:
        exact_distance(multiply(evaluate(word), anchor), 6 * n, memory_limit_mb)
    except RadiusExceeded:
        return a_length(word) == 2 * n + 1
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--out", default=None, help="write certificates to this JSON file")
    parser.add_argument("--memory-limit-mb", type=int, default=DEFAULT_MEMORY_LIMIT_MB)
    args = parser.parse_args()

    certificates = []
    print(
        f"{'n':>3} {'k':>3} {'checked':>9} {'6n':>4} {'verdict':>10} {'escape':>7}"
        f" {'secs':>7} {'peak MB':>8}"
    )
    for n in range(1, args.max_n + 1):
        k, escape = 2 * n, f"s^{2 * n + 1}"
        start = time.perf_counter()
        cert = certify_depth(n, k, memory_limit_mb=args.memory_limit_mb)
        escaped = escapes(n, escape, args.memory_limit_mb)
        elapsed = time.perf_counter() - start
        certificates.append(cert.to_json())
        print(
            f"{n:>3} {k:>3} {cert.neighborhood_size:>9} {cert.ball_radius:>4}"
            f" {cert.verdict:>10} {escape:>7} {elapsed:>7.2f} {peak_rss_mb():>8.1f}"
        )
        if cert.verdict != "certified":
            print(f"  certify_depth({n}, {k}) failed: depth(g_{n}) is not {k + 1}")
            return 1
        if not escaped:
            print(f"  {escape} keeps g_{n} within {6 * n}: depth(g_{n}) is not {k + 1}")
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
