#!/usr/bin/env python3
"""Regenerate ``h2_distances.txt``: the word length of every element of H_2.

H_2 holds 19 positions and 2^7 lamp sets on the seven lampstand points of
the radius-2 hexagon, 2432 elements in all.  The ``distance`` workload uses
the table only to draw the same number of queries at each distance on every
seed; the benchmark never takes an answer from it.  Distances up to 8 are
checked against ``ball_with_depths(8)`` here, the rest against the upper
bound of ``witness_word``.

    PYTHONPATH=src python3 perfbench/make_h2_table.py   # about 4 minutes
"""

from __future__ import annotations

from pathlib import Path

import lampgrid

from workloads import H2_POSITIONS, H2_STAND, h2_element

TABLE = Path(__file__).resolve().parent / "h2_distances.txt"


def main() -> int:
    ball = lampgrid.ball_with_depths(8)
    lines = [
        "# Word length of every element of H_2, one line per position.",
        "# Line: p q, then 128 hex digits; digit m is the length of the element",
        "# at (p, q) whose lamps are the points of H2_STAND picked by the bits",
        "# of m.  Written by make_h2_table.py from exact_distance(g, 12).",
    ]
    for pos in H2_POSITIONS:
        digits = []
        for mask in range(1 << len(H2_STAND)):
            g = h2_element(pos, mask)
            d = lampgrid.exact_distance(g, 12)
            if ball.get(g, d if d > 8 else None) != d:
                raise SystemExit(f"distance {d} of {g} disagrees with B(8)")
            if d > len(lampgrid.witness_word(g).letters):
                raise SystemExit(f"distance {d} of {g} exceeds its witness")
            digits.append(format(d, "x"))
        lines.append(f"{pos[0]} {pos[1]} {''.join(digits)}")
        print(lines[-1], flush=True)
    TABLE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
