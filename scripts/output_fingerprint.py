#!/usr/bin/env python3
"""Print the outputs a refactor must keep byte-identical.

Run it on two checkouts and compare the results:

    PYTHONPATH=src python3 scripts/output_fingerprint.py > after.txt
    diff before.txt after.txt

It prints sphere sizes, depth certificates as ``certify-depth n n --json``
prints them, and the failed ones of ``certify-depth n 2n+1 --json``, one
past the anchor's depth, so both verdicts are pinned; the witness word
and exact distance of every element of a ball (each element named by its
canonical word), and the stdout, stderr
and exit code of the CLI's word commands on a fixed list of words in both
alphabets, malformed ones included.  ``--quick`` uses a
smaller radius and fewer anchors, so that the test suite can run it in a
few seconds.
"""

import argparse
import contextlib
import io

from lampgrid import (
    ball_with_depths,
    canonical_word,
    exact_distance,
    format_word,
    sphere_sizes,
    witness_word,
)
from lampgrid.cli import main as cli_main

# (alphabet, word text): well-formed words of several shapes, then
# malformed ones, which must keep their messages and exit codes.
WORDS = (
    ("presentation", ""),
    ("presentation", "a"),
    ("presentation", "a a"),
    ("presentation", "s s^-1"),
    ("presentation", "t^-3"),
    ("presentation", "asTa"),
    ("presentation", "s a s^-1 t a t^-2 a t"),
    ("presentation", "t^3 a s^-2 a t"),
    ("presentation", "s^2 a t^-1 a s^-3 a t^2"),
    ("presentation", "a s^-4 a t^5 a"),
    ("presentation", "s^-3 t a t^-2 a"),
    ("presentation", "s^40 a s^-40 t^7 a^3"),
    ("presentation", "x"),
    ("presentation", "sa t"),
    ("presentation", "s^two"),
    ("presentation", "s^99999999999"),
    ("metric", ""),
    ("metric", "a"),
    ("metric", "sa t^-2"),
    ("metric", "at ta ata"),
    ("metric", "asa^-1 s^3"),
    ("metric", "at^-1 s^-2 ta"),
    ("metric", "t^2 asa t^-1 sa^-3"),
    ("metric", "s^5 ata^2 t^-4 a^-1"),
    ("metric", "q"),
    ("metric", "s^"),
    ("metric", "a^1.5"),
)

# Word commands, each run with every word in place of WORD.
COMMANDS = (
    ("eval", "WORD"),
    ("eval", "WORD", "--json"),
    ("inv", "WORD"),
    ("inv", "WORD", "--json"),
    ("mul", "WORD", "s a t^-1", "--json"),
    ("witness", "WORD"),
    ("witness", "WORD", "--json"),
    ("dist", "WORD"),
    ("dist", "WORD", "--json", "--max-radius", "4"),
)


def cli(argv: list[str]) -> str:
    """One CLI run in-process, as its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"exit {code}\nstdout {out.getvalue()!r}\nstderr {err.getvalue()!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller radius and anchors")
    args = parser.parse_args()
    sphere_radius, max_n, max_failed_n, ball_radius = (
        (6, 4, 1, 3) if args.quick else (8, 6, 2, 5)
    )

    print(f"# sphere sizes r <= {sphere_radius}")
    print(sphere_sizes(sphere_radius))

    print(
        f"# certify-depth --json: n n for n <= {max_n}, then n 2n+1 for n <= {max_failed_n}"
    )
    for n in range(1, max_n + 1):
        print(cli(["certify-depth", str(n), str(n), "--json"]))
    for n in range(1, max_failed_n + 1):
        print(cli(["certify-depth", str(n), str(2 * n + 1), "--json"]))

    print(f"# B({ball_radius}): canonical word | witness_word | exact_distance")
    for g in ball_with_depths(ball_radius):
        print(
            f"{format_word(canonical_word(g))} | {format_word(witness_word(g))}"
            f" | {exact_distance(g, 6 * ball_radius + 1)}"
        )

    print("# CLI word commands")
    for alphabet, word in WORDS:
        for command in COMMANDS:
            argv = [word if arg == "WORD" else arg for arg in command]
            print(f"$ lampgrid {' '.join(map(repr, argv))} --alphabet {alphabet}")
            print(cli(argv + ["--alphabet", alphabet]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
