"""Command-line front end.

Subcommands: eval, render, mul, inv, dist, witness, tour, spheres,
certify-depth, selftest.  Every flag can also be supplied through an
environment variable with the ``LAMPGRID_`` prefix (``LAMPGRID_SEED``,
``LAMPGRID_MAX_RADIUS``, ...); explicit flags win.

Exit codes: 0 success, 1 domain error (bad word, search or memory limits,
render window) or a failed depth certificate, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import Element, check_coord, element_to_json, inverse, is_lampstand, multiply
from .metric import (
    MemoryCapExceeded,
    RadiusExceeded,
    certify_depth,
    exact_distance,
    hex_param,
    sphere_sizes,
    tour_lower_bound,
    witness_word,
)
from .words import METRIC, PRESENTATION, WordError, a_length, evaluate, format_word, parse
from . import metric, selftest

ENV_PREFIX = "LAMPGRID_"

# Largest half-width `render` draws: (2w + 1)^2 cells, about 10^6 at 500.
MAX_RENDER_WINDOW = 500


def _env(name: str, fallback):
    # Raw text: argparse applies the option's type, so a bad value exits 2.
    return os.environ.get(ENV_PREFIX + name) or fallback


def _env_flag(name: str) -> bool:
    raw = os.environ.get(ENV_PREFIX + name, "")
    return raw.lower() not in ("", "0", "false", "no")


def _print_element(el: Element, as_json: bool) -> None:
    if as_json:
        print(json.dumps(element_to_json(el)))
    else:
        lamps = " ".join(f"({p},{q})" for p, q in sorted(el.lamps)) or "(none)"
        print(f"pos: ({el.pos[0]},{el.pos[1]})")
        print(f"lamps: {lamps}")


def cmd_eval(args) -> int:
    _print_element(evaluate(parse(args.word, args.alphabet)), args.json)
    return 0


def cmd_render(args) -> int:
    el = evaluate(parse(args.word, args.alphabet))
    lines = render_element(el, args.window)
    if args.json:
        print(json.dumps({"element": element_to_json(el), "lines": lines}))
    else:
        print("\n".join(lines))
    return 0


def cmd_mul(args) -> int:
    left = evaluate(parse(args.left, args.alphabet))
    right = evaluate(parse(args.right, args.alphabet))
    _print_element(multiply(left, right), args.json)
    return 0


def cmd_inv(args) -> int:
    _print_element(inverse(evaluate(parse(args.word, args.alphabet))), args.json)
    return 0


def cmd_dist(args) -> int:
    el = evaluate(parse(args.word, args.alphabet))
    distance = exact_distance(el, args.max_radius, args.memory_limit_mb)
    print(json.dumps({"distance": distance}) if args.json else distance)
    return 0


def cmd_witness(args) -> int:
    el = evaluate(parse(args.word, args.alphabet))
    witness = witness_word(el)
    if evaluate(witness) != el:
        raise RuntimeError("the witness word does not replay")
    length = a_length(witness)
    bound = 6 * hex_param(el)
    if args.json:
        print(json.dumps({
            "word": format_word(witness),
            "a_length": length,
            "bound": bound,
            "hex_param": hex_param(el),
        }))
    else:
        print(f"witness: {format_word(witness) or '(empty)'}")
        print(f"a-length: {length}   bound 6n: {bound}")
    return 0


def cmd_tour(args) -> int:
    check_coord(args.n, "n")
    result = tour_lower_bound(args.n)
    print(json.dumps({"n": args.n, "tour_length": result}) if args.json else result)
    return 0


def cmd_spheres(args) -> int:
    sizes = sphere_sizes(args.radius, args.memory_limit_mb)
    print(json.dumps({"sizes": sizes}) if args.json else sizes)
    return 0


def cmd_certify(args) -> int:
    if args.n < 1 or args.k < 0:
        print("usage error: require 1 <= n and 0 <= k", file=sys.stderr)
        return 2
    certificate = certify_depth(args.n, args.k, args.memory_limit_mb)
    print(json.dumps(certificate.to_json()))
    if not args.json:
        print(certificate.describe())
    return 0 if certificate.verdict == "certified" else 1


def cmd_selftest(args) -> int:
    names = args.suite or None
    results = selftest.run(names, seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"{status}  {result.name}  ({result.seconds:.2f}s)  {result.detail}")
        failed += 0 if result.ok else 1
    if failed:
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 1
    return 0


def render_element(el: Element, window: int | None = None) -> list[str]:
    """ASCII window around the origin covering the element's hexagon.

    Orientation: t increases to the right, s increases upward.  The
    rhombic slant is not drawn; positions land on a square grid.  Raises
    ``ValueError`` on a negative window and on one, given or implied by
    the element, whose half-width exceeds ``MAX_RENDER_WINDOW``.
    """
    if window is not None and window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    n = window if window is not None else max(hex_param(el), 2)
    if n > MAX_RENDER_WINDOW:
        raise ValueError(f"window {n} exceeds the render limit {MAX_RENDER_WINDOW}")
    lines = []
    outside = sum(1 for lamp in el.lamps if max(abs(lamp[0]), abs(lamp[1])) > n)
    for p in range(n, -n - 1, -1):
        row = []
        for q in range(-n, n + 1):
            pos = (p, q)
            ch = "."
            if is_lampstand(pos):
                ch = "o"
            if pos in el.lamps:
                ch = "*"
            if pos == el.pos:
                ch = "@" if pos in el.lamps else "L"
            row.append(ch)
        lines.append(" ".join(row))
    lines.append("")
    lines.append("L lamplighter   * lit lamp   @ lamplighter on lit lamp")
    lines.append("o dark lamp     . off-lampstand grid point")
    lines.append(f"rows: s = {n}..{-n} top to bottom; columns: t = {-n}..{n}")
    if outside:
        lines.append(f"({outside} lit lamp(s) outside this window)")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lampgrid",
        description=(
            "Exact computations in a lamplighter-style group on a rhombic grid. "
            "Words are read right to left; the compound letter 'at' steps in t "
            "and then presses, 'ta' presses and then steps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def memory_cap(p):
        # Read at parse time, so the cap follows metric.DEFAULT_MEMORY_LIMIT_MB.
        p.add_argument(
            "--memory-limit-mb", type=int,
            default=_env("MEMORY_LIMIT_MB", metric.DEFAULT_MEMORY_LIMIT_MB),
            help="memory cap for the search, in MiB",
        )

    def common(p, word_args=()):
        for name in word_args:
            p.add_argument(name)
        p.add_argument(
            "--alphabet",
            choices=(PRESENTATION, METRIC),
            default=_env("ALPHABET", PRESENTATION),
            help="alphabet for word arguments (default: presentation)",
        )
        p.add_argument(
            "--json", action="store_true", default=_env_flag("JSON"),
            help="emit JSON output",
        )

    p = sub.add_parser("eval", help="evaluate a word to its normal form")
    common(p, ("word",))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="evaluate a word and draw the state")
    common(p, ("word",))
    p.add_argument("--window", type=int, default=None, help=f"half-width of the drawn window, at most {MAX_RENDER_WINDOW}")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("mul", help="multiply two words (right factor acts first)")
    common(p, ("left", "right"))
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", help="invert a word")
    common(p, ("word",))
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser(
        "dist",
        help="exact distance to the identity: the half-plane bound (1 for a),"
        " proved by a witness word of that length that is replayed, with no search",
    )
    common(p, ("word",))
    p.add_argument(
        "--max-radius", type=int, default=_env("MAX_RADIUS", 10),
        help="search radius; beyond it only a lower bound is reported",
    )
    memory_cap(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "witness", help="geodesic witness word, of length <= 6n, replayed before it is printed"
    )
    common(p, ("word",))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("tour", help="half-plane lower bound 6n on the length of the n-th anchor")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("spheres", help="sphere sizes |S(0)|..|S(r)|")
    p.add_argument("radius", type=int)
    memory_cap(p)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))
    p.set_defaults(func=cmd_spheres)

    p = sub.add_parser(
        "certify-depth",
        help="prove dead-end depth > k for the n-th anchor (exit 0), or <= k (exit 1);"
        " every neighbour is proved within 6n by a replayed word, or past it",
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    memory_cap(p)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--suite", action="append", help="run only the named suite (repeatable)")
    p.add_argument(
        "--seed", type=int, default=_env("SEED", None),
        help="reseed the randomized suites (default: built-in seeds)",
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WordError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RadiusExceeded, MemoryCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
