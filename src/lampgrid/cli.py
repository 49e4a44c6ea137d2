"""Command-line front end.

Subcommands: eval, render, mul, inv, dist, witness, tour, spheres,
certify-depth, selftest.  The flags --alphabet, --json, --max-radius,
--memory-limit-mb and --seed can also be supplied through environment
variables with the ``LAMPGRID_`` prefix (``LAMPGRID_MAX_RADIUS``, ...).
Explicit flags win, and a bad value is a usage error (exit 2).

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
    length_lower_bound,
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


def _alphabet(text: str) -> str:
    # argparse checks ``choices`` only on the command line, not on LAMPGRID_ALPHABET.
    if text not in (PRESENTATION, METRIC):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {PRESENTATION!r}, {METRIC!r})"
        )
    return text


def _word(args, name: str = "word") -> Element:
    return evaluate(parse(getattr(args, name), args.alphabet))


def _emit(args, data, *text) -> None:
    """Print ``data`` as one JSON line under ``--json``, else the text lines."""
    print(json.dumps(data) if args.json else "\n".join(map(str, text)))


def _print_element(args, el: Element) -> None:
    lamps = " ".join(f"({p},{q})" for p, q in sorted(el.lamps)) or "(none)"
    _emit(args, element_to_json(el), f"pos: ({el.pos[0]},{el.pos[1]})", f"lamps: {lamps}")


def cmd_eval(args) -> None:
    _print_element(args, _word(args))


def cmd_render(args) -> None:
    el = _word(args)
    lines = render_element(el, args.window)
    _emit(args, {"element": element_to_json(el), "lines": lines}, *lines)


def cmd_mul(args) -> None:
    _print_element(args, multiply(_word(args, "left"), _word(args, "right")))


def cmd_inv(args) -> None:
    _print_element(args, inverse(_word(args)))


def cmd_dist(args) -> None:
    distance = exact_distance(_word(args), args.max_radius, args.memory_limit_mb)
    _emit(args, {"distance": distance}, distance)


def cmd_witness(args) -> None:
    el = _word(args)
    witness = witness_word(el)
    length, n, lower = a_length(witness), hex_param(el), length_lower_bound(el)
    # A word that replays in the proved lower length is a geodesic.
    if length != lower or evaluate(witness) != el:
        raise RuntimeError(f"the witness word does not replay in {lower} letters")
    _emit(
        args,
        {"word": format_word(witness), "a_length": length, "bound": 6 * n, "hex_param": n},
        f"witness: {format_word(witness) or '(empty)'}",
        f"a-length: {length}   bound 6n: {6 * n}",
    )


def cmd_tour(args) -> None:
    check_coord(args.n, "n")
    result = tour_lower_bound(args.n)
    _emit(args, {"n": args.n, "tour_length": result}, result)


def cmd_spheres(args) -> None:
    sizes = sphere_sizes(args.radius, args.memory_limit_mb)
    _emit(args, {"sizes": sizes}, sizes)


def cmd_certify(args) -> int:
    if args.n < 1 or args.k < 0:
        print("usage error: require 1 <= n and 0 <= k", file=sys.stderr)
        return 2
    certificate = certify_depth(args.n, args.k, args.memory_limit_mb)
    data = certificate.to_json()
    _emit(args, data, json.dumps(data), certificate.describe())
    return 0 if certificate.verdict == "certified" else 1


def cmd_selftest(args) -> int:
    results = selftest.run(args.suite, seed=args.seed)
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"{status}  {result.name}  ({result.seconds:.2f}s)  {result.detail}")
    failed = sum(not result.ok for result in results)
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
    # Defaults are read when the parser is built, so each follows its
    # LAMPGRID_ variable and the cap follows metric.DEFAULT_MEMORY_LIMIT_MB.
    flags = {
        "--alphabet": dict(
            type=_alphabet, choices=(PRESENTATION, METRIC),
            default=_env("ALPHABET", PRESENTATION),
            help="alphabet for word arguments (default: presentation)",
        ),
        "--json": dict(action="store_true", default=_env_flag("JSON"), help="emit JSON output"),
        "--window": dict(
            type=int, help=f"half-width of the drawn window, at most {MAX_RENDER_WINDOW}"
        ),
        "--max-radius": dict(
            type=int, default=_env("MAX_RADIUS", 10),
            help="largest distance reported exactly; beyond it only a lower bound is reported",
        ),
        "--memory-limit-mb": dict(
            type=int, default=_env("MEMORY_LIMIT_MB", metric.DEFAULT_MEMORY_LIMIT_MB),
            help="memory cap, in MiB",
        ),
        "--suite": dict(
            action="append", choices=selftest.SUITES, metavar="NAME",
            help="run only the named suite (repeatable): %(choices)s",
        ),
        "--seed": dict(
            type=int, default=_env("SEED", None),
            help="reseed the randomized suites (default: built-in seeds)",
        ),
    }

    def command(name, func, text, names, **positionals):
        p = sub.add_parser(name, help=text)
        for arg, kind in positionals.items():
            p.add_argument(arg, type=kind)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    words = ("--alphabet", "--json")
    command("eval", cmd_eval, "evaluate a word to its normal form", words, word=str)
    command(
        "render", cmd_render, "evaluate a word and draw the state", (*words, "--window"), word=str
    )
    command(
        "mul", cmd_mul, "multiply two words (right factor acts first)", words, left=str, right=str
    )
    command("inv", cmd_inv, "invert a word", words, word=str)
    command(
        "dist", cmd_dist,
        "exact distance to the identity: the half-plane bound (1 for a),"
        " proved by a witness word of that length that is replayed, with no search",
        (*words, "--max-radius", "--memory-limit-mb"), word=str,
    )
    command(
        "witness", cmd_witness,
        "geodesic witness word, of length <= 6n, replayed before it is printed", words, word=str,
    )
    command(
        "tour", cmd_tour, "half-plane lower bound 6n on the length of the n-th anchor",
        ("--json",), n=int,
    )
    command(
        "spheres", cmd_spheres, "sphere sizes |S(0)|..|S(r)|",
        ("--memory-limit-mb", "--json"), radius=int,
    )
    command(
        "certify-depth", cmd_certify,
        "prove dead-end depth > k for the n-th anchor (exit 0), or <= k (exit 1);"
        " every neighbour is proved within 6n by a replayed word, or past it",
        ("--memory-limit-mb", "--json"), n=int, k=int,
    )
    command("selftest", cmd_selftest, "run the built-in invariant suites", ("--suite", "--seed"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A handler returns its exit code, or None on success.
        return args.func(args) or 0
    except WordError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RadiusExceeded, MemoryCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
