"""Built-in invariant suites, runnable from the CLI and from the test suite.

Each suite is a function of no arguments (the seeded ones take only
``seed``, with a built-in default) that checks the model at one fixed
size and returns a one-line detail, or raises at the first offending
case.  :data:`SUITES` names every suite; :func:`run` times each one and
turns its outcome into a :class:`CheckResult`.  Where a suite pits the
production code against an oracle, the oracle here is an independent
route: Pascal rows grow by the additive recurrence, and witnesses are
replayed by evaluating their words, a route apart from the construction
that built them.  Suites raise explicitly rather than by ``assert``, so
they hold under ``python -O``.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .core import (
    Element,
    identity,
    inverse,
    multiply,
    press_effect,
)
from .metric import (
    RadiusExceeded,
    ball_with_depths,
    certify_depth,
    halfplane_bound,
    hex_param,
    in_hex,
    make_gn,
    search_distance,
    sphere_sizes,
    tour_lower_bound,
    witness_word,
)
from .words import (
    ACTIONS,
    METRIC,
    METRIC_BASES,
    RELATORS,
    SPLIT_LEFT,
    SPLIT_RIGHT,
    Letter,
    Word,
    a_length,
    act_runs,
    concat,
    evaluate,
    format_word,
    inverse_word,
    lampstand_points,
    merge_runs,
    move_elements,
    parse,
    random_element,
)

_A_ELEMENT = Element(frozenset({(0, 0)}), (0, 0))


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _check(condition: bool, message: str) -> None:
    # An explicit raise, unlike `assert`, still checks under `python -O`.
    if not condition:
        raise AssertionError(message)


def _run(name: str, body: Callable[[], str]) -> CheckResult:
    """Run one suite; any exception it raises fails that suite alone."""
    start = time.perf_counter()
    try:
        detail = body()
        ok = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        ok = False
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return CheckResult(name, ok, detail, time.perf_counter() - start)


def _random_states(count: int, seed) -> list[Element]:
    rng = random.Random(f"states:{seed}")
    return [random_element(rng.randint(1, 12), rng.random()) for _ in range(count)]


def check_relators(seed="relators") -> str:
    states = 1000
    for state in _random_states(states, seed):
        for name, runs in RELATORS.items():
            acted = act_runs(runs, state)
            _check(acted == state, f"relator {name} moved a state")
        left = act_runs(SPLIT_LEFT, state)
        right = act_runs(SPLIT_RIGHT, state)
        _check(left == right, "the two press-split spellings acted differently")
    return f"{states} states, {len(RELATORS)} relators, split identity"


def check_bilinearity() -> str:
    # The lampstand base case and the split relation together pin every
    # effect in the box, so this is an oracle independent of the closed form.
    span = 12
    for lamp in lampstand_points(span):
        _check(press_effect(lamp) == {lamp}, f"press at lamp {lamp} is not a singleton")
    for p in range(-span, span):
        for q in range(-span, span + 1):
            merged = press_effect((p, q)) ^ press_effect((p, q + 1))
            _check(press_effect((p + 1, q)) == merged, f"split failed at {(p, q)}")
    return (
        f"effect(p+1,q) == effect(p,q) xor effect(p,q+1) and single lamps on "
        f"the lampstand for |p|,|q| <= {span}"
    )


def _pascal_rows_additive(max_row: int) -> list[list[int]]:
    # Independent parity oracle: each row from the previous one by addition.
    rows = [[1]]
    for _ in range(max_row):
        prev = rows[-1]
        row = [1] + [(prev[i] + prev[i + 1]) % 2 for i in range(len(prev) - 1)] + [1]
        rows.append(row)
    return rows


def check_pascal() -> str:
    max_row, q_span = 16, 8
    rows = _pascal_rows_additive(max_row)
    for p in range(max_row + 1):
        expected_offsets = [r for r, bit in enumerate(rows[p]) if bit]
        for q in range(-q_span, q_span + 1):
            expected = frozenset((0, q + r) for r in expected_offsets)
            _check(press_effect((p, q)) == expected, f"row {p} mismatch at q={q}")
    return f"rows 0..{max_row} match the additive parity oracle for |q| <= {q_span}"


def _hex_points(n: int):
    for p in range(-n, n + 1):
        for q in range(-n, n + 1):
            if abs(p + q) <= n:
                yield (p, q)


def check_hexagon() -> str:
    max_n = 12
    for n in range(max_n + 1):
        for pos in _hex_points(n):
            for lamp in press_effect(pos):
                _check(in_hex(lamp, n), f"press at {pos} escapes the hexagon H_{n}")
    return f"press effects stay inside H_n for all n <= {max_n}"


def check_conjugates(seed="conjugates") -> str:
    samples = 150
    rng = random.Random(f"conj:{seed}")
    presses = []
    for _ in range(samples):
        if rng.random() < 0.5:
            i = -rng.randint(1, 10)
            text = f"s^{-i} a s^{i}"
        else:
            j = rng.randint(-10, 10)
            text = f"t^{-j} a t^{j}" if j else "a"
        presses.append(evaluate(parse(text, "presentation")))
    for _ in range(samples):
        x = rng.choice(presses)
        y = rng.choice(presses)
        _check(multiply(x, y) == multiply(y, x), "conjugate presses failed to commute")
    return f"{samples} sampled press conjugates pairwise commute"


def _random_metric_word(rng: random.Random, max_len: int) -> Word:
    letters = [
        Letter(rng.choice(METRIC_BASES), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return Word.from_letters(letters)


def _random_long_word(rng: random.Random) -> Word:
    # Up to 8 runs, mostly short, with long exponents mixed in.
    pairs = [
        (
            Letter(rng.choice(METRIC_BASES), rng.choice((1, -1))),
            rng.choice((1, 1, 2, 3, rng.randint(4, 60))),
        )
        for _ in range(rng.randint(0, 8))
    ]
    return Word(merge_runs(pairs))


def _fold_letters(letters, state: Element) -> Element:
    # Letter by letter from ACTIONS: the oracle of act_runs' whole-run steps.
    lamps = set(state.lamps)
    p, q = state.pos
    for letter in reversed(letters):
        before, (dp, dq), after = ACTIONS[letter]
        if before:
            lamps ^= press_effect((p, q))
        p += dp
        q += dq
        if after:
            lamps ^= press_effect((p, q))
    return Element(frozenset(lamps), (p, q))


def check_homomorphism(seed="hom") -> str:
    pairs, max_len = 500, 40
    rng = random.Random(f"hom:{seed}")
    for _ in range(pairs):
        u = _random_metric_word(rng, max_len)
        v = _random_metric_word(rng, max_len)
        _check(
            evaluate(concat(u, v)) == multiply(evaluate(u), evaluate(v)),
            "concatenation disagreed with multiply",
        )
        _check(
            evaluate(inverse_word(u)) == inverse(evaluate(u)),
            "word inversion disagreed with inverse",
        )
        w = concat(u, _random_long_word(rng))
        state = random_element(rng.randint(1, 12), rng.random())
        _check(
            act_runs(w.runs, state) == _fold_letters(w.letters, state),
            "the run fold disagreed with the letter fold",
        )
    return (
        f"{pairs} word pairs of length <= {max_len}; run fold matches the"
        " letter fold on words with runs up to 60"
    )


def check_word_roundtrip(seed="roundtrip") -> str:
    samples = 300
    rng = random.Random(f"rt:{seed}")
    for _ in range(samples):
        w = _random_metric_word(rng, 25)
        _check(parse(format_word(w), METRIC) == w, "format/parse failed to round-trip")
    relator_words = [Word(runs) for runs in RELATORS.values()]
    for _ in range(samples // 3):
        w = _random_metric_word(rng, 15)
        base = evaluate(w)
        cut = rng.randint(0, len(w.letters))
        insert = rng.choice(relator_words)
        spliced = Word.from_letters(w.letters[:cut] + insert.letters + w.letters[cut:])
        _check(evaluate(spliced) == base, "relator insertion changed the value")
    return f"{samples} round-trips, {samples // 3} relator insertions"


def check_witness(seed="witness") -> str:
    samples, max_hex, ball_radius = 500, 25, 4
    rng = random.Random(f"wit:{seed}")
    pool = [random_element(rng.randint(1, max_hex), rng.random()) for _ in range(samples)]
    pool.append(identity())
    for g in pool:
        witness = witness_word(g)
        _check(evaluate(witness) == g, "witness failed to replay")
        length = a_length(witness)
        _check(
            length == halfplane_bound(g) + (g == _A_ELEMENT),
            "witness is not at the half-plane bound",
        )
        _check(length <= 6 * hex_param(g), "witness exceeded the 6n bound")
    # the origin press is the single exception to the bound: its hexagon
    # parameter is 0 yet any spelling needs one letter
    lone = witness_word(_A_ELEMENT)
    _check(
        lone == parse("a", METRIC),
        "origin press should be the letter a",
    )
    depths = ball_with_depths(ball_radius)
    for g, depth in depths.items():
        witness = witness_word(g)
        _check(evaluate(witness) == g, "ball witness failed to replay")
        _check(a_length(witness) == depth, "ball witness is not a geodesic")
        _check(halfplane_bound(g) <= depth, "half-plane bound above the exact distance")
    return (
        f"{samples} random elements with hex <= {max_hex}"
        f" and all {len(depths)} elements of the radius-{ball_radius} ball"
        " (witnesses at the half-plane bound and within 6n, geodesic in the ball)"
    )


def check_tour() -> str:
    max_n = 50
    _check(tour_lower_bound(0) == 0, "tour bound is not 0 at n=0")
    for n in range(1, max_n + 1):
        got = tour_lower_bound(n)
        _check(got == 6 * n, f"tour bound {got} != {6 * n} at n={n}")
    return f"tour_lower_bound(n) == 6n for n <= {max_n}"


def check_gn_distance() -> str:
    max_n = 50
    for n in range(1, max_n + 1):
        element, word = make_gn(n)
        _check(a_length(word) == 6 * n, f"defining word length is not 6n at n={n}")
        _check(evaluate(word) == element, f"defining word failed to replay at n={n}")
    for n in (1, 2):
        anchor, _ = make_gn(n)
        _check(
            search_distance(anchor, 6 * n) == 6 * n,
            f"exhaustive search did not give {6 * n} at n={n}",
        )
    return f"length-6n words replay for n <= {max_n}; n=1, 2 distances are exactly 6n"


def check_depth() -> str:
    max_n = 4
    sizes = []
    for n in range(1, max_n + 1):
        certificate = certify_depth(n, n)
        _check(certificate.verdict == "certified", f"certification failed at n={n}")
        _check(
            certificate.max_witness_length <= 6 * n,
            f"certificate witness exceeded 6n at n={n}",
        )
        sizes.append(certificate.neighborhood_size)
    # the exact depth 2n+1: certified at k = 2n, failed one step further
    for n in (1, 2):
        inside, outside = certify_depth(n, 2 * n), certify_depth(n, 2 * n + 1)
        _check(
            inside.verdict == "certified"
            and (outside.verdict, outside.failure_witness) == ("failed", f"s^{2 * n + 1}"),
            f"dead-end depth of the n={n} anchor is not {2 * n + 1}",
        )
    # independent cross-check at n=1: by exhaustive bidirectional search,
    # every neighbour within distance 2 is inside the radius-6 ball, and
    # s^3 takes the anchor out of it
    anchor, _ = make_gn(1)
    for b in ball_with_depths(2):
        _check(
            search_distance(multiply(anchor, b), 6) <= 6,
            "a neighbour of the n=1 anchor left the radius-6 ball",
        )
    try:
        search_distance(multiply(evaluate(parse("s^3", METRIC)), anchor), 6)
    except RadiusExceeded:
        pass
    else:
        raise AssertionError("s^3 left the n=1 anchor inside the radius-6 ball")
    return (
        f"certified depth > n for n in 1..{max_n}; ball sizes {sizes};"
        " depth exactly 2n+1 for n in 1..2"
    )


def check_spheres() -> str:
    radius = 5
    moves = move_elements()
    _check(len(moves) == 17, f"move dedup found {len(moves)} distinct moves")
    sizes = sphere_sizes(radius)
    depths = list(ball_with_depths(radius).values())
    counted = [depths.count(r) for r in range(radius + 1)]
    _check(sizes == counted, f"sphere_sizes gave {sizes}, the ball's depths {counted}")
    _check(sizes[0] == 1 and sizes[1] == 17, f"first spheres are {sizes[:2]}")
    for r in range(1, radius + 1):
        _check(sizes[r] > sizes[r - 1], f"growth stalled at radius {r}")
    return f"sizes {sizes}, as the ball's depths count them; |S(1)| matches the 17-move oracle"


SUITES: dict[str, Callable[..., str]] = {
    "core-relators": check_relators,
    "core-bilinearity": check_bilinearity,
    "core-pascal": check_pascal,
    "core-hexagon": check_hexagon,
    "core-conjugates": check_conjugates,
    "words-homomorphism": check_homomorphism,
    "words-roundtrip": check_word_roundtrip,
    "metric-witness": check_witness,
    "metric-tour": check_tour,
    "metric-gn-distance": check_gn_distance,
    "metric-depth": check_depth,
    "metric-spheres": check_spheres,
}


def run(names=None, seed=None) -> list[CheckResult]:
    """Run the named suites (all by default); ``seed`` reseeds the random ones."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown selftest suite {name!r}")
        check = SUITES[name]
        if seed is not None and "seed" in inspect.signature(check).parameters:
            check = partial(check, seed=seed)
        results.append(_run(name, check))
    return results
