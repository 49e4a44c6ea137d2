"""Built-in invariant suites, runnable from the CLI and from the test suite.

Each check returns a :class:`CheckResult`; a failure carries a short
description of the first offending case.  Where a check pits the
production code against an oracle, the oracle here is an independent
route: Pascal rows grow by the additive recurrence, the trapezoid is
cross-solved by dense GF(2) elimination, and witnesses are replayed by
evaluating their words, a route apart from the constructions that built
them.  Checks raise
explicitly rather than by ``assert``, so they hold under ``python -O``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .core import (
    Element,
    identity,
    inverse,
    multiply,
    press_effect,
)
from .metric import (
    ball_with_depths,
    certify_depth,
    halfplane_bound,
    hex_param,
    in_hex,
    make_gn,
    search_distance,
    tour_lower_bound,
    trapezoid_summits,
    witness_word,
)
from .words import (
    ACTIONS,
    METRIC,
    METRIC_BASES,
    PRESENTATION,
    RELATORS,
    SPLIT_LEFT,
    SPLIT_RIGHT,
    Letter,
    Word,
    a_length,
    act_runs,
    canonical_word,
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


def _random_states(count: int, seed, max_n: int = 12) -> list[Element]:
    rng = random.Random(f"states:{seed}")
    return [random_element(rng.randint(1, max_n), rng.random()) for _ in range(count)]


def check_relators(states: int = 1000, seed="relators") -> CheckResult:
    def body() -> str:
        for state in _random_states(states, seed):
            for name, runs in RELATORS.items():
                acted = act_runs(runs, state)
                _check(acted == state, f"relator {name} moved a state")
            left = act_runs(SPLIT_LEFT, state)
            right = act_runs(SPLIT_RIGHT, state)
            _check(left == right, "the two press-split spellings acted differently")
        return f"{states} states, {len(RELATORS)} relators, split identity"

    return _run("core-relators", body)


def check_bilinearity(span: int = 12) -> CheckResult:
    # The lampstand base case and the split relation together pin every
    # effect in the box, so this is an oracle independent of the closed form.
    def body() -> str:
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

    return _run("core-bilinearity", body)


def _pascal_rows_additive(max_row: int) -> list[list[int]]:
    # Independent parity oracle: each row from the previous one by addition.
    rows = [[1]]
    for _ in range(max_row):
        prev = rows[-1]
        row = [1] + [(prev[i] + prev[i + 1]) % 2 for i in range(len(prev) - 1)] + [1]
        rows.append(row)
    return rows


def check_pascal(max_row: int = 16, q_span: int = 8) -> CheckResult:
    def body() -> str:
        rows = _pascal_rows_additive(max_row)
        for p in range(max_row + 1):
            expected_offsets = [r for r, bit in enumerate(rows[p]) if bit]
            for q in range(-q_span, q_span + 1):
                expected = frozenset((0, q + r) for r in expected_offsets)
                _check(press_effect((p, q)) == expected, f"row {p} mismatch at q={q}")
        return f"rows 0..{max_row} match the additive parity oracle for |q| <= {q_span}"

    return _run("core-pascal", body)


def _hex_points(n: int):
    for p in range(-n, n + 1):
        for q in range(-n, n + 1):
            if abs(p + q) <= n:
                yield (p, q)


def check_hexagon(max_n: int = 12) -> CheckResult:
    def body() -> str:
        for n in range(max_n + 1):
            for pos in _hex_points(n):
                for lamp in press_effect(pos):
                    _check(in_hex(lamp, n), f"press at {pos} escapes the hexagon H_{n}")
        return f"press effects stay inside H_n for all n <= {max_n}"

    return _run("core-hexagon", body)


def check_conjugates(samples: int = 150, seed="conjugates") -> CheckResult:
    def body() -> str:
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

    return _run("core-conjugates", body)


def _random_metric_word(rng: random.Random, max_len: int) -> Word:
    letters = [
        Letter(rng.choice(METRIC_BASES), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return Word.from_letters(letters, METRIC)


def _random_long_word(rng: random.Random, max_runs: int) -> Word:
    # Mostly short runs, with long exponents mixed in.
    pairs = [
        (
            Letter(rng.choice(METRIC_BASES), rng.choice((1, -1))),
            rng.choice((1, 1, 2, 3, rng.randint(4, 60))),
        )
        for _ in range(rng.randint(0, max_runs))
    ]
    return Word(merge_runs(pairs), METRIC)


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


def check_homomorphism(pairs: int = 500, max_len: int = 40, seed="hom") -> CheckResult:
    def body() -> str:
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
            w = concat(u, _random_long_word(rng, 8))
            state = random_element(rng.randint(1, 12), rng.random())
            _check(
                act_runs(w.runs, state) == _fold_letters(w.letters, state),
                "the run fold disagreed with the letter fold",
            )
        return (
            f"{pairs} word pairs of length <= {max_len}; run fold matches the"
            " letter fold on words with runs up to 60"
        )

    return _run("words-homomorphism", body)


def check_word_roundtrip(samples: int = 300, seed="roundtrip") -> CheckResult:
    def body() -> str:
        rng = random.Random(f"rt:{seed}")
        for _ in range(samples):
            w = _random_metric_word(rng, 25)
            _check(parse(format_word(w), METRIC) == w, "format/parse failed to round-trip")
            g = random_element(rng.randint(1, 10), rng.random())
            _check(evaluate(canonical_word(g)) == g, "canonical word failed to replay")
        relator_words = [Word(runs, PRESENTATION) for runs in RELATORS.values()]
        for _ in range(samples // 3):
            w = _random_metric_word(rng, 15)
            base = evaluate(w)
            cut = rng.randint(0, len(w.letters))
            insert = rng.choice(relator_words)
            spliced = Word.from_letters(
                w.letters[:cut] + insert.letters + w.letters[cut:], METRIC
            )
            _check(evaluate(spliced) == base, "relator insertion changed the value")
        return f"{samples} round-trips, {samples // 3} relator insertions"

    return _run("words-roundtrip", body)


def _dense_gf2_solve(matrix: list[list[int]], rhs: list[int]) -> list[int] | None:
    # Plain row elimination over nested lists; oracle route for the trapezoid.
    m = len(rhs)
    cols = len(matrix[0]) if matrix else 0
    rows = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    pivot_of: list[int | None] = [None] * cols
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        pivot_of[c] = r
        r += 1
    for i in range(r, m):
        if rows[i][cols]:
            return None
    out = [0] * cols
    for c, pivot in enumerate(pivot_of):
        if pivot is not None:
            out[c] = rows[pivot][cols]
    return out


def check_trapezoid(max_m: int = 10) -> CheckResult:
    def body() -> str:
        instances = 0
        for m in range(1, max_m + 1):
            for pattern in range(1 << m):
                bits = [(pattern >> i) & 1 for i in range(m)]
                for rows in range(1, m + 1):
                    instances += 1
                    solution = trapezoid_summits(bits, rows)
                    cells = [
                        (lev, u) for lev in range(rows) for u in range(m - lev)
                        if lev == rows - 1 or u == 0
                    ]
                    matrix = []
                    for j in range(m):
                        matrix.append(
                            [1 if (0, j) in press_effect((lev, u)) else 0 for lev, u in cells]
                        )
                    solved = _dense_gf2_solve(matrix, bits)
                    _check(
                        solved is not None,
                        f"oracle found no solution (m={m}, r={rows})",
                    )
                    oracle = frozenset(c for c, x in zip(cells, solved) if x)
                    _check(solution.summits == oracle, f"summits differ (m={m}, r={rows})")
                    replay: set = set()
                    for lev, u in solution.summits:
                        replay ^= press_effect((lev, u))
                    expected = {(0, j) for j in range(m) if bits[j]}
                    _check(replay == expected, f"replay mismatch (m={m}, r={rows})")
        return f"{instances} instances, elimination oracle and press replay agree"

    return _run("metric-trapezoid", body)


def check_witness(
    samples: int = 500, max_hex: int = 25, ball_radius: int = 4, seed="witness"
) -> CheckResult:
    def body() -> str:
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

    return _run("metric-witness", body)


def check_tour(max_n: int = 50) -> CheckResult:
    def body() -> str:
        _check(tour_lower_bound(0) == 0, "tour bound is not 0 at n=0")
        for n in range(1, max_n + 1):
            got = tour_lower_bound(n)
            _check(got == 6 * n, f"tour bound {got} != {6 * n} at n={n}")
        return f"tour_lower_bound(n) == 6n for n <= {max_n}"

    return _run("metric-tour", body)


def check_gn_distance(max_n: int = 50) -> CheckResult:
    def body() -> str:
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

    return _run("metric-gn-distance", body)


def check_depth(max_n: int = 4) -> CheckResult:
    def body() -> str:
        sizes = []
        for n in range(1, max_n + 1):
            certificate = certify_depth(n, n)
            _check(certificate.verdict == "certified", f"certification failed at n={n}")
            _check(
                certificate.max_witness_length <= 6 * n,
                f"certificate witness exceeded 6n at n={n}",
            )
            sizes.append(certificate.neighborhood_size)
        # independent cross-check at n=1: every actual neighbour is inside
        # the radius-6 ball by exhaustive bidirectional search
        anchor, _ = make_gn(1)
        for b in ball_with_depths(1):
            _check(
                search_distance(multiply(anchor, b), 6) <= 6,
                "a neighbour of the n=1 anchor left the radius-6 ball",
            )
        return f"certified depth > n for n in 1..{max_n}; ball sizes {sizes}"

    return _run("metric-depth", body)


def check_spheres(radius: int = 5) -> CheckResult:
    def body() -> str:
        moves = move_elements()
        _check(len(moves) == 17, f"move dedup found {len(moves)} distinct moves")
        depths = ball_with_depths(radius)
        spheres: list[set] = [set() for _ in range(radius + 1)]
        for element, depth in depths.items():
            spheres[depth].add(element)
        total = sum(len(s) for s in spheres)
        _check(total == len(depths), "an element landed in two spheres")
        sizes = [len(s) for s in spheres]
        _check(sizes[0] == 1 and sizes[1] == 17, f"first spheres are {sizes[:2]}")
        for r in range(1, radius + 1):
            _check(sizes[r] > sizes[r - 1], f"growth stalled at radius {r}")
        return f"sizes {sizes}; disjoint spheres; |S(1)| matches the 17-move oracle"

    return _run("metric-spheres", body)


SUITES: dict[str, Callable[[], CheckResult]] = {
    "core-relators": check_relators,
    "core-bilinearity": check_bilinearity,
    "core-pascal": check_pascal,
    "core-hexagon": check_hexagon,
    "core-conjugates": check_conjugates,
    "words-homomorphism": check_homomorphism,
    "words-roundtrip": check_word_roundtrip,
    "metric-trapezoid": check_trapezoid,
    "metric-witness": check_witness,
    "metric-tour": check_tour,
    "metric-gn-distance": check_gn_distance,
    "metric-depth": check_depth,
    "metric-spheres": check_spheres,
}

_SEEDED = {
    "core-relators",
    "core-conjugates",
    "words-homomorphism",
    "words-roundtrip",
    "metric-witness",
}


def run(names=None, seed=None) -> list[CheckResult]:
    """Run the named suites (all by default); ``seed`` reseeds the random ones."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown selftest suite {name!r}")
        check = SUITES[name]
        if seed is not None and name in _SEEDED:
            results.append(check(seed=seed))
        else:
            results.append(check())
    return results
