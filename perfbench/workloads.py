"""The four workloads: inputs made from a seed, the timed operations, the checks.

Inputs come from the benchmark's own ``random.Random(seed)`` and reach the
package only through its fixed JSON element schema, so a change to the
package cannot change a workload.  ``run`` is the timed region; ``check``
runs after it and tests every output by a route other than the one timed.
Each returns plain data, so the same functions serve the benchmark and its
tests.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# |S(0)|, ..., |S(8)| of the 17-move Cayley graph.
SPHERES = (1, 17, 70, 240, 722, 2000, 5234, 13136, 31940)

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is for
# the benchmark's own tests.
SIZES = {
    "full": {
        "certify": {"n": 6},
        "spheres": {"radius": 8},
        # Queries drawn at each distance 0..11, then the ball oracle radius.
        # The median falls mid-way through distance 7 and the tail inside
        # distance 9; few of the costly distances 10 and 11 keep a
        # repetition short, so a run holds several.
        "distance": {
            "quota": (1, 3, 3, 3, 6, 10, 13, 20, 17, 12, 4, 1),
            "oracle_radius": 8,
            "anchor": 2,
        },
        "hexagon": {"n": 96, "count": 96},
    },
    "tiny": {
        "certify": {"n": 2},
        "spheres": {"radius": 3},
        "distance": {"quota": (1, 2, 2, 2, 2), "oracle_radius": 4, "anchor": 1},
        "hexagon": {"n": 4, "count": 12},
    },
}

# The radius-2 hexagon, in the order of the rows and digits of h2_distances.txt.
H2_POSITIONS = tuple(
    (p, q) for p in range(-2, 3) for q in range(-2, 3) if abs(p + q) <= 2
)
H2_STAND = ((-2, 0), (-1, 0), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2))


def element_json(lamps, pos) -> dict:
    """The package's fixed JSON form of an element."""
    return {"lamps": [list(lamp) for lamp in sorted(lamps)], "pos": list(pos)}


def h2_element(pos, mask: int):
    import lampgrid

    lamps = [pt for i, pt in enumerate(H2_STAND) if mask >> i & 1]
    return lampgrid.element_from_json(element_json(lamps, pos))


def anchor_json(n: int) -> dict:
    """The triple-lamp element g_n, written out independently of ``make_gn``."""
    return element_json([(-n, 0), (0, n), (0, -n)], (0, 0))


def lampstand(n: int) -> list:
    return [(-i, 0) for i in range(n, 0, -1)] + [(0, j) for j in range(-n, n + 1)]


def _failed_unless(ok: bool, ops: int) -> int:
    return 0 if ok else ops


# --- certify ---------------------------------------------------------------


def certify_inputs(seed: int, size: dict) -> dict:
    # The job is fixed by n; the seed has nothing to vary.
    n = size["n"]
    return {"n": n, "ops": sum(SPHERES[: n + 1])}


def certify_run(lg, inputs: dict) -> dict:
    n = inputs["n"]
    start = time.perf_counter()
    try:
        out = lg.certify_depth(n, n)
    except Exception as exc:  # an unexpected raise is a failed run, not a crash
        out = exc
    busy = time.perf_counter() - start
    return {"ops": inputs["ops"], "busy_s": busy, "latencies": None, "out": out}


def certify_check(lg, inputs: dict, result: dict) -> int:
    n, cert = inputs["n"], result["out"]
    ok = (
        not isinstance(cert, Exception)
        and cert.verdict == "certified"
        and (cert.n, cert.k, cert.ball_radius) == (n, n, 6 * n)
        and cert.neighborhood_size == inputs["ops"]
        and cert.max_witness_length == 6 * n
    )
    return _failed_unless(ok, inputs["ops"])


# --- spheres ---------------------------------------------------------------


def spheres_inputs(seed: int, size: dict) -> dict:
    r = size["radius"]
    return {"radius": r, "ops": sum(SPHERES[: r + 1])}


def spheres_run(lg, inputs: dict) -> dict:
    start = time.perf_counter()
    try:
        out = lg.sphere_sizes(inputs["radius"])
    except Exception as exc:
        out = exc
    busy = time.perf_counter() - start
    return {"ops": inputs["ops"], "busy_s": busy, "latencies": None, "out": out}


def spheres_check(lg, inputs: dict, result: dict) -> int:
    ok = result["out"] == list(SPHERES[: inputs["radius"] + 1])
    return _failed_unless(ok, inputs["ops"])


# --- distance --------------------------------------------------------------


def load_h2_table() -> dict:
    """Map (position, lamp mask) of H_2 to its word length."""
    table = {}
    for line in (HERE / "h2_distances.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        p, q, digits = line.split()
        for mask, digit in enumerate(digits):
            table[(int(p), int(q)), mask] = int(digit, 16)
    return table


def distance_inputs(seed: int, size: dict) -> dict:
    """The same number of queries at each distance on every seed.

    Query cost grows about 2.5-fold per unit of distance, so a free draw
    from H_2 moves the median and tail by the luck of the draw.  The table
    fixes how many queries fall at each distance; the seed picks which.
    The anchor g_n, queried one step short of its length 6n, ends the list.
    """
    import lampgrid

    rng = random.Random(seed)
    by_distance: dict[int, list] = {}
    for key, d in sorted(load_h2_table().items()):
        by_distance.setdefault(d, []).append(key)
    picked = []
    for d, count in enumerate(size["quota"]):
        picked += [(key, d) for key in rng.sample(by_distance[d], count)]
    rng.shuffle(picked)
    queries = [(h2_element(pos, mask), 12, d) for (pos, mask), d in picked]
    n = size["anchor"]
    queries.append((lampgrid.element_from_json(anchor_json(n)), 6 * n - 1, None))
    return {"queries": queries, "oracle_radius": size["oracle_radius"], "ops": len(queries)}


def distance_run(lg, inputs: dict) -> dict:
    answers, latencies = [], []
    clock = time.perf_counter
    for g, max_r, _ in inputs["queries"]:
        start = clock()
        try:
            answer = lg.exact_distance(g, max_r)
        except lg.RadiusExceeded as exc:
            answer = ("exceeded", exc.max_radius)
        except Exception as exc:
            answer = exc
        latencies.append(clock() - start)
        answers.append(answer)
    return {"ops": len(answers), "busy_s": sum(latencies), "latencies": latencies, "out": answers}


def distance_oracle(lg, inputs: dict) -> list:
    """Each query's one-sided depth in ``ball_with_depths``, None outside it."""
    ball = lg.ball_with_depths(inputs["oracle_radius"])
    return [ball.get(g) for g, _, _ in inputs["queries"]]


def distance_check(lg, inputs: dict, result: dict) -> int:
    """Exact against the one-sided depths of a ball; bounded by the witness.

    A query inside the ball must return its depth there; one outside must
    return more than the ball's radius.  No answer may exceed the length
    of ``witness_word``.  The anchor must raise ``RadiusExceeded``.  The
    ball's depths are computed here unless ``inputs["oracle"]`` already
    holds them, from an earlier repetition on the same inputs; either way
    they are left there.
    """
    radius = inputs["oracle_radius"]
    if "oracle" not in inputs:
        inputs["oracle"] = distance_oracle(lg, inputs)
    failed = 0
    for (g, max_r, drawn), answer, inside in zip(
        inputs["queries"], result["out"], inputs["oracle"]
    ):
        if drawn is None:
            ok = answer == ("exceeded", max_r) and inside is None
        elif isinstance(answer, int) and not isinstance(answer, bool):
            ok = (answer == inside if inside is not None else answer > radius) and (
                answer <= lg.a_length(lg.witness_word(g))
            )
        else:
            ok = False
        failed += not ok
    return failed


# --- hexagon ---------------------------------------------------------------


def _power(base: str, exponent: int) -> list:
    if exponent == 0:
        return []
    return [base if exponent == 1 else f"{base}^{exponent}"]


def presentation_text(lamps, pos) -> str:
    """Presentation text for the element with ``lamps`` lit at ``pos``.

    Read right to left, each lamp gets an excursion from the origin along
    its axis with one press on the lampstand, then the final translation.
    """
    tokens = _power("s", pos[0]) + _power("t", pos[1])
    for lp, lq in lamps:
        if lq == 0 and lp < 0:
            tokens += _power("s", -lp) + ["a"] + _power("s", lp)
        else:
            tokens += _power("t", -lq) + ["a"] + _power("t", lq)
    return " ".join(tokens)


def hexagon_inputs(seed: int, size: dict) -> dict:
    """Elements of H_n, an equal share from each of the hexagon's six sectors.

    The sectors split the positions between the three witness plans (1/6
    lower triangle, 2/6 trapezoid, 3/6 GF(2) arc), so every seed loads the
    plans alike.  Each lampstand point of H_n is lit with probability 1/4.
    """
    n, count = size["n"], size["count"]
    rng = random.Random(seed)
    corners = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    stand = lampstand(n)
    items = []
    for i in range(count):
        u, v = corners[i % 6], corners[(i + 1) % 6]
        while True:
            a, b = rng.randint(0, n), rng.randint(0, n)
            if a + b <= n:
                break
        pos = (a * u[0] + b * v[0], a * u[1] + b * v[1])
        lamps = [pt for pt in stand if rng.random() < 0.25]
        rng.shuffle(lamps)
        items.append((presentation_text(lamps, pos), element_json(lamps, pos)))
    rng.shuffle(items)
    return {"n": n, "items": items, "ops": count + 1}


def hexagon_run(lg, inputs: dict) -> dict:
    """``tour_lower_bound(n)`` once, then one witness round trip per text."""
    try:
        tour = lg.tour_lower_bound(inputs["n"])
    except Exception as exc:
        tour = exc
    outs, latencies = [], []
    clock = time.perf_counter
    for text, _ in inputs["items"]:
        start = clock()
        try:
            g = lg.evaluate(lg.parse(text, lg.PRESENTATION))
            witness = lg.witness_word(g)
            replay = lg.evaluate(lg.parse(lg.format_word(witness), lg.METRIC))
            out = (g, witness, replay)
        except Exception as exc:
            out = exc
        latencies.append(clock() - start)
        outs.append(out)
    return {
        "ops": len(outs),
        "busy_s": sum(latencies),
        "latencies": latencies,
        "out": (tour, outs),
    }


def hexagon_check(lg, inputs: dict, result: dict) -> int:
    """The text evaluates to the element it was written from, the witness
    has length at most 6n and replays to it exactly, and the tour is 6n."""
    n = inputs["n"]
    tour, outs = result["out"]
    failed = int(tour != 6 * n)
    for (_, expected), out in zip(inputs["items"], outs):
        ok = (
            not isinstance(out, Exception)
            and lg.element_to_json(out[0]) == expected
            and lg.element_to_json(out[2]) == expected
            and lg.a_length(out[1]) <= 6 * n
        )
        failed += not ok
    return failed


WORKLOADS = {
    "certify": (certify_inputs, certify_run, certify_check),
    "spheres": (spheres_inputs, spheres_run, spheres_check),
    "distance": (distance_inputs, distance_run, distance_check),
    "hexagon": (hexagon_inputs, hexagon_run, hexagon_check),
}
