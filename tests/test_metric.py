import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path
from sys import getsizeof

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lampgrid import (
    Element,
    Letter,
    METRIC,
    PRESENTATION,
    RadiusExceeded,
    a_length,
    ball_with_depths,
    certify_depth,
    concat,
    evaluate,
    exact_distance,
    format_word,
    halfplane_bound,
    hex_param,
    identity,
    in_hex,
    make_gn,
    multiply,
    parse,
    press_effect,
    random_element,
    search_distance,
    sphere_sizes,
    tour_lower_bound,
    witness_word,
)
from lampgrid import core, metric
from lampgrid.core import press_size
from lampgrid.metric import MemoryCapExceeded, length_lower_bound
from lampgrid.words import lampstand_points

from conftest import elements


A_ELEMENT = Element(frozenset({(0, 0)}), (0, 0))

# Word lengths of all of H_2, written once by an exhaustive search.  Digit m
# of a line is the element at (p, q) lighting the H2_STAND points picked by
# the bits of m.
H2_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "h2_distances.txt"
H2_STAND = ((-2, 0), (-1, 0), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2))


def h2_lengths() -> dict:
    lengths = {}
    for line in H2_TABLE.read_text().splitlines():
        if line.startswith("#"):
            continue
        p, q, digits = line.split()
        for mask, digit in enumerate(digits):
            lamps = frozenset(pt for i, pt in enumerate(H2_STAND) if mask >> i & 1)
            lengths[Element(lamps, (int(p), int(q)))] = int(digit, 16)
    return lengths


def no_search(*args):
    raise AssertionError("searched although the box tour should answer")


def cold_tour(g):
    """``exact_distance`` of a tour-answered ``g``, press effects uncached."""
    press_effect.cache_clear()
    assert exact_distance(g, halfplane_bound(g)) == halfplane_bound(g)


def far_search(memory_limit_mb=None):
    """A search from s^4095, whose presses have up to 2^12 lamps each."""
    with pytest.raises(RadiusExceeded):
        search_distance(Element(frozenset(), (4095, 0)), 4, memory_limit_mb)


@pytest.fixture
def built(monkeypatch):
    """The positions searches press at, one entry per press they make."""
    presses = []

    def counted(pos):
        presses.append(pos)
        return press_effect(pos)

    monkeypatch.setattr(metric, "press_effect", counted)
    return presses


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def far_elements(draw, limit=core.COORD_LIMIT, span=2**12):
    """Elements with |p| within ``span`` of the input limit and any q within
    it, lighting up to three lampstand points anywhere within it."""
    p = draw(st.integers(limit - span, limit)) * draw(st.sampled_from((1, -1)))
    q = draw(st.integers(-limit, limit))
    stand = st.one_of(
        st.integers(1, limit).map(lambda i: (-i, 0)),
        st.integers(-limit, limit).map(lambda j: (0, j)),
    )
    return Element(frozenset(draw(st.lists(stand, max_size=3))), (p, q))


def sweep_pairs(g):
    """The (vertex, pivot) pairs of witness_word's sweeps, in its order."""
    F, D, P, Q = metric._box(g)
    ep, eq = g.pos
    base = -D if eq >= 0 else 0
    x = P if ep >= 0 else -F
    pairs = [((x, q), (0, q)) for q in range(-D, base)]
    if ep >= 0:
        pairs += [((P, q), (0, P + q)) for q in range(Q, base - 1, -1)]
        pairs += [((p, base), (0, p + base)) for p in range(P - 1, -1, -1)]
    else:
        pairs += [((-k, Q), (-k, 0)) for k in range(F, 0, -1)]
    return pairs


def solve_by_vertex(g):
    """The solve vertex by vertex, the oracle of metric._solve: in the order
    of the sweeps, press each vertex whose pivot is lit.  Returns the
    presses and the lamps left lit."""
    residual, presses = set(g.lamps), set()
    for vertex, pivot in sweep_pairs(g):
        if pivot in residual:
            residual ^= press_effect(vertex)
            presses.add(vertex)
    return presses, residual


@st.composite
def boxed_elements(draw):
    """Elements in every sign case of g.pos, each of the box's extents F, D,
    P and Q zero or not, in boxes from a few lamps to past 1,024 wide: the
    widest draw a lamp past (0, 1024), so P + Q >= 1025."""
    least, most = draw(st.sampled_from(((1, 3), (4, 40), (300, 1100))))
    extent = st.one_of(st.just(0), st.integers(least, most))
    far, low = draw(extent), draw(extent)
    top = draw(st.integers(1025, most) if most > 1024 else extent)
    pos = tuple(draw(extent) * draw(st.sampled_from((1, -1))) for _ in range(2))
    # A seeded Random, not st.randoms(): each draw of that takes from
    # hypothesis's buffer, which a wide box's lamps would overrun.
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = rng.random()
    stand = [(-i, 0) for i in range(1, far)] + [(0, j) for j in range(1 - low, top)]
    lamps = {pt for pt in stand if rng.random() < density}
    lamps.update(pt for pt in ((-far, 0), (0, -low), (0, top)) if pt != (0, 0))
    if rng.random() < 0.5:
        lamps ^= {(0, 0)}
    return Element(frozenset(lamps), pos)


class TestHexagon:
    def test_hex_param_identity(self):
        assert hex_param(identity()) == 0

    def test_hex_param_anchor(self):
        anchor, _ = make_gn(1)
        assert hex_param(anchor) == 1

    def test_hex_param_position_only(self):
        assert hex_param(Element(frozenset(), (2, -1))) == 2

    def test_in_hex_boundary(self):
        assert in_hex((2, -4), 4)
        assert not in_hex((3, 3), 4)


class TestWitness:
    def test_identity_empty(self):
        word = witness_word(identity())
        assert word.letters == ()

    def test_origin_press_exception(self):
        # hex parameter 0 but one letter is unavoidable
        word = witness_word(A_ELEMENT)
        assert a_length(word) == 1
        assert evaluate(word) == A_ELEMENT

    def test_anchor_is_tight(self):
        anchor, _ = make_gn(1)
        word = witness_word(anchor)
        assert evaluate(word) == anchor
        assert a_length(word) == 6

    @given(elements(max_n=8))
    @settings(max_examples=120)
    def test_replay_and_bound(self, g):
        word = witness_word(g)
        assert evaluate(word) == g
        assert a_length(word) == halfplane_bound(g) + (g == A_ELEMENT)
        if g != A_ELEMENT:
            assert a_length(word) <= 6 * hex_param(g)

    @given(far_elements(span=core.COORD_LIMIT))
    def test_input_limit_answers_or_meets_the_cap(self, g):
        # Within a second, a geodesic or a refusal: the cap, or the press
        # limit.
        start = time.perf_counter()
        try:
            word = witness_word(g, metric._Budget(1, "witness word"))
        except (MemoryCapExceeded, ValueError):
            pass
        else:
            assert evaluate(word) == g
            assert a_length(word) == length_lower_bound(g)
        assert time.perf_counter() - start < 1.0

    def test_all_four_position_cases(self):
        lamps = frozenset({(0, 3), (0, -2), (-2, 0)})
        for pos in [(2, -3), (1, 2), (-3, -1), (-2, 3)]:
            g = Element(lamps, pos)
            word = witness_word(g)
            assert evaluate(word) == g
            assert a_length(word) <= 6 * hex_param(g)

    @pytest.mark.parametrize(
        "text, length", [("t^3 a s^-2 a t", 6), ("s^2 t^-1 a t", 2)]
    )
    def test_no_out_and_back_overshoot(self, text, length):
        # p < 0 and p >= 0: the exact distances, and no s-run walked out and
        # straight back.
        g = evaluate(parse(text, PRESENTATION))
        word = witness_word(g)
        assert evaluate(word) == g
        assert a_length(word) == length
        for left, right in zip(word.letters, word.letters[1:]):
            assert not (left.base == right.base == "s" and left.sign == -right.sign)


def walk_tour(top, low, far, end):
    """Shortest lattice walk from the origin to ``end`` that meets the
    half-planes p+q >= top, q <= -low and p <= -far, by BFS over (position,
    met half-plane subset).  The search stops at the first layer reaching
    the goal, so it needs no window."""

    def met(p, q):
        return (p + q >= top) | (q <= -low) << 1 | (p <= -far) << 2

    start = (0, 0, met(0, 0))
    goal = (*end, 7)
    seen = {start}
    frontier = [start]
    length = 0
    while goal not in seen:
        length += 1
        nxt = []
        for p, q, mask in frontier:
            for x, y in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1)):
                state = (x, y, mask | met(x, y))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return length


class TestTour:
    def test_zero(self):
        assert tour_lower_bound(0) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 200])
    def test_six_n(self, n):
        assert tour_lower_bound(n) == 6 * n

    @pytest.mark.parametrize("n", range(9))
    def test_matches_walk_search(self, n):
        assert tour_lower_bound(n) == walk_tour(n, n, n, (0, 0))

    def test_at_the_input_limit(self):
        assert tour_lower_bound(2**31) == 6 * 2**31

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tour_lower_bound(-1)

    def test_import_leaves_numpy_unloaded(self):
        src = os.path.dirname(os.path.dirname(metric.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, lampgrid; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


class TestHalfplaneBound:
    def test_ball_depths(self):
        # a lower bound everywhere, and exact on B(7) but for the origin press
        off = {
            g: (bound, depth)
            for g, depth in ball_with_depths(7).items()
            if (bound := halfplane_bound(g)) != depth
        }
        assert off == {A_ELEMENT: (0, 1)}

    @pytest.mark.parametrize("top", range(4))
    def test_matches_walk_search(self, top):
        for low in range(4):
            for far in range(4):
                lamps = {(0, top), (0, -low), (-far, 0)} - {(0, 0)}
                for end in [(-2, 0), (0, 0), (1, -2), (2, 1), (-1, 3), (3, -3)]:
                    g = Element(frozenset(lamps), end)
                    assert halfplane_bound(g) == walk_tour(top, low, far, end), (g, end)


class TestExactDistance:
    @given(far_elements())
    def test_input_limit_answers_or_meets_the_cap(self, g):
        # A walk of about 2^31 vertices or more is charged past 1 MiB at
        # once; whichever way it ends, the proved length is stated.
        length = max(halfplane_bound(g), int(g != identity()))
        try:
            assert exact_distance(g, 2**34, memory_limit_mb=1) == length
        except MemoryCapExceeded as exc:
            assert str(exc).endswith(f"it is at least {length}")

        # A search sizes every press before it builds it: one over the
        # press limit raises, and one the cap cannot pay for is not built.
        def search():
            try:
                search_distance(g, 2, memory_limit_mb=1)
            except (RadiusExceeded, MemoryCapExceeded):
                pass
            except ValueError as exc:
                assert "over the limit" in str(exc)

        assert traced_peak(search) < 2 * 2**20

    def test_identity(self):
        assert exact_distance(identity(), 1) == 0

    def test_single_move(self):
        assert exact_distance(evaluate(parse("at", METRIC)), 4) == 1

    def test_anchor(self):
        anchor, _ = make_gn(1)
        assert exact_distance(anchor, 6) == 6

    def test_radius_exceeded(self):
        anchor, _ = make_gn(1)
        with pytest.raises(RadiusExceeded) as info:
            exact_distance(anchor, 3)
        assert info.value.max_radius == 3

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="max_r must be positive"):
            exact_distance(identity(), 0)

    def test_a_witness_that_does_not_replay_is_refused(self, monkeypatch):
        monkeypatch.setattr(metric, "witness_word", lambda g, budget=None: parse("s", METRIC))
        with pytest.raises(RuntimeError, match="the witness word does not replay in 6 letters"):
            exact_distance(make_gn(1)[0], 6)

    def test_bound_gives_up_before_searching(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched although the bound exceeds the radius")

        monkeypatch.setattr(metric._Search, "grow", no_search)
        with pytest.raises(RadiusExceeded, match="radius 17; it is at least 18"):
            exact_distance(make_gn(3)[0], 17)

    def test_search_gives_up_without_the_bound(self, monkeypatch):
        monkeypatch.setattr(metric, "halfplane_bound", lambda g: 0)
        with pytest.raises(RadiusExceeded, match="radius 3; it is at least 4") as info:
            search_distance(make_gn(1)[0], 3)
        assert info.value.max_radius == 3

    def test_agrees_with_ball_depths(self):
        for element, depth in ball_with_depths(3).items():
            assert exact_distance(element, 4) == depth

    def test_anchor_two_is_twelve(self):
        anchor, _ = make_gn(2)
        assert exact_distance(anchor, 12) == 12
        with pytest.raises(RadiusExceeded):
            exact_distance(anchor, 11)

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_MEMORY_LIMIT_MB", 0)
        anchor, _ = make_gn(1)
        with pytest.raises(MemoryCapExceeded):
            exact_distance(anchor, 6)

    def test_memory_cap_of_the_search(self):
        anchor, _ = make_gn(1)
        assert search_distance(anchor, 6) == 6
        with pytest.raises(MemoryCapExceeded):
            search_distance(anchor, 6, memory_limit_mb=0)

    def test_memory_limit_argument(self):
        with pytest.raises(MemoryCapExceeded):
            exact_distance(make_gn(1)[0], 6, memory_limit_mb=0)
        assert exact_distance(make_gn(1)[0], 6, memory_limit_mb=1) == 6

    def test_cap_error_names_the_search(self):
        # The error also states the proved lower bound, here the length.
        with pytest.raises(
            MemoryCapExceeded, match="^distance to radius 6 exceeds the 0 MiB cap; it is at least 6$"
        ):
            exact_distance(make_gn(1)[0], 6, memory_limit_mb=0)

    def test_long_walk_is_charged_by_its_presses(self):
        # A walk of 600,001 vertices with three presses fits 16 MiB.
        anchor, _ = make_gn(10**5)
        assert exact_distance(anchor, 6 * 10**5, memory_limit_mb=16) == 6 * 10**5

    def test_tour_answers_without_search(self, monkeypatch):
        depths = ball_with_depths(7)
        monkeypatch.setattr(metric._Search, "grow", no_search)
        for g, depth in depths.items():
            assert exact_distance(g, 7) == depth, g
        assert exact_distance(A_ELEMENT, 7) == 1

    def test_h2_table(self, monkeypatch):
        lengths = h2_lengths()
        monkeypatch.setattr(metric._Search, "grow", no_search)
        assert len(lengths) == 2432
        for g, length in lengths.items():
            assert exact_distance(g, 12) == length, g

    def test_search_agrees_with_ball_depths(self):
        for element, depth in ball_with_depths(3).items():
            assert search_distance(element, 4) == depth


class TestBoxTour:
    @pytest.mark.parametrize("n", [2, 6, 8, 12, 24, 40, 48, 96, 300])
    def test_replays_at_the_bound(self, n):
        for seed in range(100):
            g = random_element(n, seed)
            if g == A_ELEMENT:
                continue
            word = witness_word(g)
            assert word is not None, (n, seed)
            assert evaluate(word) == g, (n, seed)
            assert a_length(word) == halfplane_bound(g), (n, seed)

    def test_replays_at_the_bound_on_every_h3_lamp_set(self):
        # All four sign cases of the position, their boundaries, and
        # positions far outside the lamps' box.
        stand = lampstand_points(3)
        for p in (-7, -1, 0, 1, 7):
            for q in (-7, -1, 0, 1, 7):
                for mask in range(1 << len(stand)):
                    lamps = frozenset(pt for i, pt in enumerate(stand) if mask >> i & 1)
                    g = Element(lamps, (p, q))
                    word = witness_word(g)
                    assert evaluate(word) == g, g
                    assert a_length(word) == halfplane_bound(g) + (g == A_ELEMENT), g

    @pytest.mark.parametrize("span", [1023, 1024])
    def test_replays_at_the_band_edge(self, span):
        # Boxes with F + D + P + Q at the upper edge of core's frame band,
        # one per sign case of g.pos: the witness replays at its bound on
        # either side of it.
        rng = random.Random(span)
        extra = span - 1023
        for pos, far, low, top in [
            ((300, 200), 200, 123, 700 + extra),
            ((-250, 100), 300, 200, 523 + extra),
            ((150, -220), 100, 300, 623 + extra),
            ((-200, -300), 250, 310, 463 + extra),
        ]:
            stand = [(-i, 0) for i in range(1, far)] + [(0, j) for j in range(1 - low, top)]
            lamps = {(-far, 0), (0, -low), (0, top)}
            lamps.update(pt for pt in stand if rng.random() < 0.05)
            g = Element(frozenset(lamps), pos)
            assert sum(metric._box(g)) == span, pos
            word = witness_word(g)
            assert (a_length(word), evaluate(word)) == (length_lower_bound(g), g), pos

    def test_each_press_settles_its_pivot_for_good(self):
        # The back-substitution lemma, pair by pair, on every box of lamps on
        # H_3's lampstand (the sweeps read the lamps only through their
        # extremes) and every position in {-7..7}^2.
        for top, low, far in product(range(4), repeat=3):
            lamps = frozenset({(0, top), (0, -low), (-far, 0)} - {(0, 0)})
            for pos in product(range(-7, 8), repeat=2):
                g = Element(lamps, pos)
                path, box = metric._plan(g)
                walked = set(fuse_by_vertex(path, ())[1])
                pivots = set()
                for vertex, pivot in sweep_pairs(g):
                    effect = press_effect(vertex)
                    assert pivot in effect, (g, vertex)
                    assert not effect & pivots, (g, vertex)
                    assert vertex in walked, (g, vertex)
                    pivots.add(pivot)
                F, D, P, Q = box
                assert box == metric._box(g), g
                assert all(abs(p) + abs(q) <= F + D + P + Q for p, q in walked), g
                stand = {(-i, 0) for i in range(1, F + 1)} | {(0, j) for j in range(-D, P + Q + 1)}
                assert stand - pivots <= walked, g

    @given(boxed_elements())
    @settings(max_examples=150)
    @example(identity())
    @example(A_ELEMENT)
    @example(Element(frozenset(), (3, -2)))
    @example(Element(press_effect((4095, 0)), (4095, 0)))
    def test_solve_is_back_substitution(self, g):
        presses, residual = metric._solve(g, metric._box(g), metric._Budget(None, "solve"))
        assert (set(presses), set(residual)) == solve_by_vertex(g), g
        assert len(presses) == len(set(presses)) and len(residual) == len(set(residual)), g

    def test_solve_of_a_lamp_past_every_cache(self):
        # Lamp (0, 32767) from the row q = 0: x^32767 = ((1+x) + 1)^32767,
        # and every binomial of 2^15 - 1 is odd, so every press of the row.
        g = Element(frozenset({(0, 32767)}), (32767, 0))
        presses, residual = metric._solve(g, metric._box(g), metric._Budget(None, "solve"))
        assert sorted(presses) == [(p, 0) for p in range(32768)]
        assert residual == []

    def test_origin_press_is_one_letter_over(self):
        word = witness_word(A_ELEMENT)
        assert evaluate(word) == A_ELEMENT
        assert (a_length(word), halfplane_bound(A_ELEMENT)) == (1, 0)

    def test_memory_cap_before_walking(self):
        far = Element(frozenset(), (2**31, 0))
        with pytest.raises(MemoryCapExceeded):
            witness_word(far, metric._Budget(1, "box tour"))


def fuse_by_vertex(path, presses):
    """The fuser vertex by vertex, the oracle of the leg-based one: list
    every vertex, press each at its first visit, one letter per move."""
    vertices = [path[0]]
    for target in path[1:]:
        while vertices[-1] != target:
            p, q = vertices[-1]
            tp, tq = target
            if p != tp:
                vertices.append((p + (1 if tp > p else -1), q))
            else:
                vertices.append((p, q + (1 if tq > q else -1)))
    first = {}
    for i, vertex in enumerate(vertices):
        first.setdefault(vertex, i)
    pressed = [False] * len(vertices)
    for pos in presses:
        pressed[first[pos]] = True
    if len(vertices) == 1:
        return [Letter("a", 1)] if presses else [], vertices
    letters = [
        metric._MOVE_LETTERS[(b[0] - a[0], b[1] - a[1]), i == 0 and pressed[0], pressed[i + 1]]
        for i, (a, b) in enumerate(zip(vertices, vertices[1:]))
    ]
    return letters[::-1], vertices


@st.composite
def walks(draw):
    path = [(0, 0)]
    for _ in range(draw(st.integers(0, 5))):
        metric._walk_to(path, draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6))))
    _, vertices = fuse_by_vertex(path, ())
    presses = draw(st.sets(st.sampled_from(vertices)))
    return path, presses


class TestFuser:
    @given(walks())
    @settings(max_examples=300)
    def test_matches_vertex_by_vertex(self, walk):
        path, presses = walk
        letters, _ = fuse_by_vertex(path, presses)
        word = metric._word_from_path(path, presses)
        assert word.letters == tuple(letters)

    def test_corners_only(self):
        path = [(0, 0)]
        metric._walk_to(path, (3, -2))
        metric._walk_to(path, (3, -2))
        assert path == [(0, 0), (3, 0), (3, -2)]

    def test_runs_per_leg(self):
        word = metric._word_from_path([(0, 0), (0, 5), (-4, 5)], {(0, 0), (0, 3), (-4, 5)})
        assert format_word(word) == "sa^-1 s^-3 t^2 at t ta"

    def test_press_off_the_walk(self):
        with pytest.raises(RuntimeError, match="not on the planned path"):
            metric._word_from_path([(0, 0), (2, 0)], {(1, 1)})


class TestBudget:
    @pytest.mark.parametrize(
        "search",
        [
            *(lambda r=r: ball_with_depths(r) for r in range(1, 6)),
            lambda: ball_with_depths(6),
            lambda: ball_with_depths(8),
            lambda: sphere_sizes(6),
            lambda: sphere_sizes(8),
            lambda: exact_distance(make_gn(2)[0], 12),
            lambda: search_distance(make_gn(2)[0], 12),
            lambda: cold_tour(random_element(24, 3)),
            lambda: cold_tour(random_element(400, 3)),
            far_search,
        ],
        ids=[
            *(f"ball-{r}" for r in range(1, 6)),
            "ball", "ball-8", "spheres-6", "spheres-8", "distance", "distance-search", "distance-wide-tour",
            "distance-wider-tour", "distance-search-far",
        ],
    )
    def test_charge_covers_traced_peak(self, monkeypatch, search):
        (budget,), peak = self.traced(monkeypatch, search)
        assert self.charged(budget) >= peak

    def test_cap_comes_before_a_large_press(self):
        # From (2^20 - 1, 0) the presses of the first expansion have up to
        # 2^20 lamps, about 150 MB each: the 1 MiB cap is met before any of
        # them is built.
        start = Element(frozenset(), (2**20 - 1, 0))

        def search():
            with pytest.raises(MemoryCapExceeded, match="1 MiB cap"):
                search_distance(start, 3, memory_limit_mb=1)

        assert traced_peak(search) < 2**20

    def test_witness_cap_comes_before_a_large_press(self):
        # The solve's one press, at (32767, 0), has 2^15 lamps, about 4.6 MiB
        # as it is built: the 1 MiB cap is met first.
        g = Element(frozenset({(0, 32767)}), (32767, 0))

        def solve():
            with pytest.raises(MemoryCapExceeded, match="1 MiB cap"):
                witness_word(g, metric._Budget(1, "witness word"))

        assert traced_peak(solve) < 2**20

    def test_witness_of_a_large_press_replays_inside_the_cap(self):
        # One press of 4,096 lamps, about 0.62 MiB traced while it is solved:
        # its build is charged by its size, then refunded to what it holds.
        g = Element(press_effect((4095, 0)), (4095, 0))
        word = witness_word(g, metric._Budget(1, "witness word"))
        assert (a_length(word), evaluate(word)) == (halfplane_bound(g), g)

    def test_dict_tables_follow_cpython(self):
        # The table and getsizeof that _dict_table gives for each count of
        # keys are those of a dict that grows by inserts, as depths does.
        grown = {-1: 0}
        for keys in range(1, 50000):
            full, size = metric._dict_table(keys)
            assert (size, keys <= full) == (getsizeof(grown), True), keys
            grown[keys] = 0

    def test_ball_charges_a_table_before_it_moves(self):
        # B(8) has charged about 4.1 MiB when depths moves from 2^16 to 2^17
        # slots, at its 43,691st key, and 6.6 MiB with the new table: the
        # 5 MiB cap is met before the move, while the ball holds under 3 MiB.
        # Were the table charged after the move, the move would take the
        # traced peak past 5.4 MiB first.
        def capped():
            with pytest.raises(MemoryCapExceeded, match="5 MiB cap"):
                sphere_sizes(8, memory_limit_mb=5)

        assert traced_peak(capped) < 5 * 2**20

    @pytest.mark.parametrize(
        "run",
        [
            lambda: sphere_sizes(2**31, memory_limit_mb=1),
            lambda: certify_depth(1, 2**31, memory_limit_mb=1),
        ],
        ids=["spheres", "certify"],
    )
    def test_a_huge_radius_costs_what_a_small_one_does(self, run):
        # A key is as wide as its own lamps, not as its radius, so the ball
        # meets the cap after about as many states as a small radius does.
        def capped():
            with pytest.raises(MemoryCapExceeded, match="1 MiB cap"):
                run()

        start = time.perf_counter()
        assert traced_peak(capped) < 2 * 2**20
        assert time.perf_counter() - start < 2

    def test_certify_opens_every_budget_at_its_cap(self, monkeypatch):
        # The ball, each fresh witness and the failure's witness.
        budgets, _ = self.traced(monkeypatch, lambda: certify_depth(1, 3, memory_limit_mb=64))
        assert len(budgets) > 2
        assert {budget.limit_mb for budget in budgets} == {64}

    def test_press_limit_comes_before_the_cap(self):
        # The press at (2^21 - 1, 0) has 2^21 lamps: over the press limit,
        # which is reported even though the cap could not pay for it either.
        with pytest.raises(ValueError, match=r"press at \(2097151, 0\) toggles 2097152 lamps"):
            search_distance(Element(frozenset(), (2**21 - 2, 0)), 2, memory_limit_mb=1)

    def test_certify_charge_covers_traced_peak(self, monkeypatch):
        # The ball's budget holds the search and what certify keeps per
        # layer; one fresh witness at a time lives beside it.
        (ball, *witnesses), peak = self.traced(monkeypatch, lambda: certify_depth(4, 6))
        assert witnesses
        assert self.charged(ball) + max(map(self.charged, witnesses)) >= peak

    @staticmethod
    def charged(budget) -> int:
        return budget.limit_mb * 2**20 - budget.left

    @staticmethod
    def traced(monkeypatch, search):
        budgets = []

        class Recording(metric._Budget):
            def __init__(self, *args):
                super().__init__(*args)
                budgets.append(self)

        monkeypatch.setattr(metric, "_Budget", Recording)
        # A cold press cache, so that the shared cache's entries for the
        # presses a search makes are traced too.
        press_effect.cache_clear()
        return budgets, traced_peak(search)


class TestBallAndSpheres:
    def test_sphere_sizes_prefix(self):
        assert sphere_sizes(1) == [1, 17]

    def test_depths_are_consistent_with_moves(self):
        from lampgrid import move_elements, multiply

        depths = ball_with_depths(3)
        moves = [el for _, el in move_elements()]
        for element, depth in depths.items():
            if depth == 0:
                continue
            # some move must step one layer down
            assert any(
                depths.get(multiply(mv, element)) == depth - 1 for mv in moves
            )

    def test_memory_cap(self):
        with pytest.raises(MemoryCapExceeded):
            ball_with_depths(4, memory_limit_mb=0)

    def test_equal_lamp_sets_and_positions_are_one_object(self):
        ball = list(ball_with_depths(5))
        for values in ([g.lamps for g in ball], [g.pos for g in ball]):
            assert len({id(value) for value in values}) == len(set(values))

    def test_ball_misses_each_press_position_once(self, built):
        # Each expanded state presses at its position plus each offset of
        # _PRESSES; the search makes every one of them once, for the whole
        # ball, and keeps it in its own table.
        ball = ball_with_depths(8)
        pressed = {
            (p + dp, q + dq)
            for (p, q) in {g.pos for g, depth in ball.items() if depth < 8}
            for dp, dq in metric._PRESSES
        }
        assert sorted(built) == sorted(pressed)

    def test_far_search_builds_each_press_once(self, cold_press_cache, built):
        # Presses of up to 2^12 lamps, past the size the shared cache keeps:
        # each is built once all the same, and the shared cache keeps only
        # the small ones.
        far_search()
        assert len(built) == len(set(built))
        assert max(map(press_size, built)) == 2**12
        assert press_effect.cache_info().currsize == sum(
            abs(p) + abs(q) < core.PRESS_LAMP_LIMIT // 1024 for p, q in built
        )

    def test_expansion_prepends_each_move(self):
        # The children of every state of B(5), one state at a time: each
        # move's product, first occurrences only, with its move as origin.
        for state in ball_with_depths(5):
            products = [multiply(mv, state) for mv in metric._MOVES]
            firsts = {}
            for m, child in enumerate(products):
                firsts.setdefault(child, m)
            origins = []
            children = metric._Search(state, metric._Budget(None, "one state")).grow(origins)
            assert children == list(firsts)
            assert origins == list(firsts.values())

    @staticmethod
    def frozenset_layers(radius):
        search = metric._ball(radius, None)
        layers, origins = [[identity()]], []
        while search.radius < radius:
            origins.append([])
            layers.append(search.grow(origins[-1]))
        expected = [(g, depth) for depth, layer in enumerate(layers) for g in layer]
        assert list(search.depths.items()) == expected
        return layers, origins

    @staticmethod
    def packed_layers(radius):
        ball = metric._PackedBall(radius, None)
        layers, origins = [ball.frontier], []
        while ball.radius < radius:
            origins.append([])
            layers.append(ball.grow(origins[-1]))
        # Past its radius a child could leave the window of its keys.
        with pytest.raises(ValueError, match="grown to its radius 6"):
            ball.grow()
        return [list(map(ball.unpack, layer)) for layer in layers], origins

    def test_ball_matches_a_search_by_multiply(self):
        expected = [[identity()]]
        expected_origins = []
        seen = {identity()}
        for layer in range(1, 7):
            new, origins = [], []
            for i, state in enumerate(expected[-1]):
                for m, mv in enumerate(metric._MOVES):
                    child = multiply(mv, state)
                    if child not in seen:
                        seen.add(child)
                        new.append(child)
                        origins.append(len(metric._MOVES) * i + m)
            expected.append(new)
            expected_origins.append(origins)
        for grow in (self.frozenset_layers, self.packed_layers):
            assert grow(6) == (expected, expected_origins), grow.__name__
        assert sphere_sizes(6) == [1, 17, 70, 240, 722, 2000, 5234]

    def test_sphere_sizes_count_the_frozenset_ball(self):
        depths = list(ball_with_depths(7).values())
        for r in range(8):
            assert sphere_sizes(r) == [depths.count(d) for d in range(r + 1)], r

    @given(st.data())
    def test_packed_keys_round_trip(self, data):
        # Positions in the window of B(r), |p|, |q| <= r, and lampstand
        # lamps out to 3r + 3, past the window, as the anchor's are when
        # n > r and as a press's mask is.
        r = data.draw(st.integers(0, 40))
        far = 3 * r + 3
        stand = [(0, j) for j in range(-far, far + 1)] + [(-i, 0) for i in range(1, far + 1)]
        coord = st.integers(-r, r)
        element = st.builds(
            lambda lamps, p, q: Element(frozenset(lamps), (p, q)),
            st.lists(st.sampled_from(stand), unique=True), coord, coord,
        )
        elements = data.draw(st.lists(element, min_size=1, max_size=8))
        ball = metric._PackedBall(r, None)
        keys = [ball.key(*g) for g in elements]
        assert keys == [ball.pack(g) for g in elements]
        for g, key in zip(elements, keys):
            # The zigzag: (0, j) at 3j or -3j - 2, (-i, 0) at 3i - 1.
            bits = sum(
                1 << (-3 * i - 1 if i else 3 * j if j >= 0 else -3 * j - 2) for i, j in g.lamps
            )
            index = (g.pos[0] + r) * (2 * r + 1) + g.pos[1] + r
            assert key == bits << ball.width | index
        assert [ball.unpack(key) for key in keys] == elements
        assert len(set(keys)) == len(set(elements))

    def test_no_state_outside_the_window_or_off_the_lampstand_has_a_key(self):
        # (p, k + 1) would wrap onto the index of (p + 1, -k), and (-1, 5)
        # onto the bit of (-1, 0); each has the key -1, which no state has.
        ball = metric._PackedBall(2, None)
        assert ball.key(frozenset(), (0, 3)) == -1 != ball.key(frozenset(), (1, -2))
        for pos in ((3, 0), (-3, 0), (0, -3), (2, 3)):
            assert ball.key(frozenset(), pos) == -1
        for lamp in ((-1, 5), (-1, -5), (1, 0), (3, 2)):
            assert ball.key({lamp}, (0, 0)) == -1
        assert ball.key({(-1, 0)}, (0, 0)) >= 0


# States near +/-2^31 where every press of an expansion toggles few lamps.
FAR_STATES = [(-(2**31), 3), (2**30 + 1, -7), (1 - 2**31, 1 - 2**31), (5, 2**31)]


class TestPressTable:
    def test_each_move_toggles_one_press(self):
        # Re-pressing a move's lamps at a state's position, as multiply
        # does, is the one press the table names for the move.
        for p, q in FAR_STATES:
            assert max(press_size((p + dp, q + dq)) for dp, dq in metric._PRESSES) <= 4
        positions = [(p, q) for p in range(-8, 9) for q in range(-8, 9)] + FAR_STATES
        for p, q in positions:
            for mv, (shift, press) in zip(metric._MOVES, metric._STEPS):
                assert metric._SHIFTS[shift] == mv.pos
                toggled = frozenset()
                for lp, lq in mv.lamps:
                    toggled ^= press_effect((p + lp, q + lq))
                if press < 0:
                    assert toggled == frozenset()
                else:
                    dp, dq = metric._PRESSES[press]
                    assert toggled == press_effect((p + dp, q + dq)), (mv, p, q)

    def test_a_lamp_set_that_is_no_press_is_refused(self):
        with pytest.raises(RuntimeError, match="no single press"):
            metric._single_press(frozenset({(0, 0), (0, 2)}))

    def test_edge_of_the_press_limit(self, cold_press_cache, monkeypatch):
        # The edge of _Search.grow's docstring at a limit of 2^4 lamps: at
        # (30, 0) = (2^5 - 2, 0) the state's own press toggles 16 lamps, but
        # the one at offset (1, 0), at (31, 0), toggles 32, so expanding it
        # raises.  From (29, 0) every press of the state is within the limit.
        monkeypatch.setattr(core, "PRESS_LAMP_LIMIT", 16)
        assert press_size((30, 0)) == 16
        with pytest.raises(ValueError, match=r"press at \(31, 0\) toggles 32 lamps"):
            search_distance(Element(frozenset(), (30, 0)), 2)
        with pytest.raises(RadiusExceeded):
            search_distance(Element(frozenset(), (29, 0)), 2)


class TestMakeGn:
    def test_small_values(self):
        el1, w1 = make_gn(1)
        assert el1 == Element(frozenset({(-1, 0), (0, 1), (0, -1)}), (0, 0))
        assert a_length(w1) == 6
        el2, w2 = make_gn(2)
        assert el2.lamps == frozenset({(-2, 0), (0, 2), (0, -2)})
        assert el2.pos == (0, 0)
        assert a_length(w2) == 12

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_word_replays(self, n):
        element, word = make_gn(n)
        assert evaluate(word) == element

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            make_gn(0)

    def test_word_runs(self):
        assert format_word(make_gn(1)[1]) == "sa s^-1 ta t^-2 at"
        assert format_word(make_gn(3)[1]) == "s^2 sa s^-3 t^2 ta t^-6 at t^2"


class TestCertifyDepth:
    def test_trivial(self):
        certificate = certify_depth(1, 0)
        assert certificate.verdict == "certified"
        assert certificate.neighborhood_size == 1

    def test_depth_one_anchor_is_dead_end(self):
        certificate = certify_depth(1, 1)
        assert certificate.verdict == "certified"
        assert certificate.neighborhood_size == 18
        assert certificate.max_witness_length <= 6

    @pytest.mark.parametrize("n", [1, 2])
    def test_max_witness_is_the_longest_neighbour(self, n):
        # Geodesic witnesses make the certificate's maximum the true one.
        anchor, _ = make_gn(n)
        searched = {
            b: (depth, search_distance(multiply(anchor, b), 6 * n))
            for b, depth in ball_with_depths(n).items()
        }
        for k in range(n + 1):
            longest = max(length for depth, length in searched.values() if depth <= k)
            assert certify_depth(n, k).max_witness_length == longest, k

    def test_neighbours_confirmed_by_search(self):
        # search_distance uses neither the half-plane bound nor the witness.
        anchor, _ = make_gn(1)
        for b in ball_with_depths(2):
            assert search_distance(multiply(anchor, b), 6) <= 6
        for n in (1, 2):
            escape = evaluate(parse(f"s^{2 * n + 1}", METRIC))
            with pytest.raises(RadiusExceeded):
                search_distance(multiply(escape, make_gn(n)[0]), 6 * n)

    def test_json_schema(self):
        certificate = certify_depth(2, 2)
        data = json.loads(json.dumps(certificate.to_json()))
        assert set(data) == {
            "n",
            "k",
            "ball_radius",
            "neighborhood_size",
            "max_witness_length",
            "verdict",
            "failure_witness",
        }
        assert data["verdict"] == "certified"
        assert data["ball_radius"] == 12
        assert data["failure_witness"] is None

    @pytest.mark.parametrize(
        "anchor, match",
        [
            (
                (Element(frozenset({(0, 1)}), (0, 1)), make_gn(1)[1]),
                "anchor is expected to be an involution spelled by its word",
            ),
            (
                (make_gn(1)[0], concat(make_gn(1)[1], parse("a^2", METRIC))),
                "anchor is expected to have length 6n",
            ),
        ],
        ids=["not-an-involution", "word-of-6n-plus-2-letters"],
    )
    def test_a_wrong_anchor_is_refused(self, monkeypatch, anchor, match):
        monkeypatch.setattr(metric, "make_gn", lambda n: anchor)
        with pytest.raises(RuntimeError, match=match):
            certify_depth(1, 1)

    def test_precondition(self):
        with pytest.raises(ValueError):
            certify_depth(2, -1)
        with pytest.raises(ValueError):
            certify_depth(0, 0)

    def test_memory_cap_covers_the_witnesses(self):
        # B(1)'s 17 states fit in 1 MiB, so only a fresh witness, that of the
        # anchor as the parent of B(1), can trip it.
        with pytest.raises(
            MemoryCapExceeded,
            match=r"^distance to radius 180000 exceeds the 1 MiB cap; it is at least 180000$",
        ):
            certify_depth(30000, 1, memory_limit_mb=1)

    @pytest.mark.parametrize(
        "n, ks",
        [(1, range(5)), (2, range(6)), (3, range(8)), (4, [4])],
        ids=["g1-k0to4", "g2-k0to5", "g3-k0to7", "g4-k4"],
    )
    def test_matches_a_fresh_witness_for_every_neighbour(self, n, ks):
        # The route before upper bounds were carried along the search:
        # exact_distance of every b * anchor, over the ball in its order.
        # (1, 4) fails in layer 3 and then only counts B(4), 1050 elements.
        anchor, _ = make_gn(n)
        ball = ball_with_depths(max(ks))
        lengths = {}
        for b in ball:
            try:
                lengths[b] = exact_distance(multiply(b, anchor), 6 * n)
            except RadiusExceeded:
                lengths[b] = None
        for k in ks:
            inside = [b for b, depth in ball.items() if depth <= k]
            escaped = [b for b in inside if lengths[b] is None]
            checked = inside[: inside.index(escaped[0])] if escaped else inside
            expected = metric.DepthCertificate(
                n, k, 6 * n, len(inside), max(lengths[b] for b in checked),
                "failed" if escaped else "certified",
                format_word(witness_word(escaped[0])) if escaped else None,
            )
            assert certify_depth(n, k) == expected, (n, k)

    @pytest.mark.parametrize("n, k", [(3, 6), (1, 3)], ids=["certified", "failed"])
    def test_translates_are_not_multiplied(self, monkeypatch, n, k):
        # Only the anchor's involution check multiplies; every translate
        # b * anchor is one XOR of lamp sets.
        calls = []
        product = metric.multiply

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(metric, "multiply", counted)
        certify_depth(n, k)
        anchor, _ = make_gn(n)
        assert calls == [(anchor, anchor)]

    def test_an_extension_that_does_not_replay_is_refused(self, monkeypatch):
        # Skipping the letter leaves the parent's translate, never b's.
        monkeypatch.setattr(metric, "act_runs", lambda runs, state: state)
        with pytest.raises(RuntimeError, match="does not replay"):
            certify_depth(1, 2)

    def test_a_ball_row_that_does_not_replay_is_refused(self, monkeypatch):
        # Each row built for layer 2 gets the lamp (0, 3) in its first
        # press's mask.  No state of B(2) lights it, so each child that mask
        # makes is new, and no letter replays to its key.
        build = metric._PackedBall._row

        def corrupt(ball, index):
            row = build(ball, index)
            if ball.radius == 2:
                m = next(m for m, (mask, _) in enumerate(row) if mask)
                mask, delta = row[m]
                mask ^= ball.key({(0, 3)}, (-ball.k, -ball.k))
                ball.rows[index] = row = row[:m] + ((mask, delta),) + row[m + 1:]
            return row

        monkeypatch.setattr(metric._PackedBall, "_row", corrupt)
        with pytest.raises(RuntimeError, match="does not replay"):
            certify_depth(1, 2)

    @staticmethod
    def forge_replays(monkeypatch, forge):
        """Have act_runs return ``forge(lamps, pos)`` where that is not None;
        return the list of the replays it forged."""
        forged, replay = [], metric.act_runs

        def forging(runs, state):
            g = replay(runs, state)
            fake = forge(*g)
            if fake is None:
                return g
            forged.append(fake)
            return fake

        monkeypatch.setattr(metric, "act_runs", forging)
        return forged

    def test_a_replayed_lamp_off_the_lampstand_is_refused(self, monkeypatch):
        # (-1, 5) for (-1, 0), which a zigzag of the s-axis alone would
        # give the same bit.  The anchor of n = 2 lights neither.
        forged = self.forge_replays(
            monkeypatch,
            lambda lamps, pos: Element(lamps ^ {(-1, 0), (-1, 5)}, pos)
            if (-1, 0) in lamps
            else None,
        )
        with pytest.raises(RuntimeError, match="does not replay"):
            certify_depth(2, 2)
        assert len(forged) == 1

    def test_a_replayed_position_past_the_window_is_refused(self, monkeypatch):
        # (p - 1, 3) for (p, -2): past the edge of B(2)'s window, whose
        # index would wrap onto that of (p, -2).
        forged = self.forge_replays(
            monkeypatch,
            lambda lamps, pos: Element(lamps, (pos[0] - 1, 3))
            if pos[1] == -2 and pos[0] > -2
            else None,
        )
        with pytest.raises(RuntimeError, match="does not replay"):
            certify_depth(2, 2)
        assert len(forged) == 1

    def test_a_failure_word_that_does_not_replay_is_refused(self, monkeypatch):
        # A witness for s^3 one letter short: the printed word would claim
        # depth 2 for the (1, 3) failure found in layer 3.
        escape = evaluate(parse("s^3", METRIC))
        build = metric.witness_word

        def short(g, *args):
            return parse("s^2", METRIC) if g == escape else build(g, *args)

        monkeypatch.setattr(metric, "witness_word", short)
        with pytest.raises(RuntimeError, match="failure witness does not replay in 3 letters"):
            certify_depth(1, 3)

    @staticmethod
    def fresh_witnesses(monkeypatch, n, k):
        """The certificate, and how many exact_distance calls it made."""
        calls = []
        measure = metric.exact_distance

        def counted(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(metric, "exact_distance", counted)
        return certify_depth(n, k), len(calls)

    def test_fresh_witnesses_only_past_a_parent_at_6n(self, monkeypatch):
        certificate, calls = self.fresh_witnesses(monkeypatch, 5, 5)
        assert certificate.neighborhood_size == 3050
        assert calls == 467

    @pytest.mark.parametrize("n, witnesses", [(3, 71), (4, 71), (6, 467)])
    def test_fresh_witness_counts(self, monkeypatch, n, witnesses):
        # A parent at 6n is measured once; only children of a parent of
        # length exactly 6n get a fresh witness each.  The anchor's own
        # length is proved by its word, so it is measured only as the
        # parent of B(1).
        certificate, calls = self.fresh_witnesses(monkeypatch, n, n)
        assert (certificate.verdict, calls) == ("certified", witnesses)

    @pytest.mark.parametrize(
        "n, inside, outside", [(1, 88, 328), (2, 1050, 3050), (3, 8284, 21420)]
    )
    def test_depth_is_two_n_plus_one(self, n, inside, outside):
        certificate = certify_depth(n, 2 * n)
        assert (certificate.verdict, certificate.neighborhood_size) == ("certified", inside)
        assert certificate.max_witness_length == 6 * n
        assert f"dead-end depth of the anchor is at least {2 * n + 1}" in certificate.describe()
        certificate = certify_depth(n, 2 * n + 1)
        assert (certificate.verdict, certificate.neighborhood_size) == ("failed", outside)
        assert certificate.failure_witness == f"s^{2 * n + 1}"
        assert f"dead-end depth of the anchor is at most {2 * n + 1}" in certificate.describe()
        # The failing offset is spelled by its geodesic witness, so the
        # word's length is the offset's length: the exact depth.
        word = parse(certificate.failure_witness, METRIC)
        assert a_length(word) == 2 * n + 1
        assert evaluate(word) == Element(frozenset(), (2 * n + 1, 0))
        assert f"and exactly {2 * n + 1}" in certificate.describe()
