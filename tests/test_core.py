import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lampgrid import (
    Element,
    Letter,
    element_from_json,
    element_to_json,
    evaluate,
    identity,
    inverse,
    is_lampstand,
    multiply,
    parse,
    press_effect,
)
from lampgrid import core
from lampgrid.core import PRESS_LAMP_LIMIT, _count_odd_binomials, _odd_binomials, press_size
from lampgrid.words import RELATORS, SPLIT_LEFT, SPLIT_RIGHT, act_runs

from conftest import elements


def ev(text):
    return evaluate(parse(text, "presentation"))


# Effects near +/-2^31 with few lamps; elsewhere out there, such as
# (2^31 - 1, 0) or (-5, 2^31), an effect really has some 10^9 lamps.
FAR_POINTS = [(-(2**31), -(2**31)), (-(2**31), 2**30), (2**30, -7), (-(2**31), 3)]


def obeys_half_planes(p, q):
    """The support rule behind halfplane_bound: a press at (p, q) lights a
    t-axis lamp j >= 0 only if j <= p + q, one j < 0 only if j >= q, and
    (-i, 0) only if -i >= p."""
    for lp, lq in press_effect((p, q)):
        if lp != 0:
            ok = lp >= p
        elif lq >= 0:
            ok = lq <= p + q
        else:
            ok = lq >= q
        if not ok:
            return False
    return True


class TestLampstand:
    def test_t_axis(self):
        assert is_lampstand((0, 7))

    def test_negative_s_axis(self):
        assert is_lampstand((-3, 0))

    def test_positive_s_axis_excluded(self):
        assert not is_lampstand((2, 0))

    def test_off_both_axes(self):
        assert not is_lampstand((1, 1))


class TestPressEffect:
    def test_on_lampstand_is_singleton(self):
        assert press_effect((0, 5)) == frozenset({(0, 5)})
        assert press_effect((-4, 0)) == frozenset({(-4, 0)})

    @pytest.mark.parametrize("q", [-3, 0, 2, 7])
    def test_row_two(self, q):
        # row 2 of Pascal mod 2 is 1,0,1
        assert press_effect((2, q)) == frozenset({(0, q), (0, q + 2)})

    def test_one_step_of_lower_recursion(self):
        assert press_effect((-1, -1)) == frozenset({(0, -1), (-1, 0)})

    def test_one_step_of_upper_recursion(self):
        assert press_effect((-1, 1)) == frozenset({(-1, 0), (0, 0)})

    def test_hand_expanded_values(self):
        # worked out by expanding the split relation by hand
        assert press_effect((-2, -1)) == frozenset({(0, -1), (-1, 0), (-2, 0)})
        assert press_effect((-2, -2)) == frozenset({(0, -2), (-2, 0)})
        assert press_effect((-3, -3)) == frozenset(
            {(0, -3), (0, -2), (-2, 0), (-3, 0)}
        )
        assert press_effect((-2, 2)) == frozenset({(-2, 0), (0, 0)})

    @given(st.integers(-10, 9), st.integers(-10, 10))
    def test_split_relation(self, p, q):
        assert press_effect((p + 1, q)) == press_effect((p, q)) ^ press_effect(
            (p, q + 1)
        )

    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_effect_lands_on_lampstand(self, p, q):
        assert all(is_lampstand(lamp) for lamp in press_effect((p, q)))

    def test_far_press_is_output_sensitive(self):
        # 32 lamps, 600 steps from the lampstand: the cost must follow the
        # lamps out, not the positions between here and the lampstand.
        press_effect.cache_clear()
        tracemalloc.start()
        try:
            lamps = press_effect((-300, -300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lamps) == 32
        assert peak < 2**20

    @pytest.mark.parametrize("p, q", FAR_POINTS)
    def test_split_relation_at_far_coordinates(self, p, q):
        effects = [press_effect(pos) for pos in ((p + 1, q), (p, q), (p, q + 1))]
        assert effects[0] == effects[1] ^ effects[2]
        assert max(map(len, effects)) <= 4

    def test_support_in_half_planes(self):
        bad = [
            (p, q)
            for p in range(-30, 31)
            for q in range(-30, 31)
            if not obeys_half_planes(p, q)
        ]
        assert bad == []

    @pytest.mark.parametrize("p, q", FAR_POINTS)
    def test_support_in_half_planes_at_far_coordinates(self, p, q):
        for pos in ((p + 1, q), (p, q), (p, q + 1)):
            assert obeys_half_planes(*pos)

    def test_cache_is_bounded(self, cold_press_cache):
        # 2,000 distinct one-lamp presses with |q| <= 1000, below the size
        # limit: the cache keeps the last 1024.
        for q in range(-1000, 1000):
            press_effect((0, q))
        info = press_effect.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2000, 1024, 1024)

    def test_press_at_the_size_limit_is_built_but_never_cached(self, cold_press_cache):
        # |p| + |q| = PRESS_LAMP_LIMIT / 1024 and past it: each call builds
        # an equal new set, and the cache stays empty.
        edge = PRESS_LAMP_LIMIT // 1024
        for pos in ((edge, 0), (0, -edge), (-3, edge - 3), (2**20 - 1, 0)):
            first, again = press_effect(pos), press_effect(pos)
            assert first == again and first is not again
        assert press_effect.cache_info().currsize == 0
        # The largest press below the limit has edge lamps, so 1024 entries
        # hold at most PRESS_LAMP_LIMIT.
        largest = (edge - 1, 0)
        assert len(press_effect(largest)) == edge
        assert press_effect(largest) is press_effect(largest)
        assert press_effect.cache_info().currsize == 1


class TestPressSize:
    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_counts_the_effect(self, p, q):
        assert press_size((p, q)) == len(press_effect((p, q)))

    @given(st.integers(-(2**40), 2**40), st.integers(-300, 300))
    def test_odd_binomial_count(self, n, count):
        assert _count_odd_binomials(n, count) == len(list(_odd_binomials(n, count)))

    @pytest.mark.parametrize("p, q", FAR_POINTS)
    def test_far_points_are_small(self, p, q):
        for pos in ((p + 1, q), (p, q), (p, q + 1)):
            assert press_size(pos) == len(press_effect(pos))

    @pytest.mark.parametrize(
        "pos, size",
        [((2**31 - 1, 0), 2**31), ((-5, 2**31 - 1), 2**30 + 4), ((2**20 - 1, 7), 2**20)],
    )
    def test_counts_without_building(self, pos, size):
        assert press_size(pos) == size

    def test_limit(self):
        # 2^20 lamps is the limit itself, one more bit is over it
        assert press_size((2**20 - 1, 0)) == PRESS_LAMP_LIMIT
        with pytest.raises(ValueError, match=f"toggles {2**21} lamps"):
            press_effect((2**21 - 1, 0))
        with pytest.raises(ValueError, match="over the limit"):
            press_effect((-5, 2**31 - 1))


@st.composite
def band_presses(draw):
    """Presses whose |p| + |q| is in the band, in each sign case of (p, q),
    with the band's edges drawn often."""
    span = draw(
        st.one_of(
            st.sampled_from((core.FRAME_MIN_SPAN, core.FRAME - 2, core.FRAME - 1)),
            st.integers(core.FRAME_MIN_SPAN, core.FRAME - 1),
        )
    )
    size = draw(st.integers(0, span))
    sp, sq = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
    return sp * size, sq * (span - size)


def assert_frame_press_is_the_effect(pos):
    s_axis, t_axis = core.frame_press(pos)
    effect = press_effect(pos)
    s_bits = sum(1 << (i + core.FRAME) for i, j in effect if i)
    t_bits = sum(1 << (j + core.FRAME) for i, j in effect if not i)
    assert (s_bits, t_bits) == (s_axis, t_axis), pos
    lamps = core.frame_lamps(s_axis, t_axis)
    assert len(lamps) == len(effect) and set(lamps) == effect, pos
    assert max(s_axis.bit_length(), t_axis.bit_length()) <= 2 * core.FRAME, pos


class TestFramePress:
    def test_is_the_effect_near_the_origin(self):
        # Every sign case, p < 0 <= q with q + p < 0 (no t-axis lamps) among them.
        band = [
            (p, q)
            for p in range(-40, 41)
            for q in range(-40, 41)
            if core.FRAME_MIN_SPAN <= abs(p) + abs(q) < core.FRAME
        ]
        assert (-30, 10) in band
        for pos in band:
            assert_frame_press_is_the_effect(pos)

    @given(band_presses())
    @settings(max_examples=300)
    def test_is_the_effect_across_the_band(self, pos):
        assert_frame_press_is_the_effect(pos)


def act_one(base, sign, state):
    return act_runs(((Letter(base, sign), 1),), state)


class TestApplyLetter:
    """One presentation letter acting through `act_runs`."""

    def test_translation(self):
        assert act_one("t", 1, identity()) == Element(frozenset(), (0, 1))

    def test_press_at_origin(self):
        assert act_one("a", 1, identity()) == Element(
            frozenset({(0, 0)}), (0, 0)
        )

    def test_press_above_axis(self):
        state = Element(frozenset(), (2, 0))
        assert act_one("a", 1, state) == Element(
            frozenset({(0, 0), (0, 2)}), (2, 0)
        )

    def test_inverse_press_equals_press(self):
        state = Element(frozenset(), (3, -2))
        assert act_one("a", -1, state) == act_one("a", 1, state)

    def test_input_state_is_left_unchanged(self):
        lamps = frozenset({(0, 0), (0, 2), (-1, 0)})
        state = Element(lamps, (2, 0))
        acted = act_runs(parse("a s^-1 a t a", "presentation").runs, state)
        assert acted != state
        assert state.lamps == lamps and state.pos == (2, 0)


class TestElement:
    def test_value_semantics(self):
        g = ev("s^2 a s^-2 t a t^-1")
        assert Element(frozenset(), (0, 0)) == identity()
        assert Element(frozenset(g.lamps), tuple(g.pos)) == g
        assert hash(Element(frozenset(g.lamps), g.pos)) == hash(g)
        assert {g: 1, identity(): 0}[ev("s^2 a s^-2 t a t^-1")] == 1
        assert element_from_json(element_to_json(g)) == g
        assert repr(identity()) == "Element(lamps=frozenset(), pos=(0, 0))"

    def test_immutable(self):
        g = ev("t a")
        with pytest.raises(AttributeError):
            g.pos = (0, 0)
        with pytest.raises(AttributeError):
            g.lamps = frozenset()
        assert g == Element(frozenset({(0, 0)}), (0, 1))


class TestGroupOps:
    def test_multiply_matches_concatenation(self):
        assert multiply(ev("t"), ev("a")) == ev("t a")
        assert ev("t a") == Element(frozenset({(0, 0)}), (0, 1))
        assert multiply(ev("s"), ev("a")) == ev("s a")
        assert ev("s a") == Element(frozenset({(0, 0)}), (1, 0))

    def test_identity_laws(self):
        g = ev("s a t^-1 a")
        assert multiply(identity(), g) == g
        assert multiply(g, identity()) == g

    def test_inverse_of_press(self):
        assert inverse(ev("a")) == ev("a")

    def test_inverse_of_translation(self):
        assert inverse(ev("s t")) == Element(frozenset(), (-1, -1))
        assert inverse(ev("s t")) == ev("t^-1 s^-1")

    def test_inverse_of_identity(self):
        assert inverse(identity()) == identity()

    @given(elements())
    def test_inverse_cancels(self, g):
        assert multiply(g, inverse(g)) == identity()
        assert multiply(inverse(g), g) == identity()

    @given(elements(max_n=5), elements(max_n=5), elements(max_n=5))
    def test_associativity(self, g, h, k):
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


class TestRelators:
    @given(elements())
    def test_relators_fix_every_state(self, state):
        for runs in RELATORS.values():
            assert act_runs(runs, state) == state

    @given(elements())
    def test_split_spellings_agree(self, state):
        assert act_runs(SPLIT_LEFT, state) == act_runs(SPLIT_RIGHT, state)


class TestSerialization:
    def test_round_trip(self):
        g = ev("s^2 a s^-2 t a t^-1")
        assert element_from_json(element_to_json(g)) == g

    def test_lamps_sorted(self):
        g = ev("t^3 a t^-4 a t a")
        data = element_to_json(g)
        assert data["lamps"] == sorted(data["lamps"])

    def test_rejects_off_lampstand_lamp(self):
        with pytest.raises(ValueError, match="off the lampstand"):
            element_from_json({"lamps": [[1, 1]], "pos": [0, 0]})

    def test_rejects_positive_s_axis_lamp(self):
        with pytest.raises(ValueError, match="off the lampstand"):
            element_from_json({"lamps": [[2, 0]], "pos": [0, 0]})

    def test_rejects_oversized_coordinate(self):
        with pytest.raises(ValueError, match="range"):
            element_from_json({"lamps": [], "pos": [2**32, 0]})

    def test_rejects_duplicate_lamp(self):
        with pytest.raises(ValueError, match="duplicate"):
            element_from_json({"lamps": [[0, 1], [0, 1]], "pos": [0, 0]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"lamps": [], "pos": [0.5, 0]}, "pos p must be an integer, got 0.5"),
            ({"lamps": [[0, True]], "pos": [0, 0]}, "lamp q must be an integer, got True"),
            ({"lamps": []}, "exactly the keys"),
            ({"lamps": [], "pos": [0, 0], "n": 1}, "exactly the keys"),
            ({"lamps": [], "pos": [0]}, "'pos' must be a pair"),
            ({"lamps": [], "pos": "00"}, "'pos' must be a pair"),
            ({"lamps": [[0]], "pos": [0, 0]}, "each lamp must be a pair"),
        ],
        ids=["float-pos", "bool-lamp", "missing-key", "extra-key", "short-pos",
             "string-pos", "short-lamp"],
    )
    def test_rejects_malformed_json(self, data, message):
        with pytest.raises(ValueError, match=message):
            element_from_json(data)

    @pytest.mark.parametrize("lamps", [5, None, {"0": 1}])
    def test_rejects_non_list_lamps(self, lamps):
        with pytest.raises(ValueError, match="'lamps'"):
            element_from_json({"lamps": lamps, "pos": [0, 0]})
