import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lampgrid import (
    Element,
    apply_letter,
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
from lampgrid.core import act_letters
from lampgrid.words import RELATORS, SPLIT_LEFT, SPLIT_RIGHT

from conftest import elements


def ev(text):
    return evaluate(parse(text, "presentation"))


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

    # Effects near +/-2^31 with few lamps; elsewhere out there, such as
    # (2^31 - 1, 0) or (-5, 2^31), an effect really has some 10^9 lamps.
    @pytest.mark.parametrize(
        "p, q", [(-(2**31), -(2**31)), (-(2**31), 2**30), (2**30, -7), (-(2**31), 3)]
    )
    def test_split_relation_at_far_coordinates(self, p, q):
        effects = [press_effect(pos) for pos in ((p + 1, q), (p, q), (p, q + 1))]
        assert effects[0] == effects[1] ^ effects[2]
        assert max(map(len, effects)) <= 4

    def test_cache_is_bounded(self):
        assert press_effect.cache_info().maxsize is not None


class TestApplyLetter:
    def test_translation(self):
        assert apply_letter("t", 1, identity()) == Element(frozenset(), (0, 1))

    def test_press_at_origin(self):
        assert apply_letter("a", 1, identity()) == Element(
            frozenset({(0, 0)}), (0, 0)
        )

    def test_press_above_axis(self):
        state = Element(frozenset(), (2, 0))
        assert apply_letter("a", 1, state) == Element(
            frozenset({(0, 0), (0, 2)}), (2, 0)
        )

    def test_inverse_press_equals_press(self):
        state = Element(frozenset(), (3, -2))
        assert apply_letter("a", -1, state) == apply_letter("a", 1, state)


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
        for letters in RELATORS.values():
            assert act_letters(letters, state) == state

    @given(elements())
    def test_split_spellings_agree(self, state):
        assert act_letters(SPLIT_LEFT, state) == act_letters(SPLIT_RIGHT, state)


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

    @pytest.mark.parametrize("lamps", [5, None, {"0": 1}])
    def test_rejects_non_list_lamps(self, lamps):
        with pytest.raises(ValueError, match="'lamps'"):
            element_from_json({"lamps": lamps, "pos": [0, 0]})
