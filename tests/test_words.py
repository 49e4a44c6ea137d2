import time

import pytest
from hypothesis import given

from lampgrid import (
    Element,
    Letter,
    METRIC,
    PRESENTATION,
    Word,
    WordError,
    a_length,
    canonical_word,
    concat,
    evaluate,
    format_word,
    identity,
    inverse,
    inverse_word,
    metric,
    move_elements,
    multiply,
    parse,
    random_element,
)
from lampgrid.words import ACTIONS, expand

from conftest import elements, metric_words


class TestParse:
    def test_exponent_expansion(self):
        word = parse("s^3 a s^-1", PRESENTATION)
        assert word.letters == (
            Letter("s", 1),
            Letter("s", 1),
            Letter("s", 1),
            Letter("a", 1),
            Letter("s", -1),
        )

    def test_metric_tokens(self):
        word = parse("sa t^-2", METRIC)
        assert word.letters == (Letter("sa", 1), Letter("t", -1), Letter("t", -1))
        assert a_length(word) == 3

    def test_unknown_base(self):
        with pytest.raises(WordError, match="unknown base"):
            parse("x", METRIC)

    def test_compound_base_rejected_in_presentation(self):
        with pytest.raises(WordError, match="unknown base"):
            parse("sa t", PRESENTATION)

    def test_malformed_exponent(self):
        with pytest.raises(WordError, match="exponent"):
            parse("s^two", METRIC)

    def test_zero_exponent_omits(self):
        assert parse("s^0 a", METRIC).letters == (Letter("a", 1),)

    def test_compact_mode(self):
        word = parse("asT", PRESENTATION)
        assert word.letters == (Letter("a", 1), Letter("s", 1), Letter("t", -1))

    def test_empty_text(self):
        assert parse("", METRIC).letters == ()

    def test_oversized_exponent(self):
        with pytest.raises(WordError, match="2\\^31"):
            parse("s^99999999999", METRIC)

    def test_long_power_evaluates_quickly(self):
        start = time.perf_counter()
        g = evaluate(parse("s^1000000 a", METRIC))
        assert g.pos == (1000000, 0)
        assert time.perf_counter() - start < 2.0


class TestFormat:
    def test_run_length(self):
        word = parse("s s s a t^-2", PRESENTATION)
        assert format_word(word) == "s^3 a t^-2"

    @given(metric_words())
    def test_round_trip(self, word):
        assert parse(format_word(word), METRIC) == word


class TestEvaluate:
    def test_single_press(self):
        assert evaluate(parse("a", PRESENTATION)) == Element(
            frozenset({(0, 0)}), (0, 0)
        )

    def test_depth_one_anchor_word(self):
        got = evaluate(parse("s a s^-1 t a t^-2 a t", PRESENTATION))
        assert got == Element(frozenset({(-1, 0), (0, 1), (0, -1)}), (0, 0))

    def test_commutator_of_translations(self):
        assert evaluate(parse("s^-1 t^-1 s t", PRESENTATION)) == identity()

    def test_compound_letter_reading(self):
        # "at" steps in t first, then presses; "ta" presses first
        assert evaluate(parse("at", METRIC)) == Element(frozenset({(0, 1)}), (0, 1))
        assert evaluate(parse("ta", METRIC)) == Element(frozenset({(0, 0)}), (0, 1))

    @given(metric_words())
    def test_matches_presentation_expansion(self, word):
        expanded = Word(
            tuple(Letter(b, s) for b, s in expand(word)), PRESENTATION
        )
        assert evaluate(word) == evaluate(expanded)

    @given(metric_words(max_len=12), metric_words(max_len=12))
    def test_homomorphism(self, u, v):
        assert evaluate(concat(u, v)) == multiply(evaluate(u), evaluate(v))

    @given(metric_words(max_len=15))
    def test_word_inverse(self, word):
        assert evaluate(inverse_word(word)) == inverse(evaluate(word))


class TestALength:
    def test_counts_letters(self):
        assert a_length(parse("sa", METRIC)) == 1
        assert a_length(parse("s a", METRIC)) == 2
        assert a_length(parse("", METRIC)) == 0

    def test_requires_metric(self):
        with pytest.raises(ValueError, match="metric"):
            a_length(parse("a", PRESENTATION))


class TestCanonicalWord:
    def test_identity_is_empty(self):
        assert canonical_word(identity()).letters == ()

    def test_origin_press(self):
        assert canonical_word(Element(frozenset({(0, 0)}), (0, 0))) == parse(
            "a", PRESENTATION
        )

    def test_pure_translation(self):
        word = canonical_word(Element(frozenset(), (2, -1)))
        assert all(letter.base != "a" for letter in word.letters)
        assert evaluate(word) == Element(frozenset(), (2, -1))

    @given(elements())
    def test_round_trip(self, g):
        word = canonical_word(g)
        assert word.alphabet == PRESENTATION
        assert evaluate(word) == g


class TestRandomElement:
    def test_deterministic(self):
        assert random_element(3, 17) == random_element(3, 17)

    def test_within_hexagon(self):
        from lampgrid import hex_param

        for seed in range(40):
            assert hex_param(random_element(3, seed)) <= 3

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            random_element(0, 1)


class TestMoves:
    def test_seventeen_distinct_moves(self):
        moves = move_elements()
        assert len(moves) == 17
        assert len({el for _, el in moves}) == 17

    def test_moves_step_at_most_one(self):
        for _, el in move_elements():
            assert abs(el.pos[0]) + abs(el.pos[1]) <= 1


# The move table written out by hand, the oracle of the one compiled from
# ACTIONS.  Reading right to left, "at" steps in t and then presses, "ta"
# presses and then steps, and inverses swap the roles.  Keys are
# (step, press before, press after).
HAND_MOVE_LETTERS = {}
for _step, _plain, _pre, _post, _both in (
    ((0, 1), ("t", 1), ("ta", 1), ("at", 1), ("ata", 1)),
    ((0, -1), ("t", -1), ("at", -1), ("ta", -1), ("ata", -1)),
    ((1, 0), ("s", 1), ("sa", 1), ("as", 1), ("asa", 1)),
    ((-1, 0), ("s", -1), ("as", -1), ("sa", -1), ("asa", -1)),
):
    HAND_MOVE_LETTERS[(_step, False, False)] = Letter(*_plain)
    HAND_MOVE_LETTERS[(_step, True, False)] = Letter(*_pre)
    HAND_MOVE_LETTERS[(_step, False, True)] = Letter(*_post)
    HAND_MOVE_LETTERS[(_step, True, True)] = Letter(*_both)


class TestLetterTable:
    def test_move_letters_match_hand_table(self):
        assert len(HAND_MOVE_LETTERS) == 16
        assert metric._MOVE_LETTERS == HAND_MOVE_LETTERS

    def test_every_letter_has_an_action(self):
        assert len(ACTIONS) == 18
        assert len(move_elements()) == 17
