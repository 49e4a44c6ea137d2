import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import lampgrid

from lampgrid import (
    Element,
    Letter,
    METRIC,
    PRESENTATION,
    Word,
    WordError,
    a_length,
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
    words,
)
from lampgrid import core
from lampgrid.core import press_effect
from lampgrid.selftest import _fold_letters as fold_letters
from lampgrid.words import (
    ACTIONS,
    METRIC_BASES,
    PRESENTATION_BASES,
    act_runs,
    expand,
    merge_runs,
)

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

    def test_unknown_alphabet(self):
        with pytest.raises(ValueError, match="unknown alphabet tag 'latin'"):
            parse("s", "latin")

    def test_compound_base_rejected_in_presentation(self):
        with pytest.raises(WordError, match="unknown base"):
            parse("sa t", PRESENTATION)

    def test_malformed_exponent(self):
        with pytest.raises(WordError, match="exponent"):
            parse("s^two", METRIC)

    @pytest.mark.parametrize("text", ["s^1_000", "s^+3", "s^\u0663"])
    def test_exponent_is_plain_ascii_digits(self, text):
        # int() alone would read them as 1000, 3 and 3.
        with pytest.raises(WordError, match="malformed exponent in token"):
            parse(text, METRIC)

    def test_exponent_may_be_zero_or_padded(self):
        assert parse("s^0 t^-0", METRIC).runs == ()
        assert parse("s^007 t^-02", METRIC).runs == ((Letter("s", 1), 7), (Letter("t", -1), 2))

    def test_exponent_past_what_int_converts(self):
        with pytest.raises(WordError, match="2\\^31"):
            parse("s^" + "9" * 5000, METRIC)

    def test_zero_exponent_omits(self):
        assert parse("s^0 a", METRIC).letters == (Letter("a", 1),)
        # Dropped before neighbours merge: "s s^0 s" is one run s^2.
        assert parse("s s^0 s", METRIC).runs == ((Letter("s", 1), 2),)

    def test_compact_mode(self):
        word = parse("asT", PRESENTATION)
        assert word.letters == (Letter("a", 1), Letter("s", 1), Letter("t", -1))

    def test_empty_text(self):
        assert parse("", METRIC).letters == ()

    def test_oversized_exponent(self):
        with pytest.raises(WordError, match="2\\^31"):
            parse("s^99999999999", METRIC)

    def test_exponent_limit_is_inclusive(self):
        assert parse("s^2147483648 t^-2147483648", METRIC).runs == (
            (Letter("s", 1), 2**31), (Letter("t", -1), 2**31)
        )
        with pytest.raises(WordError, match="2\\^31"):
            parse("s^-2147483649", METRIC)

    def test_long_power_evaluates_quickly(self):
        start = time.perf_counter()
        g = evaluate(parse("s^1000000 a", METRIC))
        assert g.pos == (1000000, 0)
        assert time.perf_counter() - start < 2.0


    def test_neighbouring_powers_merge(self):
        assert parse("s s^2", PRESENTATION) == parse("s^3", PRESENTATION)
        assert parse("s s^2", PRESENTATION).runs == ((Letter("s", 1), 3),)

    def test_opposite_powers_stay_apart(self):
        word = parse("s s^-1", METRIC)
        assert word.runs == ((Letter("s", 1), 1), (Letter("s", -1), 1))
        assert a_length(word) == 2

    def test_huge_power_is_one_run(self):
        word = parse("t^-2147483647", METRIC)
        assert word.runs == ((Letter("t", -1), 2**31 - 1),)
        assert a_length(word) == 2**31 - 1


class TestWordRuns:
    def test_letters_view_expands_runs(self):
        word = parse("a t^2 s^-1", PRESENTATION)
        assert word.letters == (
            Letter("a", 1), Letter("t", 1), Letter("t", 1), Letter("s", -1)
        )
        assert Word.from_letters(word.letters) == word

    @pytest.mark.parametrize(
        "runs",
        [
            ((Letter("s", 1), 0),),
            ((Letter("s", 1), -2),),
            ((Letter("s", 1), 1), (Letter("s", 1), 2)),
            ((Letter("s", 2), 1),),
            ((Letter("ss", 1), 1),),
        ],
    )
    def test_unnormalised_or_invalid_runs_rejected(self, runs):
        with pytest.raises(ValueError):
            Word(runs)

    def test_a_word_does_not_keep_its_alphabet(self):
        # a, s and t are metric letters too, so text spelled alike in
        # either alphabet gives one word.
        assert parse("s a t^-1", PRESENTATION) == parse("s a t^-1", METRIC)
        assert parse("at", PRESENTATION) != parse("at", METRIC)
        assert parse("at", PRESENTATION) == parse("a t", METRIC)

    def test_merge_drops_zero_counts_and_joins_neighbours(self):
        s, t = Letter("s", 1), Letter("t", 1)
        assert merge_runs([(s, 1), (t, 0), (s, 2), (t, 1)]) == ((s, 3), (t, 1))

    def test_concat_merges_at_the_seam(self):
        u, v = parse("t s^2", METRIC), parse("s^3 a", METRIC)
        assert concat(u, v).runs == parse("t s^5 a", METRIC).runs

    def test_press_parity(self):
        assert evaluate(parse("a^2000000", PRESENTATION)) == identity()
        assert evaluate(parse("a^-3", PRESENTATION)) == evaluate(parse("a", PRESENTATION))


@st.composite
def run_words(draw):
    bases = draw(st.sampled_from((PRESENTATION_BASES, METRIC_BASES)))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(bases), st.integers(-60, 60)), max_size=10
        )
    )
    return Word(merge_runs((Letter(base, 1 if k > 0 else -1), abs(k)) for base, k in pairs))


class TestRunFold:
    @given(run_words(), elements(max_n=6))
    def test_matches_letter_fold(self, word, state):
        assert act_runs(word.runs, state) == fold_letters(word.letters, state)

    @given(run_words())
    def test_format_round_trip(self, word):
        assert parse(format_word(word), METRIC) == word
        if all(base in PRESENTATION_BASES for (base, _), _ in word.runs):
            assert parse(format_word(word), PRESENTATION) == word

    @given(run_words(), elements(max_n=6), st.integers(0, 5))
    def test_segment_route_matches_the_letter_fold(self, word, state, long_run):
        # With the threshold this low, most pressing runs take the segment route.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words, "LONG_RUN", long_run)
            assert act_runs(word.runs, state) == fold_letters(word.letters, state)

    @given(run_words(), elements(max_n=6), st.integers(0, 5), st.integers(4, 40))
    def test_segment_route_evaluates_what_the_letter_fold_does(
        self, word, state, long_run, press_limit
    ):
        # With the press limit low too, a word the fold evaluates without a
        # refused press gives the same element.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "PRESS_LAMP_LIMIT", press_limit)
            press_effect.cache_clear()
            try:
                expected = fold_letters(word.letters, state)
            except ValueError:
                return
            finally:
                press_effect.cache_clear()
            patch.setattr(words, "LONG_RUN", long_run)
            assert act_runs(word.runs, state) == expected

    @given(run_words(), elements(max_n=6), st.integers(0, 40))
    def test_large_press_route_matches_the_letter_fold(self, word, state, press_limit):
        # With the limit this low, a run of three or more letters takes the
        # segment route whenever its presses are large enough.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words, "PRESS_LAMP_LIMIT", press_limit)
            assert act_runs(word.runs, state) == fold_letters(word.letters, state)

    def test_short_run_of_large_presses_is_a_segment(self, monkeypatch):
        # Thirty presses on the s-axis just below 2^20, of 2^16 to 2^19 lamps
        # each, 6,881,280 in all: as a segment, two presses.
        pressed = []

        def counted(pos):
            pressed.append(pos)
            return press_effect(pos)

        monkeypatch.setattr(words, "press_effect", counted)
        g = evaluate(parse("sa^30 s^1048545", METRIC))
        assert (g.pos, len(g.lamps)) == ((2**20 - 1, 0), 983040)
        assert len(pressed) == 2

    def test_segment_over_the_run_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(words, "LONG_RUN", 0)
        monkeypatch.setattr(words, "RUN_LAMP_LIMIT", 6)
        word = parse("s^-1 at^6 ta^7", METRIC)
        with pytest.raises(ValueError, match=r"run ta\^7: toggles 7 lamps, over the limit of 6"):
            evaluate(word)
        # Each run lights 4 lamps, within the limit; together they light 8.
        with pytest.raises(ValueError, match=r"^8 lamps lit, over the limit of 6$"):
            evaluate(parse("at^4 t^4 at^4", METRIC))
        assert evaluate(parse("at^-6 at^6", METRIC)) == identity()

    @given(
        metric_words(max_len=40),
        elements(max_n=6),
        st.sampled_from(("s", "t")),
        st.sampled_from((1, -1)),
        st.one_of(
            st.integers(core.FRAME_MIN_SPAN - 12, core.FRAME_MIN_SPAN + 12),
            st.integers(core.FRAME - 40, core.FRAME + 40),
        ),
    )
    def test_matches_letter_fold_across_the_band_edges(self, word, state, base, sign, k):
        # s^k or t^k acts first, so the word presses below, inside and
        # beyond the band of frame presses, across one of its edges.
        word = concat(word, Word(((Letter(base, sign), k),)))
        assert act_runs(word.runs, state) == fold_letters(word.letters, state)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([base for base in METRIC_BASES if base not in ("s", "t")]),
                st.sampled_from((1, -1)),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(("s", "t")),
        st.integers(core.FRAME_MIN_SPAN, 60),
        st.integers(1, 40),
    )
    def test_lamp_limit_is_exact_in_the_frame(self, presses, base, k, limit):
        # Runs that press in the band, after s^k or t^k: the first run after
        # which over `limit` lamps are lit fails, with that count, as the
        # letter fold counts it.
        word = Word(merge_runs([(Letter(b, sign), count) for b, sign, count in presses]))
        word = concat(word, Word(((Letter(base, 1), k),)))
        expected = None
        for r in range(1, len(word.runs) + 1):
            before, _, after = ACTIONS[word.runs[-r][0]]
            lit = len(fold_letters(Word(word.runs[-r:]).letters, identity()).lamps)
            if (before or after) and lit > limit:
                expected = f"^{lit} lamps lit, over the limit of {limit}$"
                break
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words, "RUN_LAMP_LIMIT", limit)
            if expected is None:
                assert act_runs(word.runs, identity()) == fold_letters(word.letters, identity())
            else:
                with pytest.raises(ValueError, match=expected):
                    act_runs(word.runs, identity())

    def test_long_lampstand_runs_cancel(self):
        # Each run toggles 2^20 + 1 one-lamp presses on the t-axis.
        assert evaluate(parse("at^1048577 at^-1048577", METRIC)) == identity()


def cli(*argv):
    src = str(Path(lampgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lampgrid.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc, time.perf_counter() - start


class TestExtremeExponents:
    @pytest.mark.parametrize(
        "word, pos, lamps",
        [
            ("s^2147483647 t^-2147483647", (2**31 - 1, -(2**31 - 1)), "(none)"),
            ("a^2147483647", (0, 0), "(0,0)"),
        ],
    )
    def test_eval_answers_at_once(self, word, pos, lamps):
        proc, seconds = cli("eval", word)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"pos: ({pos[0]},{pos[1]})\nlamps: {lamps}\n"
        assert seconds < 1.0

    # (2^31 - 1, 0) lights every t-axis offset that is a submask of 2^31 - 1;
    # (-5, 2^31 - 1) lights 5 s-axis lamps and the 2^30 - 1 t-axis offsets
    # below 2^31 - 5 that lack bit 2.
    @pytest.mark.parametrize(
        "word, lamps",
        [("a s^2147483647", 2**31), ("a t^2147483647 s^-5", 2**30 + 4)],
    )
    def test_huge_press_exits_1(self, word, lamps):
        proc, seconds = cli("eval", word)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"toggles {lamps} lamps" in proc.stderr
        assert seconds < 1.0

    # The presses at p < 2^20 on the s-axis toggle 3^20 lamps one by one;
    # as a segment they leave (0, 2^20 - 1).
    @pytest.mark.parametrize("count", [2**20, 3000000])
    def test_long_pressing_run_answers_at_once(self, count):
        proc, seconds = cli("eval", f"sa^{count}", "--alphabet", "metric", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pos"] == [count, 0]
        assert seconds < 1.0

    def test_sa_segment_to_a_power_of_two(self):
        assert evaluate(parse("sa^1048576", METRIC)) == Element(
            frozenset({(0, 2**20 - 1)}), (2**20, 0)
        )

    def test_long_pressing_run_over_the_limit_names_the_run(self):
        # It lights the t-axis lamps 1 .. 2^31 - 1.
        proc, seconds = cli("eval", "at^2147483647", "--alphabet", "metric")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "run at^2147483647: toggles 2147483647 lamps" in proc.stderr
        assert seconds < 1.0


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
        expanded = Word.from_letters(Letter(b, s) for b, s in expand(word))
        assert evaluate(word) == evaluate(expanded)

    @given(metric_words(max_len=12), metric_words(max_len=12))
    def test_homomorphism(self, u, v):
        assert evaluate(concat(u, v)) == multiply(evaluate(u), evaluate(v))

    @given(metric_words(max_len=15))
    def test_word_inverse(self, word):
        assert evaluate(inverse_word(word)) == inverse(evaluate(word))

    def test_press_cache_holds_about_the_lamp_limit(self, cold_press_cache, monkeypatch):
        # 200 distinct presses at (7991..8190, 0), of 2^6 to 2^12 lamps each:
        # under a limit of 2^14 lamps the cache keeps only presses with
        # |p| + |q| < 16, so none of them, where 1024 entries alone would
        # keep all 200 (about 24 MiB).
        monkeypatch.setattr(core, "PRESS_LAMP_LIMIT", 2**14)
        word = parse("a s^-1 " * 200 + "s^8191", PRESENTATION)
        tracemalloc.start()
        try:
            g = evaluate(word)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
        assert len(g.lamps) == 7168
        assert g == fold_letters(word.letters, identity())


class TestALength:
    def test_counts_letters(self):
        assert a_length(parse("sa", METRIC)) == 1
        assert a_length(parse("s a", METRIC)) == 2
        assert a_length(parse("", METRIC)) == 0

    def test_counts_a_presentation_word(self):
        assert a_length(parse("s^3 a t^-2", PRESENTATION)) == 6
        assert a_length(parse("asTa", PRESENTATION)) == 4


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
