"""Words over the metric generating set, read from two alphabets of text.

A letter is a base of the nine-element generating set

    A = {a, s, t, at, ta, ata, as, sa, asa}

or its inverse; a press at a vertex the lamplighter is leaving or arriving
at costs nothing extra.  A holds the presentation generators a, s and t,
so a word keeps no alphabet: it only tells :func:`parse` how to read text,
where ``at`` is two presentation letters or one metric letter.  Words are
read right to left.  A compound base acts through its written characters,
again rightmost first, so the single letter ``at`` means "step in t, then
press".  :func:`expand` states that rule; ``ACTIONS`` compiles it once per
letter.

A :class:`Word` is stored as runs: (letter, count) pairs in written order,
merged by :func:`merge_runs` so that no two neighbours share a letter and
every count is at least 1.  Equal letter sequences therefore give equal
words, and ``s^k`` costs O(1) however large k is.  :func:`act_runs`, the
one word evaluator, folds the runs: a run that presses nothing moves by
its count at once, ``a^k`` presses once when k is odd and not at all when
it is even, ``ata^k`` and ``asa^k`` press at their two ends, and any other
run presses a segment of its line, as one closed form when it is long.
Each press takes one of the three routes by span that :mod:`lampgrid.core`
states: the frame's presses fold as ints in a fixed frame, the others as
lamp sets.

Inverses are free: moves are drawn from A together with the inverses of
its letters.  Since ``a`` is an involution this gives 17 distinct moves,
which is what :func:`move_elements` returns.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    COORD_LIMIT,
    FRAME,
    FRAME_MIN_SPAN,
    PRESS_LAMP_LIMIT,
    Element,
    Pos,
    cached_press,
    frame_lamps,
    frame_press,
    identity,
    press_effect,
    press_size,
)

PRESENTATION = "presentation"
METRIC = "metric"

PRESENTATION_BASES = ("a", "s", "t")
METRIC_BASES = ("a", "s", "t", "at", "ta", "ata", "as", "sa", "asa")

_COMPACT_RE = re.compile(r"[astAST]+")


class WordError(ValueError):
    """Malformed word text: unknown base, bad exponent, or bad character."""


class Letter(NamedTuple):
    base: str
    sign: int


Run = tuple[Letter, int]

# Each base's (positive, inverse) letters per alphabet, built once, so that
# :func:`parse` looks a token's letter up instead of building it.
_BASE_LETTERS = {
    alphabet: {base: (Letter(base, 1), Letter(base, -1)) for base in bases}
    for alphabet, bases in ((PRESENTATION, PRESENTATION_BASES), (METRIC, METRIC_BASES))
}
# The 18 letters a word may hold.
_LETTERS = frozenset(letter for pair in _BASE_LETTERS[METRIC].values() for letter in pair)


def merge_runs(pairs) -> tuple[Run, ...]:
    """Normalised runs of ``(letter, count)`` pairs given in written order.

    Zero counts are dropped and neighbours with the same letter merged.
    """
    runs: list[Run] = []
    for letter, count in pairs:
        if not count:
            continue
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + count)
        else:
            runs.append((letter, count))
    return tuple(runs)


@dataclass(frozen=True)
class Word:
    """Normalised runs (:func:`merge_runs`) of the 18 letters; the alphabet is a parse option."""

    runs: tuple[Run, ...]

    def __post_init__(self):
        previous = None
        for letter, count in self.runs:
            if letter not in _LETTERS:
                raise ValueError(f"letter {letter!r} is not a metric letter")
            if type(count) is not int or count < 1 or letter == previous:
                raise ValueError("runs must have counts >= 1 and no equal neighbours")
            previous = letter

    @classmethod
    def from_letters(cls, letters) -> Word:
        return cls(merge_runs((letter, 1) for letter in letters))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The letters one by one, in written order: O(letters), not O(runs)."""
        return tuple(letter for letter, count in self.runs for _ in range(count))


EMPTY = Word(())


def parse(text: str, alphabet: str = METRIC) -> Word:
    """Parse word text.

    Tokens are whitespace separated, each a base of ``alphabet`` with an
    optional ``^k`` exponent: ASCII digits after an optional ``-``
    (negative for inverse letters, zero to omit).
    Presentation text made only of the characters ``astAST`` with no
    separators is read compactly, uppercase meaning inverse.
    """
    if alphabet not in _BASE_LETTERS:
        raise ValueError(f"unknown alphabet tag {alphabet!r}")
    letters = _BASE_LETTERS[alphabet]
    text = text.strip()
    if alphabet == PRESENTATION and text and _COMPACT_RE.fullmatch(text):
        return Word.from_letters(Letter(ch.lower(), 1 if ch.islower() else -1) for ch in text)
    pairs: list[Run] = []
    for token in text.split():
        base, caret, exponent_text = token.partition("^")
        pair = letters.get(base)
        if pair is None:
            raise WordError(f"unknown base token {base!r}")
        if caret:
            # Plain ASCII digits: int() alone also reads "+3", "1_000" and
            # the digits of other scripts.
            if not (exponent_text.isascii() and exponent_text.removeprefix("-").isdigit()):
                raise WordError(f"malformed exponent in token {token!r}")
            try:
                exponent = int(exponent_text)
            except ValueError:  # more digits than int() converts
                raise WordError(f"exponent in token {token!r} exceeds +/-2^31") from None
            if abs(exponent) > COORD_LIMIT:
                raise WordError(f"exponent in token {token!r} exceeds +/-2^31")
            pairs.append((pair[exponent < 0], abs(exponent)))
        else:
            pairs.append((pair[0], 1))
    return Word(merge_runs(pairs))


def format_word(word: Word) -> str:
    """Token text with one ``^k`` token per run; inverse of :func:`parse`."""
    return " ".join(
        base if count == 1 and sign == 1 else f"{base}^{count * sign}"
        for (base, sign), count in word.runs
    )


def concat(u: Word, v: Word) -> Word:
    return Word(merge_runs(u.runs + v.runs))


def inverse_word(word: Word) -> Word:
    return Word(
        merge_runs((Letter(base, -sign), count) for (base, sign), count in reversed(word.runs))
    )


def expand(word: Word) -> tuple[tuple[str, int], ...]:
    """Presentation-letter sequence equivalent to ``word``, as written.

    A compound base contributes its characters in written order; an
    inverse letter contributes them reversed with flipped signs.
    """
    out: list[tuple[str, int]] = []
    for (base, sign), count in word.runs:
        chars = base if sign == 1 else base[::-1]
        out.extend([(ch, sign) for ch in chars] * count)
    return tuple(out)


def _action(letter: Letter) -> tuple[bool, Pos, bool]:
    # The expansion read right to left is presses around at most one step.
    chrono = "".join(ch for ch, _ in reversed(expand(Word(((letter, 1),)))))
    step = {"": (0, 0), "s": (letter.sign, 0), "t": (0, letter.sign)}[chrono.strip("a")]
    return chrono.startswith("a"), step, step != (0, 0) and chrono.endswith("a")


# (press before, step, press after) of each of the 18 letters,
# compiled once from its expansion: 9 bases times 2 signs.
ACTIONS: dict[Letter, tuple[bool, Pos, bool]] = {
    letter: _action(letter)
    for letter in (Letter(base, sign) for base in METRIC_BASES for sign in (1, -1))
}


# A run pressing along a line with more letters than this is pressed as one
# :func:`_segment_effect`.  Below it, one-letter presses (cached, under a
# microsecond each) are cheaper than the segment's two presses, sort and
# division: the two cross at 24 to 32 letters.  The hexagon benchmark's
# witnesses press in runs of at most 27 letters (seeds 1 to 5).
LONG_RUN = 32

# A run's net effect is refused when it toggles more lamps than this, twice
# what one press may toggle, and so is a lamp set that runs build up past it.
RUN_LAMP_LIMIT = 2 * PRESS_LAMP_LIMIT


def _segment_effect(start: Pos, step: Pos, count: int) -> set[Pos]:
    """Lamps toggled by pressing at ``start`` and ``count - 1`` more steps on.

    A press at (p, q) is x^q (1+x)^p (:func:`press_effect`), and a step
    multiplies it by m = x along t and by m = 1+x along s.  So with e the
    press at the segment's lower end and f the press one step past its
    upper end, the presses sum to the geometric sum (e + f) / d with
    d = m + 1, that is 1+x along t and x along s; with f the last press of
    the segment instead, to (e + f) / d + f.  Whichever f has fewer lamps
    (:func:`press_size`) is used.  The division is read off the sorted
    lamps of e + f as intervals of the lampstand, so the cost is that of
    the two presses and of the lamps returned: a long segment of one-lamp
    presses on the lampstand never builds the large effects of presses
    just off it.  ``ValueError`` when a press it uses is over
    ``PRESS_LAMP_LIMIT``, which happens only when one of the segment's own
    presses is, or when the segment toggles more than ``RUN_LAMP_LIMIT``
    lamps.
    """
    (p, q), (dp, dq) = start, step
    if dp + dq < 0:
        p, q = p + (count - 1) * dp, q + (count - 1) * dq
    dp, dq = abs(dp), abs(dq)
    past = (p + count * dp, q + count * dq)
    last = (past[0] - dp, past[1] - dq)
    if press_size(past) < press_size(last):
        singles = set()
        ends = press_effect((p, q)) ^ press_effect(past)
    else:
        singles = set(press_effect(last))
        ends = press_effect((p, q)) ^ singles
    # Lit lamps as half-open intervals [lo, hi) of t-axis offsets j, lamp
    # (0, j), and of s-axis coordinates i < 0, lamp (i, 0); each axis is
    # sorted only where its lamps become intervals.
    t_axis = [j for i, j in ends if i == 0]
    s_axis = sorted(i for i, _ in ends if i < 0)
    if dq:
        # Over 1 + x: (1+x)^i becomes (1+x)^(i-1); a Laurent polynomial with
        # an odd number of terms leaves (1+x)^-1 over, and the rest is
        # x^a + x^b + ... = (1+x) (x^a + ... + x^(b-1)) + ....
        singles ^= {(i - 1, 0) for i in s_axis}
        if len(t_axis) & 1:
            t_axis = set(t_axis) ^ {0}
            singles ^= {(-1, 0)}
        t_axis = sorted(t_axis)
        s_axis = []
    else:
        # Over x: x^j becomes x^(j-1), and (1+x)^-k becomes
        # (1+x)^-k + ... + (1+x)^-1 + x^-1, so s-axis lamp i is lit when an
        # odd number of the lamps of e + f lie at i or below.
        singles ^= {(0, j - 1) for j in t_axis}
        if len(s_axis) & 1:
            singles ^= {(0, -1)}
            s_axis.append(0)
        t_axis = []
    size = len(singles) + sum(t_axis[1::2]) - sum(t_axis[::2])
    size += sum(s_axis[1::2]) - sum(s_axis[::2])
    if t_axis or s_axis:
        for i, j in singles:
            if bisect_right(t_axis, j) & 1 if i == 0 else bisect_right(s_axis, i) & 1:
                size -= 2
    if size > RUN_LAMP_LIMIT:
        raise ValueError(f"toggles {size} lamps, over the limit of {RUN_LAMP_LIMIT}")
    for lo, hi in zip(t_axis[::2], t_axis[1::2]):
        singles.symmetric_difference_update([(0, j) for j in range(lo, hi)])
    for lo, hi in zip(s_axis[::2], s_axis[1::2]):
        singles.symmetric_difference_update([(i, 0) for i in range(lo, hi)])
    return singles


def _presses_exceed_limit(first: Pos, count: int) -> bool:
    """True when ``count`` presses the size of the one at ``first`` toggle
    over ``PRESS_LAMP_LIMIT`` lamps.

    A press toggles at most |p| + |q| + 1 lamps, so the size is counted
    (:func:`press_size`) only for presses far from the origin.
    """
    p, q = first
    return (
        count * (abs(p) + abs(q) + 1) > PRESS_LAMP_LIMIT
        and count * press_size(first) > PRESS_LAMP_LIMIT
    )


def act_runs(runs, state: Element) -> Element:
    """Act on ``state`` by written runs, rightmost first.

    A run that presses nothing moves by its count times its step at once.
    A run of ``a`` (or ``a^-1``) presses once if its count is odd, since a
    press is an involution, and not at all if it is even.  A run pressing
    on both sides of each step (``ata``, ``asa`` and inverses) presses
    every inner vertex twice, so only its two ends.  Any other run presses
    a segment of its line: letter by letter, or as one
    :func:`_segment_effect`, whose ``ValueError`` names the run, when that
    is cheaper: past ``LONG_RUN`` letters, or past two letters when their
    presses, each the size of the first, would toggle over
    ``PRESS_LAMP_LIMIT`` lamps in all.  The segment builds two presses,
    so for presses that large it costs no more from three letters on, and
    its gain grows with the count.  The runs are folded on a mutable lamp
    set, two frame ints and a position; ``state`` itself is left as it
    was.  Each press takes its route by span, as :mod:`lampgrid.core`
    states, tested once: a frame press XORs into the frame ints
    (:func:`~lampgrid.core.frame_press`), any other press and every
    segment into the set, and the frame's lamps join the set once, at the
    end.  After each run that presses, at most ``RUN_LAMP_LIMIT`` lamps
    may be lit, else ``ValueError`` naming the count, so runs that each
    stay within the limit cannot build up an unbounded set.  The frame
    pressed into since it was last read in holds at most ``framed``
    lamps, each press's |p| + |q| + 1; when the set's size plus that could
    pass the limit, the frame is read into the set first and the set's
    size is the count.
    """
    lamps = set(state.lamps)
    s_axis = t_axis = framed = 0
    p, q = state.pos
    for letter, count in reversed(runs):
        before, (dp, dq), after = ACTIONS[letter]
        if not (before or after):
            p += count * dp
            q += count * dq
            continue
        if not (dp or dq):
            at = [(p, q)] if count & 1 else []
        elif before and after:
            at = [(p, q), (p + count * dp, q + count * dq)]
        else:
            first = (p, q) if before else (p + dp, q + dq)
            if count > LONG_RUN or count > 2 and _presses_exceed_limit(first, count):
                try:
                    lamps ^= _segment_effect(first, (dp, dq), count)
                except ValueError as exc:
                    raise ValueError(f"run {letter.base}^{letter.sign * count}: {exc}") from None
                at = []
            else:
                at = [first]
                x, y = first
                for _ in range(count - 1):
                    x += dp
                    y += dq
                    at.append((x, y))
        p += count * dp
        q += count * dq
        for pos in at:
            span = abs(pos[0]) + abs(pos[1])
            if span < FRAME_MIN_SPAN:
                lamps ^= cached_press(pos)
            elif span < FRAME:
                s_bits, t_bits = frame_press(pos)
                s_axis ^= s_bits
                t_axis ^= t_bits
                framed += span + 1
            else:
                lamps ^= press_effect(pos)
        if len(lamps) + framed > RUN_LAMP_LIMIT:
            lamps.symmetric_difference_update(frame_lamps(s_axis, t_axis))
            s_axis = t_axis = framed = 0
            if len(lamps) > RUN_LAMP_LIMIT:
                raise ValueError(f"{len(lamps)} lamps lit, over the limit of {RUN_LAMP_LIMIT}")
    if s_axis or t_axis:
        lamps.symmetric_difference_update(frame_lamps(s_axis, t_axis))
    return Element(frozenset(lamps), (p, q))


def evaluate(word: Word) -> Element:
    """Element represented by ``word``: its runs acting on the identity."""
    return act_runs(word.runs, identity())


def a_length(word: Word) -> int:
    """Number of letters; each letter of either sign costs one."""
    return sum(count for _, count in word.runs)


def lampstand_points(n: int) -> list[Pos]:
    """Lampstand points of the radius-``n`` hexagon, in canonical order."""
    return [(-i, 0) for i in range(n, 0, -1)] + [(0, j) for j in range(-n, n + 1)]


_HEX_CORNERS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def random_element(n: int, seed) -> Element:
    """Deterministic pseudo-random element within the radius-``n`` hexagon.

    Mixes uniform draws with boundary cases: hexagon corner positions, the
    empty lamp set, and the full lampstand segment.
    """
    if n < 1:
        raise ValueError("random_element requires n >= 1")
    rng = random.Random(f"lampgrid:{n}:{seed}")
    stand = lampstand_points(n)

    roll = rng.random()
    if roll < 0.15:
        cp, cq = _HEX_CORNERS[rng.randrange(6)]
        pos = (cp * n, cq * n)
    else:
        while True:
            pos = (rng.randint(-n, n), rng.randint(-n, n))
            if abs(pos[0] + pos[1]) <= n:
                break

    roll = rng.random()
    if roll < 0.08:
        lamps: frozenset[Pos] = frozenset()
    elif roll < 0.16:
        lamps = frozenset(stand)
    else:
        density = rng.random()
        lamps = frozenset(pt for pt in stand if rng.random() < density)
    return Element(lamps, pos)


def move_elements() -> tuple[tuple[Letter, Element], ...]:
    """The distinct unit moves: metric letters and their inverses, deduplicated.

    ``a`` is its own inverse, so there are 17 moves rather than 18.
    """
    seen: dict[Element, Letter] = {}
    for letter in ACTIONS:
        seen.setdefault(act_runs(((letter, 1),), identity()), letter)
    return tuple((letter, el) for el, letter in seen.items())


# Defining relations, as written presentation runs.  Each acts as the
# identity on every state; `act_runs` on any state replays them.
RELATORS: dict[str, tuple[Run, ...]] = {
    "button-involution": parse("a a", PRESENTATION).runs,
    "presses-commute": parse("a^-1 t^-1 a^-1 t a t^-1 a t", PRESENTATION).runs,
    "translations-commute": parse("s^-1 t^-1 s t", PRESENTATION).runs,
    "press-split": parse("s^-1 a s t^-1 a^-1 t a^-1", PRESENTATION).runs,
}

# Two spellings of the same element: pressing one s-step over equals
# pressing here and one t-step over.
SPLIT_LEFT = parse("s^-1 a s", PRESENTATION).runs
SPLIT_RIGHT = parse("a t^-1 a t", PRESENTATION).runs
