"""Word-metric machinery: witnesses, lower bounds, balls, and depth certificates.

Distances are taken in the 17-move metric of the generating set
``A = {a, s, t, at, ta, ata, as, sa, asa}`` together with inverses; see
:mod:`lampgrid.words`.  The central geometric object is the hexagon

    H_n = { (p, q) : |p| <= n, |q| <= n, |p + q| <= n }

with corners (n,0), (-n,0), (0,n), (0,-n), (n,-n), (-n,n).  Every element
g but the origin press ``a`` (length 1) has length
:func:`halfplane_bound`\\ (g): the half-plane lemma gives the lower side,
and :func:`witness_word`, the one witness builder, a word of that length.
The paper builds the t-axis presses of a geodesic with a trapezoid;
here the back-substitution of :func:`witness_word` does that job for
every element.  Inside H_n the bound is at most 6n, and the triple-lamp
anchor g_n of :func:`make_gn` needs exactly 6n.  :func:`certify_depth`
bounds every neighbour of g_n within distance k as it searches them:
below by the half-plane lemma, above by a replayed word, either a fresh
witness or a replayed parent word plus one letter, in one loop that grows
and bounds its ball a layer at a time.  So both of its verdicts are
proofs: depth > k when all stay within 6n, depth = |b| for the first b,
in breadth-first order, that leaves, whose replayed witness it prints.
For n <= 6 that b is s^(2n+1): depth(g_n) = 2n + 1.

Breadth-first searches grow one of two searches.  The balls of
:func:`sphere_sizes` and :func:`certify_depth` start at the identity with
a radius fixed up front, so they grow :class:`_PackedBall`, which holds a
state as one int; certify turns a key into an :class:`Element` only where
its proof needs one.  :func:`ball_with_depths` and both sides of
:func:`search_distance` grow the frozenset :class:`_Search`, which starts
anywhere: it is the reference the packed ball is tested against.  Both
are sequential and deterministic: given the same inputs they produce
identical counts and certificates.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from itertools import product, repeat
from operator import neg
from sys import getsizeof

from .core import (
    Element,
    LampSet,
    Pos,
    bit_offsets,
    check_press,
    identity,
    multiply,
    press_effect,
)
from .words import (
    ACTIONS,
    EMPTY,
    METRIC,
    Letter,
    Word,
    a_length,
    act_runs,
    evaluate,
    format_word,
    merge_runs,
    move_elements,
    parse,
)

DEFAULT_MEMORY_LIMIT_MB = 2048

# Bytes one recorded search state holds, by sys.getsizeof on the running
# interpreter: its Element, a tuple that getsizeof counts whole, its slot in
# the depth table and its pointer in its layer's list.  A search holds each
# distinct lamp set and position once (_Budget.charge) and charges it once,
# with its slot in the search's table: a lamp set its frozenset and one pair
# per lamp, a position its pair.  Left out is the second table a dict holds
# while it resizes; the pairs a lamp set shares with others, charged again
# in every set, pay for it.  So the charge tracks the traced peak closely
# rather than erring high; test_charge_covers_traced_peak holds it there.
_POINTER_COST = 8
_PAIR_COST = getsizeof((0, 0))
_SLOT_COST = getsizeof(dict.fromkeys(range(1024))) // 1024
_INT_COST = getsizeof(2**30)
_STATE_COST = getsizeof(identity()) + _SLOT_COST + _POINTER_COST
# certify_depth also keeps, for each state of the layer it bounds, its origin
# and its bound, an item of each of two array('q') rows, which over-allocate
# by 1/16 as they grow.
_ROW_ITEM_COST = array("q").itemsize
_BOUND_COST = 2 * _ROW_ITEM_COST + _ROW_ITEM_COST // 8
# A press of a witness holds its position pair and coordinates, a slot in
# each of the press lists of the solve and the fuser's set, a stop pair on
# its leg and up to two runs; on replay a lampstand press caches its
# one-lamp effect.  The lamps the solve leaves lit are presses too.
_PRESS_COST = (
    getsizeof(frozenset({(0, 0)})) + 4 * _PAIR_COST + 3 * _INT_COST + 4 * _SLOT_COST
)
# The solve visits no vertex, but it holds ints of up to F + D + P + Q
# bits, the box's span, and while it reads more than 64 presses off a line
# (_line), two strings of a byte per bit of the line: on g_(10^5) and
# g_(10^6), 0.67 bytes a bit of span at its traced peak.  Its time is some
# tens of shifts and XORs of those ints.  A walk has at least span
# vertices, and it is charged a pointer per vertex before the solve
# starts, which pays for both: a walk at the input limit (2^31 vertices)
# meets the default cap at once, while an anchor's walk of 6n vertices
# fits it for n up to 4*10^7.
_WALK_COST = _POINTER_COST
# Frames, the path and the word of one witness on a small box: about 1 kB
# by tracemalloc, rounded up with room.
_SOLVE_COST = 4096
# A built press holds its frozenset, by getsizeof, and a pair and an int per
# lamp.  While it is built it also holds a list pointer per lamp, and its
# set's table moves to a larger one as it fills (_table_entries): at most
# 8.42 entries of 16 bytes per lamp, at 19 lamps.  So _LAMP_COST, with nine
# entries, bounds what building a press holds per lamp, whatever its size.
_ENTRY_COST = 16
_HELD_LAMP_COST = _PAIR_COST + _INT_COST
_LAMP_COST = _HELD_LAMP_COST + _POINTER_COST + 9 * _ENTRY_COST
_EMPTY_SET_COST = getsizeof(frozenset())
# A search's press table holds each press under its position pair.
_EFFECT_COST = _SLOT_COST + _PAIR_COST
# A position's row of seven presses: its slot in the row table, the tuple
# of effects and the pair that holds it with its lamp count.
_ROW_COST = _SLOT_COST + getsizeof((None,) * 7) + _PAIR_COST
# A row of the packed ball: its slot and a tuple of 17 (mask, delta) pairs.
_PACKED_ROW_COST = _SLOT_COST + getsizeof((None,) * 17) + 17 * _PAIR_COST
# Expanding one state XORs its lamp set with each press of its row, and
# the seven new sets live until the next state: at most eight entries per
# lamp of either side (_Budget.widen).
_XOR_LAMP_COST = 8 * _ENTRY_COST
# What one search holds beside its states, presses and XOR entries, charged
# when it starts (_Search): its frames, lists and tables before they grow,
# about 0.7 kB by tracemalloc on B(0), which expands nothing (rounded up to
# 1 KiB), and the seven XORs' empty sets.  Every larger ball's other
# charges cover it.
_SEARCH_COST = 1024 + 7 * getsizeof(frozenset())


def _table_entries(n: int) -> int:
    """Most entries a set's table holds, beside the set, while n keys go in.

    CPython keeps a set of up to 8 entries inside the object.  When a key
    fills it to 3/5, the table moves to the least power of two above four
    times the keys it holds (twice, past 50,000 keys), and for that moment
    both tables are held.
    """
    size = peak = 0
    while True:
        table = size or 8
        filled = (3 * (table - 1) + 4) // 5
        if n < filled:
            return peak
        grown = 8
        while grown <= filled * (2 if filled > 50000 else 4):
            grown <<= 1
        peak, size = max(peak, size + grown), grown


# A dict's table holds an index slot per slot and an entry of a hash, a key
# and a value per key it can hold; _DICT_COST is the rest, by getsizeof of a
# dict of 8 slots, 1-byte index slots and 5 entries.
_DICT_ENTRY_COST = 3 * _POINTER_COST
_DICT_COST = getsizeof({0: 0}) - 8 - 5 * _DICT_ENTRY_COST


def _dict_table(keys: int) -> tuple[int, int]:
    """The table an insert-only dict holds ``keys`` keys in: how many keys it
    holds before the next insert moves it, and the dict's getsizeof.

    CPython starts a dict at 8 slots.  A table of S slots holds 2S/3 keys,
    and the insert that finds it full moves them to a table of the least
    power of two at or above three times as many slots.  Its index slots
    take 1 byte up to 2^7 slots, 2 up to 2^15, 4 up to 2^31, else 8.
    """
    size = 8
    while 2 * size // 3 < keys:
        size = 1 << (3 * (2 * size // 3) - 1).bit_length()
    full = 2 * size // 3
    index = 1 if size <= 1 << 7 else 2 if size <= 1 << 15 else 4 if size <= 1 << 31 else 8
    return full, _DICT_COST + index * size + _DICT_ENTRY_COST * full


def _build_cost(lamps: int) -> int:
    """The most building a press of ``lamps`` lamps holds (_LAMP_COST's terms)."""
    return (
        _EMPTY_SET_COST
        + (_HELD_LAMP_COST + _POINTER_COST) * lamps
        + _ENTRY_COST * _table_entries(lamps)
    )


class RadiusExceeded(RuntimeError):
    """The distance is only bounded below: it exceeds the given radius."""

    def __init__(self, max_radius: int, bound: int = 0):
        self.max_radius = max_radius
        super().__init__(
            f"distance exceeds radius {max_radius};"
            f" it is at least {max(max_radius + 1, bound)}"
        )


class MemoryCapExceeded(RuntimeError):
    """State storage for a search outgrew the configured cap."""


def hex_norm(pos: Pos) -> int:
    """Least n with ``pos`` inside the radius-n hexagon."""
    p, q = pos
    return max(abs(p), abs(q), abs(p + q))


def in_hex(pos: Pos, n: int) -> bool:
    return hex_norm(pos) <= n


def hex_param(g: Element) -> int:
    """Least n such that every lamp of ``g`` and its position fit in H_n."""
    value = hex_norm(g.pos)
    for lamp in g.lamps:
        bound = hex_norm(lamp)
        if bound > value:
            value = bound
    return value


# Letter for one unit move, keyed by (delta, press before, press after):
# the inverse of ACTIONS over the 16 letters that step.
_MOVE_LETTERS: dict[tuple[Pos, bool, bool], Letter] = {
    (step, before, after): letter
    for letter, (before, step, after) in ACTIONS.items()
    if step != (0, 0)
}


# The one-letter word of the origin press.
_PRESS = Word(((Letter("a", 1), 1),))


def _walk_to(path: list[Pos], target: Pos) -> None:
    # Legs parallel to the axes, adjusting p before q; only corners are listed.
    p, q = path[-1]
    if target[0] != p:
        path.append((target[0], q))
    if target[1] != q:
        path.append(target)


def _word_from_path(path: list[Pos], presses: set[Pos]) -> Word:
    """Fuse presses into the walk through the corners ``path``, leg by leg.

    Each press goes to its first visit.  A press at the start is fused into
    the first move, which presses before stepping; every other press into
    the move onto its vertex, which presses after.  A leg emits runs of
    plain moves between its pressed vertices.
    """
    pending = set(presses)
    start_pressed = path[0] in pending
    pending.discard(path[0])
    chrono: list[tuple[Letter, int]] = []
    for (p, q), (p1, q1) in zip(path, path[1:]):
        if p1 != p:
            step, length = ((1, 0), p1 - p) if p1 > p else ((-1, 0), p - p1)
        else:
            step, length = ((0, 1), q1 - q) if q1 > q else ((0, -1), q - q1)
        plain = _MOVE_LETTERS[step, False, False]
        done = 0
        if pending:
            # Pending presses on this leg, by their distance k along it.
            dp, dq = step
            stops = []
            for pos in pending:
                x, y = pos
                if (y == q) if dp else (x == p):
                    k = (x - p) * dp + (y - q) * dq
                    if 0 < k <= length:
                        stops.append((k, pos))
            lit = _MOVE_LETTERS[step, False, True]
            for k, pos in sorted(stops):
                pending.discard(pos)
                if k - done > 1:
                    chrono.append((plain, k - done - 1))
                chrono.append((lit, 1))
                done = k
        if length > done:
            chrono.append((plain, length - done))
    if pending:
        raise RuntimeError(f"press position {min(pending)} is not on the planned path")
    if not chrono:
        return _PRESS if start_pressed else EMPTY
    if start_pressed:
        letter, count = chrono[0]
        _, step, after = ACTIONS[letter]
        chrono[:1] = [(_MOVE_LETTERS[step, True, after], 1), (letter, count - 1)]
    return Word(merge_runs(reversed(chrono)))


def make_gn(n: int) -> tuple[Element, Word]:
    """The triple-lamp element at depth n and its length-6n spelling.

    The element lights (-n, 0), (0, n) and (0, -n) and returns the
    lamplighter to the origin.  The word tours exactly those three lamps,
    fusing each press into a move, for 6n letters total.
    """
    if n < 1:
        raise ValueError("make_gn requires n >= 1")
    element = Element(frozenset({(-n, 0), (0, n), (0, -n)}), (0, 0))
    runs = merge_runs([
        (Letter("s", 1), n - 1),
        (Letter("sa", 1), 1),
        (Letter("s", -1), n),
        (Letter("t", 1), n - 1),
        (Letter("ta", 1), 1),
        (Letter("t", -1), 2 * n),
        (Letter("at", 1), 1),
        (Letter("t", 1), n - 1),
    ])
    return element, Word(runs)


def halfplane_bound(g: Element) -> int:
    """Lower bound on the word length of ``g``, in time linear in its lamps.

    It is 2*(max(top, e_p+ + e_q+) + max(far, -e_p, 0) + max(low, -e_q, 0))
    - |e_p| - |e_q|, with top the highest t-axis lamp index j >= 0, low minus
    the lowest j < 0, far the largest i with (-i, 0) lit (each 0 if none),
    (e_p, e_q) = ``g.pos`` and x+ = max(x, 0).  Proof: a press at (p, q)
    lights a t-axis lamp j >= 0 only from p + q >= j, one j < 0 only from
    q <= j, and (-i, 0) only from p <= -i (:func:`press_effect`).  Every
    letter except ``a`` moves the lamplighter one unit, and on a walk each
    coordinate travels at least twice its range minus its net move.
    """
    F, D, P, Q = _box(g)
    ep, eq = g.pos
    return 2 * (F + D + P + Q) - abs(ep) - abs(eq)


def length_lower_bound(g: Element) -> int:
    """max(:func:`halfplane_bound`\\ (g), [g != 1]), the proved lower side of |g|.

    Every element but the identity needs a letter.  :func:`witness_word`
    spells ``g`` in exactly this many letters, so it is the length of ``g``.
    """
    return max(halfplane_bound(g), int(g != _IDENTITY))


def _box(g: Element) -> tuple[int, int, int, int]:
    """Extents (F, D, P, Q) of the box behind :func:`halfplane_bound`.

    The box has corners (-F, -D) and (P, Q): F = max(far, -e_p, 0),
    D = max(low, -e_q, 0), P = e_p+ and Q = max(top, e_p+ + e_q+) - P, so
    twice the box's width plus height, 2 * (F + D + P + Q), is the
    bracketed sum of the bound.  (P, Q) meets p + q >= top, the bottom side
    q <= -low and the left side p <= -far.
    """
    # One pass: a lamp off the t-axis lies on the negative s-axis.
    top = low = far = 0
    for p, q in g.lamps:
        if p:
            if -p > far:
                far = -p
        elif q > top:
            top = q
        elif -q > low:
            low = -q
    ep, eq = g.pos
    P = max(ep, 0)
    return max(far, -ep, 0), max(low, -eq, 0), P, max(top, P + max(eq, 0)) - P


def tour_lower_bound(n: int) -> int:
    """:func:`halfplane_bound` of the anchor of :func:`make_gn` (6n), built in O(1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return halfplane_bound(Element(frozenset({(-n, 0), (0, n), (0, -n)}), (0, 0)))


# The 17 moves; every search step prepends one of them to a state.  The
# one-letter runs that spell them, in the same order.
_MOVES = tuple(el for _, el in move_elements())
_MOVE_RUNS = tuple(((letter, 1),) for letter, _ in move_elements())


def _single_press(lamps: LampSet) -> Pos:
    """The unit offset d whose one press toggles exactly ``lamps``.

    Prepending a move re-presses each of its lamps at the state's position,
    as `multiply` does.  Pressing at d is pressing every lamp of
    press_effect(d), at any translate, so when press_effect(d) is the
    move's lamp set, re-pressing that set at (p, q) is the one press at
    (p, q) + d.  By the split relation of press_effect each lamp set of a
    move has such a d: {(0, 0), (0, 1)} is the press at (1, 0), for one.
    """
    for d in product((-1, 0, 1), repeat=2):
        if press_effect(d) == lamps:
            return d
    raise RuntimeError(f"the lamps {sorted(lamps)} of a move are no single press")


# _PRESSES holds the offset of each distinct nonempty lamp set of a move
# (_single_press is one-to-one), _SHIFTS each distinct step, and _STEPS each
# move's index into _SHIFTS with the index of its press, or -1 if it lights
# none.
_PRESSES = tuple(dict.fromkeys(_single_press(mv.lamps) for mv in _MOVES if mv.lamps))
_SHIFTS = tuple(dict.fromkeys(mv.pos for mv in _MOVES))
_STEPS = tuple(
    (_SHIFTS.index(mv.pos), _PRESSES.index(_single_press(mv.lamps)) if mv.lamps else -1)
    for mv in _MOVES
)

_IDENTITY = identity()


class _Budget:
    """Storage of what one search holds, its states and presses, against a cap.

    It also owns the search's table of lamp sets and positions: every
    state :meth:`charge` records is rebuilt from the table's copies, so
    equal lamp sets and equal positions are held once per search, however
    many states share them.  The table lives and dies with the search; no
    value outlives it except through the states the search returns.
    """

    def __init__(self, limit_mb: int | None, search: str):
        # None is the module default, read now rather than at definition.
        self.limit_mb = DEFAULT_MEMORY_LIMIT_MB if limit_mb is None else limit_mb
        self.search = search
        self.left = self.limit_mb * 1024 * 1024
        self.table: dict = {}
        self.widest = 0

    def spend(self, size: int) -> None:
        self.left -= size
        if self.left < 0:
            raise MemoryCapExceeded(f"{self.search} exceeds the {self.limit_mb} MiB cap")

    def press(self, pos: Pos) -> LampSet:
        """Build ``press_effect(pos)`` inside the cap, charged what it holds.

        A press of n lamps holds at most ``_build_cost(n)`` while it is
        built, and it has at most |p| + |q| + 1 lamps.  When
        ``_LAMP_COST`` a lamp for that many could overrun what is left of
        the cap, the press is sized first (:func:`check_press`, whose
        ``ValueError`` comes before any charge) and charged its
        ``_build_cost``, so the cap is met before it is built; after the
        build, the charge is refunded down to what the press holds: its
        frozenset and a pair and an int per lamp.  A press that fits even
        by the loose bound is charged only what it holds, so small presses
        skip the count.
        """
        p, q = pos
        bound = 0
        if _LAMP_COST * (abs(p) + abs(q) + 1) + _EMPTY_SET_COST > self.left:
            bound = _build_cost(check_press(pos))
            self.spend(bound)
        effect = press_effect(pos)
        self.left += bound
        self.spend(getsizeof(effect) + _HELD_LAMP_COST * len(effect))
        return effect

    def presses(self, at: list[Pos], made: dict) -> list[tuple[Pos, LampSet]]:
        """Build each press of ``at`` that ``made`` lacks, for a search's table.

        All of them are sized first (:func:`check_press`), so one over
        ``PRESS_LAMP_LIMIT`` raises its ``ValueError`` before any charge;
        then each is charged its entry in the table (``_EFFECT_COST``) and
        built by :meth:`press`.
        """
        new = [pos for pos in at if pos not in made]
        for pos in new:
            check_press(pos)
        self.spend(_EFFECT_COST * len(new))
        return [(pos, self.press(pos)) for pos in new]

    def widen(self, lamps: int) -> None:
        """Charge the XORs of one state's expansion, ``lamps`` lamps in all.

        A search expands one state at a time, so the budget pays once for
        the widest: only the excess over the widest it has paid for.
        """
        if lamps > self.widest:
            self.spend((lamps - self.widest) * _XOR_LAMP_COST)
            self.widest = lamps

    def charge(self, state: tuple[LampSet, Pos]) -> Element:
        """Charge a new state (lamps, pos) and return it as an :class:`Element`.

        The element is built from the table's copies of its lamp set and
        position.  The state is charged its :class:`Element` and its slot in
        a depth table.  Its lamp set and position are charged only when they
        first enter the table, with their slot there.
        """
        table = self.table
        size = _STATE_COST
        lamps, pos = state
        if lamps not in table:
            table[lamps] = lamps
            size += _SLOT_COST + getsizeof(lamps) + _PAIR_COST * len(lamps)
        if pos not in table:
            table[pos] = pos
            size += _SLOT_COST + _PAIR_COST
        self.spend(size)
        return Element(table[lamps], table[pos])


class _Search:
    """One breadth-first search from ``start``, grown a layer at a time.

    ``depths`` maps every state recorded so far to its layer, in the order
    recorded; ``frontier`` is the last layer and ``radius`` its depth.
    Every state is charged to ``budget``, which builds it from its copies
    of lamp sets and positions, ``start`` first, after ``_SEARCH_COST`` for
    what the search holds beside its states.  The search also owns its
    presses: ``rows`` maps each position it has expanded to the effects of
    the presses at that position plus each offset of ``_PRESSES``, with
    their lamp count, and ``effects`` each press it has made, by position.
    """

    def __init__(self, start: Element, budget: _Budget):
        budget.spend(_SEARCH_COST)
        self.budget = budget
        self.frontier = [budget.charge(start)]
        self.depths: dict[Element, int] = {self.frontier[0]: 0}
        self.radius = 0
        self.rows: dict[Pos, tuple[tuple[LampSet, ...], int]] = {}
        self.effects: dict[Pos, LampSet] = {}

    def _row(self, pos: Pos) -> tuple[tuple[LampSet, ...], int]:
        """Make, charge and record the row of presses at ``pos``.

        Each press is made once per search, by :meth:`_Budget.presses`, so
        a search never builds a press that its cap cannot pay for.
        """
        p, q = pos
        effects = self.effects
        at = [(p + dp, q + dq) for dp, dq in _PRESSES]
        self.budget.spend(_ROW_COST)
        effects.update(self.budget.presses(at, effects))
        row = tuple(effects[press] for press in at)
        self.rows[pos] = entry = row, sum(map(len, row))
        return entry

    def grow(self, origins: list[int] | None = None) -> list[Element]:
        """Add the next layer: prepend every move to every frontier state.

        States not yet in ``depths`` are charged, recorded there at the new
        radius and returned, as the new ``frontier``, in expansion order.
        The children of a state are ``multiply(mv, state)`` for the moves
        ``mv`` of ``_MOVES``, in that order.  Each lamp set a move can
        toggle is one press at the state's position plus an offset of
        ``_PRESSES``, so a state takes one row of seven presses
        (:meth:`_row`), each XORed into its lamps once, and its five child
        positions, its own plus each step of ``_SHIFTS``; ``_STEPS`` pairs
        them per move.  The widest state's XORs are charged
        (:meth:`_Budget.widen`).  ``depths`` is probed with plain (lamps,
        pos) pairs, so only a new state becomes an :class:`Element`.  Given
        ``origins``, each new state also appends there where it came from:
        ``len(_MOVES) * i + m`` for its first parent ``frontier[i]`` and the
        move ``_MOVES[m]``, so that the state is ``_MOVES[m] * frontier[i]``.

        A state is expanded only if all seven presses are within
        ``PRESS_LAMP_LIMIT``, else ``ValueError``; the presses at offsets
        (1, 0) and (1, -1) can exceed it where the state's own press does
        not.  At (2^21 - 2, q), say, the press there toggles 2^20 lamps and
        the one at (2^21 - 1, q) 2^21, so a search that expands such a
        state raises.
        """
        self.radius += 1
        depth, depths, rows = self.radius, self.depths, self.rows
        nxt: list[Element] = []
        width = len(_MOVES)
        charge, widen = self.budget.charge, self.budget.widen
        for i, (lamps, pos) in enumerate(self.frontier):
            row, lamps_in_row = rows.get(pos) or self._row(pos)
            widen(lamps_in_row + len(row) * len(lamps))
            lit = [lamps ^ effect for effect in row]
            lit.append(lamps)
            p, q = pos
            shifted = [(p + dp, q + dq) for dp, dq in _SHIFTS]
            for m, (shift, press) in enumerate(_STEPS):
                child = (lit[press], shifted[shift])
                if child not in depths:
                    child = charge(child)
                    depths[child] = depth
                    nxt.append(child)
                    if origins is not None:
                        origins.append(width * i + m)
        self.frontier = nxt
        return nxt


def _ball_budget(radius: int, memory_limit_mb: int | None) -> _Budget:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _Budget(memory_limit_mb, f"ball of radius {radius}")


def _ball(radius: int, memory_limit_mb: int | None) -> _Search:
    """A search from the identity, on its own budget for a ball of ``radius``."""
    return _Search(_IDENTITY, _ball_budget(radius, memory_limit_mb))


def _bit_lamp(bit: int) -> Pos:
    """The lamp of ``bit`` in a packed key: the inverse of :meth:`_PackedBall.key`."""
    j, side = divmod(bit, 3)
    if side == 0:
        return (0, j)
    return (0, -j - 1) if side == 1 else (-j - 1, 0)


class _PackedBall:
    """The ball B(k) about the identity, grown a layer at a time, an int a state.

    The state (lamps, (p, q)) is the key ``bits << width | index``
    (:meth:`key`): ``bits`` sets one bit for each lamp, and the position index
    (p + k)(2k + 1) + (q + k) takes ``width`` bits.  Prepending a move
    toggles one press of the state's row, at its position plus an offset of
    ``_PRESSES`` (as in :meth:`_Search.grow`), and steps by one of
    ``_SHIFTS``, so the child is ``(key ^ mask) + delta``: ``mask`` the
    press's lamp bits above the index, ``delta`` the step's change of
    index.  The addition is safe: every letter moves at most one unit, so
    each state of B(r) has |p|, |q| <= r, and a child of a state of
    B(r - 1) is in B(r).  So while r <= k the child's index stays inside
    [0, (2k + 1)^2), below ``1 << width``, and adding ``delta`` never
    borrows from the lamp bits or carries into them.

    ``grow`` keeps the contract of :meth:`_Search.grow`: the same states
    in the same order, as keys, and the same origins.  ``depths`` maps
    every key recorded so far to its layer.  A state is charged as it is
    recorded: its key by ``getsizeof`` and its pointer in its layer.  Each
    table of ``depths`` is charged its dict's ``getsizeof`` by CPython's
    growth rule (:func:`_dict_table`) before the frontier state whose
    children could move the dict to it, and never refunded: a dict holds
    its old table and its new one while it moves, and the sum of its tables
    covers that.  Each row is built once per position index, from each
    press built once per search (:meth:`_Budget.press`) and kept as its
    mask.  Keys become :class:`Element`\\ s only through :meth:`unpack`.
    """

    def __init__(self, radius: int, memory_limit_mb: int | None):
        self.budget = _ball_budget(radius, memory_limit_mb)
        self.budget.spend(_SEARCH_COST)
        self.k, self.side = radius, 2 * radius + 1
        self.width = (self.side**2 - 1).bit_length()
        self.deltas = tuple(dp * self.side + dq for dp, dq in _SHIFTS)
        start = self.pack(_IDENTITY)
        self.frontier, self.depths, self.radius = [start], {start: 0}, 0
        self.full, table = _dict_table(1)
        self.budget.spend(table + getsizeof(start) + _POINTER_COST)
        self.lamp_at: list[Pos | None] = [None]
        self.rows: dict[int, tuple[tuple[int, int], ...]] = {}
        self.masks: dict[Pos, int] = {}

    def key(self, lamps, pos: Pos) -> int:
        """The key of the state (``lamps``, ``pos``), or -1, the key of no state.

        Lamp (0, j) is bit 3j for j >= 0 and bit -3j - 2 for j < 0, and
        (-i, 0) is bit 3i - 1, a zigzag over the half-axes, so a key is as
        wide as its farthest lamp, not its ball.  A position outside the
        window |p|, |q| <= k, or a lamp off the lampstand, gives -1: no
        index wraps onto another and no lamp aliases another, so comparing
        keys is as strict as comparing :class:`Element`\\ s.
        """
        p, q = pos
        k = self.k
        if not (-k <= p <= k and -k <= q <= k):
            return -1
        bits = 0
        for i, j in lamps:
            if not i:
                bits |= 1 << (3 * j if j >= 0 else -3 * j - 2)
            elif not j and i < 0:
                bits |= 1 << -3 * i - 1
            else:
                return -1
        return bits << self.width | (p + k) * self.side + q + k

    def pack(self, g: Element) -> int:
        """The key of ``g`` (:meth:`key`)."""
        return self.key(*g)

    def unpack(self, key: int) -> Element:
        """The :class:`Element` of a key the ball has recorded."""
        p, q = divmod(key & ((1 << self.width) - 1), self.side)
        bits, lamps, lamp_at = key >> self.width, [], self.lamp_at
        if bits.bit_length() >= len(lamp_at):
            # lamp_at[b + 1] is the lamp of bit b, made once per ball.
            new = range(len(lamp_at) - 1, bits.bit_length())
            self.budget.spend((_PAIR_COST + _POINTER_COST) * len(new))
            lamp_at += map(_bit_lamp, new)
        while bits:
            low = bits & -bits
            lamps.append(lamp_at[low.bit_length()])
            bits ^= low
        return Element(frozenset(lamps), (p - self.k, q - self.k))

    def _row(self, index: int) -> tuple[tuple[int, int], ...]:
        """Make, charge and record the (mask, delta) of each move at ``index``.

        As :meth:`_Search._row`, each press made once per ball by
        :meth:`_Budget.presses`, and kept as its mask, charged by
        ``getsizeof``.
        """
        p, q = divmod(index, self.side)
        p, q = p - self.k, q - self.k
        masks, budget = self.masks, self.budget
        at = [(p + dp, q + dq) for dp, dq in _PRESSES]
        budget.spend(_PACKED_ROW_COST)
        for press, effect in budget.presses(at, masks):
            # The key at index 0, the window's corner, is the press's mask.
            masks[press] = mask = self.key(effect, (-self.k, -self.k))
            budget.spend(getsizeof(mask))
        lit = [masks[press] for press in at]
        lit.append(0)
        self.rows[index] = row = tuple(
            (lit[press], self.deltas[shift]) for shift, press in _STEPS
        )
        return row

    def grow(self, origins: array | list[int] | None = None) -> list[int]:
        """Add the next layer, as :meth:`_Search.grow` does, and return its keys."""
        if self.radius >= self.k:
            raise ValueError(f"the ball is grown to its radius {self.k}")
        self.radius += 1
        depth, depths, rows = self.radius, self.depths, self.rows
        low, width, spend = (1 << self.width) - 1, len(_MOVES), self.budget.spend
        nxt: list[int] = []
        for i, key in enumerate(self.frontier):
            # Each table the state's children could move depths to is
            # charged before they go in.
            while len(depths) + width > self.full:
                self.full, table = _dict_table(self.full + 1)
                spend(table)
            index = key & low
            row = rows.get(index) or self._row(index)
            for m, (mask, delta) in enumerate(row):
                child = (key ^ mask) + delta
                if child not in depths:
                    spend(getsizeof(child) + _POINTER_COST)
                    depths[child] = depth
                    nxt.append(child)
                    if origins is not None:
                        origins.append(width * i + m)
        self.frontier = nxt
        return nxt


def ball_with_depths(radius: int, memory_limit_mb: int | None = None) -> dict[Element, int]:
    """All elements of word length at most ``radius``, mapped to their length.

    Canonicalized breadth-first search: states are deduplicated by their
    normal form, each new layer prepends one of the 17 moves
    (:meth:`_Search.grow`).  Expansion order is fixed, so the mapping (and
    its iteration order) is deterministic.  Equal lamp sets and equal
    positions are held once across the ball (:class:`_Budget`), so a state
    costs its :class:`Element` and its slot in the mapping, plus its lamp
    set and position only where no earlier state has them, each press it
    makes (:meth:`_Search._row`), and the fixed ``_SEARCH_COST`` its
    :class:`_Search` pays on opening.  Raises
    :class:`MemoryCapExceeded` when the stored states outgrow
    ``memory_limit_mb`` (default ``DEFAULT_MEMORY_LIMIT_MB``, read at call
    time).
    """
    search = _ball(radius, memory_limit_mb)
    while search.radius < radius:
        search.grow()
    return search.depths


def sphere_sizes(
    r_max: int, memory_limit_mb: int | None = None
) -> list[int]:
    """Sizes |S(0)|, ..., |S(r_max)| of the spheres about the identity.

    |S(0)| is the identity alone, and each later size the length of the
    layer the packed ball grows (:class:`_PackedBall`), an int a state,
    whose keys never become :class:`Element`\\ s.  Its budget is charged
    what the packed ball holds, each press it makes and ``_SEARCH_COST``,
    against ``memory_limit_mb`` (default ``DEFAULT_MEMORY_LIMIT_MB``, read
    at call time).  :func:`ball_with_depths`, which grows the frozenset
    :class:`_Search`, is its oracle.
    """
    search = _PackedBall(r_max, memory_limit_mb)
    counts = [1] + [len(search.grow()) for _ in range(r_max)]
    return counts


def _plan(g: Element) -> tuple[list[Pos], tuple[int, int, int, int]]:
    """The box tour of :func:`witness_word`: its walk and its box (F, D, P, Q).

    The walk is the list of its corners, from the origin to ``g.pos``
    (:func:`_walk_to`), through the corners of the box of :func:`_box` that
    the signs of ``g.pos`` pick.  Every walked vertex lies in the box, so
    its |p| + |q| is at most F + D + P + Q.
    """
    F, D, P, Q = box = _box(g)
    ep, eq = g.pos
    if ep >= 0:
        corners = [(-F, 0), (-F, -D), (P, Q)] if eq >= 0 else [(-F, 0), (P, Q), (P, -D)]
    else:
        corners = [(0, -D), (0, Q), (-F, Q)] if eq >= 0 else [(0, Q), (-F, -D)]
    path = [(0, 0)]
    for corner in corners + [g.pos]:
        _walk_to(path, corner)
    return path, box


# GF(2) polynomials as ints, bit i the coefficient of x^i.  Each helper is
# O(log w) shifts and XORs of ints of about w bits, w its width.


def _times(a: int, n: int) -> int:
    """a (1+x)^n for n >= 0, one shift-XOR a bit of n: (1+x)^(2^b) = 1 + x^(2^b)."""
    while n:
        low = n & -n
        a ^= a << low
        n ^= low
    return a


def _times_inverse(a: int, n: int, w: int) -> int:
    """a (1+x)^-n mod x^w, for n >= 0.

    Once 2^K >= w, (1+x)^(2^K) = 1 + x^(2^K) is 1 mod x^w, so there
    (1+x)^-n is (1+x)^m with m = -n mod 2^K.
    """
    mask = (1 << w) - 1
    return _times(a & mask, -n % (1 << (w - 1).bit_length())) & mask


# Each byte with its 8 bits reversed.
_REVERSED_BYTES = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _reverse(a: int, w: int) -> int:
    """The w low bits of ``a``, which has no others, in reverse order."""
    size = (w + 7) // 8
    reverse = a.to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(reverse, "big") >> (8 * size - w)


def _floor_divide(a: int, n: int) -> int:
    """The quotient of ``a`` by (1+x)^n, for n >= 0.

    It is the part of degree >= 0 of a x^-n (1 + 1/x)^-n, a series in 1/x
    whose terms past x^-w, w = (bit length of a) - n, fall below degree 0.
    So with 2^K >= w, (1 + 1/x)^-n is (1 + 1/x)^m there, m = -n mod 2^K,
    one shift-XOR down a bit of m; a term shifted out below degree 0 could
    only make lower ones.
    """
    w = a.bit_length() - n
    if w <= 0:
        return 0
    m = -n % (1 << (w - 1).bit_length())
    while m:
        low = m & -m
        a ^= a >> low
        m ^= low
    return a >> n


def _superset_sums(a: int, w: int) -> int:
    """a(1+y) for ``a`` below 2^w: bit i is the XOR of a's bits k with k & i == i.

    (1+y)^k is the sum of y^i over the submasks i of k (Lucas), so the
    Taylor shift sums over supersets: one butterfly per bit of the index.
    """
    half = 1 << (w - 1).bit_length() >> 1 if w > 1 else 0
    low = (1 << half) - 1  # the indices i < 2 * half with i & half == 0
    while half:
        a ^= (a >> half) & low
        half >>= 1
        low ^= low << half
    return a


def _subset_sums(a: int, w: int) -> int:
    """For ``a`` below 2^w: bit i < w is the XOR of a's bits k with k & i == k."""
    half = 1 << (w - 1).bit_length() >> 1 if w > 1 else 0
    low = (1 << half) - 1
    while half:
        a ^= (a & low) << half
        half >>= 1
        low ^= low << half
    return a & ((1 << w) - 1)


def _line(bits: int, start: Pos, step: Pos) -> list[Pos]:
    """The vertices start + k * step for the set bits k of ``bits``, where
    ``step`` is (0, 1), (1, 0) or (-1, 0).

    Up to 64 set bits are read one by one, each in a few operations on
    ``bits``; more by :func:`~lampgrid.core.bit_offsets`, one scan of its
    binary digits, so the cost stays linear in the int's width.
    """
    x, y = start
    dx, dy = step
    if bits.bit_count() > 64:
        if dy:
            return list(zip(repeat(x), bit_offsets(bits, -y)))
        offsets = bit_offsets(bits, -x) if dx > 0 else map(neg, bit_offsets(bits, x))
        return list(zip(offsets, repeat(y)))
    vertices = []
    while bits:
        low = bits & -bits
        k = low.bit_length() - 1
        vertices.append((x + k * dx, y + k * dy))
        bits ^= low
    return vertices


def _solve(
    g: Element, box: tuple[int, int, int, int], budget: _Budget
) -> tuple[list[Pos], list[Pos]]:
    """The presses of :func:`witness_word`'s sweeps, and the lamps left lit.

    The presses of a sweep share a line, so each sweep's presses are one
    int, bit k the press k steps along the line (:func:`_line`), which
    :func:`witness_word` solves in closed form.  They, and the lamps left,
    are charged ``_PRESS_COST`` each from the ints' bit counts before any
    position is built.
    """
    F, D, P, Q = box
    ep, eq = g.pos
    top = P + Q
    # S holds lamp (-m, 0) at bit m, T lamp (0, j) at bit j + D.  A few
    # lamps are ORed in; more are set in bytes first, which keeps the cost
    # linear in the box's width.
    if len(g.lamps) <= 64:
        S = T = 0
        for p, q in g.lamps:
            if p:
                S |= 1 << -p
            else:
                T |= 1 << (q + D)
    else:
        s_bytes, t_bytes = bytearray(F // 8 + 1), bytearray((D + top) // 8 + 1)
        for p, q in g.lamps:
            if p:
                s_bytes[-p >> 3] |= 1 << (-p & 7)
            else:
                q += D
                t_bytes[q >> 3] |= 1 << (q & 7)
        S, T = int.from_bytes(s_bytes, "little"), int.from_bytes(t_bytes, "little")
    base = -D if eq >= 0 else 0
    lines = []
    if eq < 0:
        low = T & ((1 << D) - 1)
        if ep >= 0:
            presses = _times_inverse(low, P, D)
            T ^= _times(presses, P)
            lines.append((presses, (P, -D), (0, 1)))
        else:
            presses = _times(low, F) & ((1 << D) - 1)
            T ^= low
            S ^= _reverse(_times_inverse(_superset_sums(presses, D), D, F), F) << 1
            lines.append((presses, (-F, -D), (0, 1)))
    if ep >= 0:
        high = T >> (base + D)
        presses = _floor_divide(high, P)
        lines.append((presses, (P, base), (0, 1)))
        lines.append((_superset_sums(high ^ _times(presses, P), P), (0, base), (1, 0)))
        residual = (S, (0, 0), (-1, 0))
    else:
        presses = _floor_divide(S << Q, Q) >> 1
        lines.append((presses, (-1, Q), (-1, 0)))
        T ^= _reverse(_subset_sums(presses & ((1 << Q) - 1), Q), Q) << D
        residual = (T, (0, -D), (0, 1))
    budget.spend(_PRESS_COST * sum([bits.bit_count() for bits, _, _ in lines + [residual]]))
    presses = []
    for line in lines:
        presses += _line(*line)
    return presses, _line(*residual)


def witness_word(g: Element, budget: _Budget | None = None) -> Word:
    """Geodesic word for ``g``: a walk of :func:`halfplane_bound`\\ (g) moves.

    The walk leaves the origin, goes round the box of :func:`_box` through
    corners picked by the signs of ``g.pos`` and ends there, so each
    coordinate travels twice the box's extent in it minus its net move.
    Presses at walked vertices that reproduce ``g.lamps`` are fused into
    the moves, so the word has :func:`halfplane_bound`\\ (g) letters, the
    length of ``g`` by the half-plane lemma; the origin press, whose bound
    is 0, is the one letter ``a``.  Inside H_n we have F <= n, D <= n and
    P + Q = max(top, e_p+ + e_q+) <= n, so ``halfplane_bound(g) <= 6n``:
    the paper's 6n upper bound follows from the formula.  The word is not
    replayed here; :func:`exact_distance` replays it.  ``budget`` (default:
    a fresh one at ``DEFAULT_MEMORY_LIMIT_MB``) is charged what the solve
    holds, before it holds it: first the walk, ``_WALK_COST`` a walked
    vertex, which bounds the solve's ints and its time, then each press
    (:func:`_solve`).

    The presses are those of back-substitution, and its order is the proof
    that they exist.  Let (-F, -D) and (P, Q) be the corners of the box.
    The lamps of ``g`` lie on the s-axis at (-F..-1, 0) and on the t-axis
    at (0, -D..P+Q).  A press at (p, q) is x^q (1+x)^p
    (:func:`press_effect`).  For p >= 0 it lights t-axis lamps in q..p+q,
    both ends among them.  For p < 0 it lights (p, 0), other s-axis lamps
    nearer the origin, and t-axis lamps in q..-1 with q among them when
    q < 0, or in 0..p+q when q >= 0.  A lampstand press toggles just its own
    lamp.  Each leg of the walk adjusts p before q (:func:`_walk_to`).  By
    the signs of (e_p, e_q) = ``g.pos`` the walk is:

    * e_p >= 0 and e_q >= 0: the s-axis out to -F, the row q = -D from -F
      to P and the column p = P up to Q;
    * e_p < 0 <= e_q (so P = 0): the t-axis from -D up to Q, then the row
      q = Q out to -F;
    * e_q < 0 <= e_p: the s-axis out to -F, the row q = 0 from -F to P and
      the column p = P from Q down to -D;
    * both negative (so P = 0): the t-axis from 0 up to Q, the row q = Q
      out to -F and the column p = -F down to -D.

    Let base = -D if e_q >= 0, else 0, and x = P if e_p >= 0, else -F.  The
    (vertex, pivot) pairs come in four sweeps, each on the walk, each of
    whose presses lights its own pivot and no pivot earlier in the order:

    1. Low column, run when e_q < 0 (so base = 0): (x, q) for q = -D..-1,
       pivot (0, q).  A press lights t-axis lamps no lower than its pivot
       (q..P+q, or q..-1 when x = -F < 0) and s-axis lamps, so no earlier
       pivot, all of which lie lower on the t-axis.
    2. Column, run when e_p >= 0: (P, q) for q = Q down to base, pivot
       (0, P+q).  A press lights t-axis lamps in q..P+q: none above its
       pivot, where the earlier pivots of the sweep lie, and none below
       base, where those of the low column lie.
    3. Row, run when e_p >= 0: (p, base) for p = P-1 down to 0, pivot
       (0, p+base).  A press lights t-axis lamps in base..p+base: none above
       its pivot, where the earlier pivots of the sweep and the column's
       (P+base and up) lie, and none below base.
    4. S-row, run when e_p < 0 (so P = 0): (-k, Q) for k = F down to 1,
       pivot (-k, 0).  Since Q >= 0, a press lights (-k, 0), s-axis lamps
       nearer the origin and t-axis lamps in 0..Q-k: no s-axis pivot
       farther out, where the earlier pivots of the sweep lie, and no
       negative t-axis lamp, where those of the low column lie.

    So e_p >= 0 runs sweeps 1 (if e_q < 0), 2 and 3, whose pivots cover
    the t-axis from -D to P+Q; e_p < 0 runs sweeps 1 (if e_q < 0) and 4,
    whose pivots cover the s-axis and the t-axis below base.
    Back-substitution presses, in this order, each vertex whose pivot is
    lit.  No press toggles a pivot settled before it, so every pivot ends
    dark.  What is left lies on the s-axis when e_p >= 0, walked out to
    -F, and on the t-axis from base to Q when e_p < 0, walked from base up
    to Q: walked lampstand vertices, each its own press.

    Each sweep is triangular: ordered as above, each of its presses lights
    its own pivot and no earlier one, so exactly one set of its vertices
    clears its pivots, given what the earlier sweeps left, and
    back-substitution finds that set.  So does any other solution of the
    same equations, and :func:`_solve` solves them as GF(2) arithmetic on
    two ints, visiting no vertex: S with lamp (-m, 0) at bit m, and T with
    lamp (0, j) at bit j + D.  Write rev_w for reversing the low w bits,
    L = T mod x^D, and y = 1 + x, so that lamp (-i, 0) is y^-i.  Each
    sweep's presses are an int C, bit k the k-th vertex along its line:

    1. e_p >= 0: the presses x^(k-D) (1+x)^P must clear L, so
       C = L (1+x)^-P mod x^D, and T ^= C (1+x)^P.  e_p < 0: the press at
       (-F, k-D) is x^(k-D) y^-F.  Its t-axis lamps, the expansion at 0
       below degree 0, add up to L when C = L (1+x)^F mod x^D, so T ^= L.
       Its s-axis lamps, the principal part at y = 0, are the terms
       y^(i-F), i < F, of (1+y)^(k-D) y^-F; over C they add up to the
       terms below y^0 of y^-F (1+y)^-D C(1+y), and C(1+y) is the
       superset sums of C's bits (Lucas).  So S ^= rev_F(superset sums
       times (1+y)^-D mod y^F), shifted to bit 1.
    2. C and R are the quotient and remainder of T >> (base + D) by
       (1+x)^P: the presses x^(base+k) (1+x)^P, top first, are long
       division (:func:`_floor_divide`).
    3. R = sum of C_p (1+x)^p = C(y), so C = R(1+y), the superset sums of
       R's bits.
    4. The press at (-k, Q) lights the lamps (i - k, 0), i < k, with
       C(Q, i) odd: with z = 1/y, so that lamp (-m, 0) is z^m, the terms
       of degree >= 1 of z^k (1 + 1/z)^Q.  So C, bit k for the press at
       (-k, Q), is the part of degree >= 1 of S (1 + 1/z)^-Q, that is of
       the quotient of S z^Q by (1+z)^Q.  Its t-axis lamps are Q - k - r
       for the r <= Q - k with r & (k - 1) == 0, that is Q - 1 - i for
       the i < Q that contain k - 1: T ^= rev_Q(subset sums of
       (C >> 1) mod 2^Q), shifted to lamp 0.

    The lamps left lit are S's when e_p >= 0 and T's when e_p < 0.
    """
    if budget is None:
        budget = _Budget(None, "witness word")
    path, box = _plan(g)
    # The walk's vertices, halfplane_bound(g) moves.
    walk = 2 * sum(box) - abs(g.pos[0]) - abs(g.pos[1])
    budget.spend(_SOLVE_COST + _WALK_COST * (walk + 1))
    presses, residual = _solve(g, box, budget)
    return _word_from_path(path, presses + residual)


def exact_distance(
    g: Element, max_r: int, memory_limit_mb: int | None = None
) -> int:
    """Word length of ``g``, exact whenever it is at most ``max_r``.

    The length is max(:func:`halfplane_bound`\\ (g), [g != 1]), and every
    call proves it without a search: the half-plane lemma, and the one
    letter every element but the identity needs, give the lower side, and
    :func:`witness_word`, replayed here, spells ``g`` in exactly that many
    letters.  Raises :class:`RadiusExceeded` at once when that length
    exceeds ``max_r``; the exception carries the radius and the length as
    a lower bound, not a number.  Raises :class:`MemoryCapExceeded` when
    the witness walk outgrows ``memory_limit_mb`` (default
    ``DEFAULT_MEMORY_LIMIT_MB``, read at call time), its message stating
    the same proved lower bound, and ``RuntimeError`` if the witness fails
    to replay at that length, which would refute the proof in
    :func:`witness_word`.  :func:`search_distance` is the independent
    oracle.
    """
    if max_r < 1:
        raise ValueError("max_r must be positive")
    lower = length_lower_bound(g)
    if lower > max_r:
        raise RadiusExceeded(max_r, lower)
    try:
        word = witness_word(g, _Budget(memory_limit_mb, f"distance to radius {max_r}"))
    except MemoryCapExceeded as exc:
        raise MemoryCapExceeded(f"{exc}; it is at least {lower}") from None
    if a_length(word) != lower or evaluate(word) != g:
        raise RuntimeError(f"the witness word does not replay in {lower} letters")
    return lower


def search_distance(g: Element, max_r: int, memory_limit_mb: int | None = None) -> int:
    """Word length of ``g`` by exhaustive search, if it is at most ``max_r``.

    Bidirectional breadth-first search, expanding the smaller frontier one
    full layer at a time.  Both sides prepend moves: one grows the ball
    B(r_a), the other the left translates B(r_b)*g.  Since
    B(r_b)*B(r_a) = B(r_a + r_b), the two meet exactly when
    |g| <= r_a + r_b.  It uses neither the half-plane bound nor the
    witness word, so it is the oracle of :func:`exact_distance`.  Raises
    :class:`RadiusExceeded` past ``max_r`` and :class:`MemoryCapExceeded`
    when the states of both sides outgrow ``memory_limit_mb`` (default
    ``DEFAULT_MEMORY_LIMIT_MB``, read at call time).  The two sides share
    one budget, so equal lamp sets and positions are held once across both.
    Each side is a :class:`_Search` that pays ``_SEARCH_COST`` when it
    starts and makes and pays for its own presses; the smaller frontier
    grows, side a on a tie.
    """
    if g == _IDENTITY:
        return 0
    budget = _Budget(memory_limit_mb, f"distance search to radius {max_r}")
    a, b = _Search(_IDENTITY, budget), _Search(g, budget)
    while a.radius + b.radius < max_r:
        if len(a.frontier) <= len(b.frontier):
            new, other = a.grow(), b
        else:
            new, other = b.grow(), a
        # No earlier layer met, so any meeting here gives |g| = r_a + r_b.
        if any(state in other.depths for state in new):
            return a.radius + b.radius
    raise RadiusExceeded(max_r)


@dataclass(frozen=True)
class DepthCertificate:
    """Machine-checkable record of the anchor's neighbours within distance k.

    ``verdict == "certified"`` means: every element within distance k of
    the anchor element has word length at most ``ball_radius`` (= 6n), so
    the anchor's dead-end depth is at least k+1.  ``verdict == "failed"``
    means: the offset b spelled by ``failure_witness``, a replayed
    geodesic of length d <= k (:func:`witness_word`), takes the anchor out
    of that ball, and every shorter offset keeps it within, so its dead-end
    depth is exactly d.  ``max_witness_length`` is the longest replayed word the
    certifier holds for a neighbour.  It is always 6n: the neighbour b = 1
    is the anchor itself, of length exactly 6n by :func:`halfplane_bound`
    and the replayed word of :func:`make_gn`, and no bound is kept past
    6n.  A neighbour inherits its parent's bound plus one only below 6n; a
    parent whose bound has reached 6n, the anchor first among them as the
    parent of B(1), is measured once by :func:`exact_distance`, and only
    the children of one whose length is exactly 6n are measured afresh.
    The anchor sits at the origin, so each neighbour's translate is its
    lamps XOR the anchor's, at its own position: no product is formed.
    """

    n: int
    k: int
    ball_radius: int
    neighborhood_size: int
    max_witness_length: int
    verdict: str
    failure_witness: str | None

    def to_json(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        lines = [
            f"anchor: triple-lamp element of length exactly {self.ball_radius} (= 6*{self.n})",
            f"neighbourhood: {self.neighborhood_size} elements within distance {self.k}",
            f"longest witness found: {self.max_witness_length}",
        ]
        if self.verdict == "certified":
            lines.append(
                f"verdict: certified; dead-end depth of the anchor is at least {self.k + 1}"
            )
        else:
            depth = a_length(parse(self.failure_witness, METRIC))
            lines.append(
                f"verdict: FAILED at neighbour offset {self.failure_witness};"
                f" dead-end depth of the anchor is at most {depth}, and exactly {depth}:"
                f" every shorter offset keeps it within {self.ball_radius}"
            )
        lines.append(
            "note: every bound is proved: halfplane_bound gives the lower side, and"
            " a replayed word the upper side, either a fresh witness or a neighbour's"
            " word plus one letter (make_gn's word for the anchor)."
        )
        return "\n".join(lines)


def certify_depth(
    n: int, k: int, memory_limit_mb: int | None = None
) -> DepthCertificate:
    """Certify that the anchor element of :func:`make_gn` has depth > k, or not.

    The neighbourhood of the anchor u consists of the products u*b for b
    in the radius-k ball.  Word length is inversion-invariant and u is an
    involution, so |u*b| = |b^-1*u|, and b -> b^-1 permutes the ball; the
    certifier therefore bounds the left-translates b*u instead, in one
    loop that grows the packed ball a layer at a time
    (:meth:`_PackedBall.grow`) and bounds each new layer in its order.
    Each key becomes an :class:`Element` (:meth:`_PackedBall.unpack`) only
    where the proof needs one: each parent, whose translate is replayed
    from or measured, each b measured by :func:`exact_distance`, the
    failure, and the b an error names.  The upper side of each bound is a
    replayed word.  For b = 1 it is the defining word of :func:`make_gn`,
    which must replay to u in 6n letters, while :func:`halfplane_bound`
    must give 6n for the lower side; that proves |u| = 6n, which is why
    ``max_witness_length`` is 6n.  The ``origins`` of the search give each
    later b as m * parent for a move m, so b*u = m * (parent*u) is spelled
    by the parent's word with m's letter prepended: b inherits its first
    parent's bound plus one, and m's letter must act on parent*u
    (:func:`act_runs`) to give b*u, else ``RuntimeError``.  A parent whose
    bound has reached 6n is measured once by :func:`exact_distance`, when
    the layer reaches its first child, so its children inherit its length
    rather than 6n; u is the first such parent, of B(1).  Only where that
    length is 6n is b*u measured afresh, at radius 6n.

    The involution check proves that u sits at the origin (u*u = 1 forces
    2 * u.pos = 0).  So ``multiply(b, u)`` re-presses b's lamps where they
    lie, on the lampstand, each press toggling just its own lamp: b*u is
    b's lamps XOR u's, at b's position, one XOR per translate.  So a
    replayed translate is checked against b's key instead: its lamps XOR
    u's, with its position, must pack (:meth:`_PackedBall.key`) to the key
    of b, a comparison as strict as that of :class:`Element`\\ s, and u
    itself is never packed.

    The first b, in breadth-first order, whose translate is longer than 6n
    fails the certificate; since :func:`exact_distance` raises on its
    proved lower bound and every earlier layer passed, a failure proves
    depth = |b|.  b's :func:`witness_word` must replay to b in as many
    letters as b's layer, else ``RuntimeError``, so the printed word's
    length is that depth.  After a failure the loop only grows the rest of
    the ball, for ``neighborhood_size``.  ``memory_limit_mb`` caps the
    ball and each fresh witness (default ``DEFAULT_MEMORY_LIMIT_MB``, read
    at call time).

    Requires n >= 1 and k >= 0.
    """
    if n < 1 or k < 0:
        raise ValueError("certify_depth requires n >= 1 and k >= 0")
    anchor, word = make_gn(n)
    radius = 6 * n
    if multiply(anchor, anchor) != _IDENTITY or evaluate(word) != anchor:
        raise RuntimeError("anchor is expected to be an involution spelled by its word")
    if not halfplane_bound(anchor) == a_length(word) == radius:
        raise RuntimeError("anchor is expected to have length 6n")
    ball = _PackedBall(k, memory_limit_mb)
    width, lit = len(_MOVES), anchor.lamps
    bounds, failure = array("q", [radius]), None
    while ball.radius < k:
        parents, parent_bounds, origins, bounds = ball.frontier, bounds, array("q"), array("q")
        layer = ball.grow(origins if failure is None else None)
        ball.budget.spend(_BOUND_COST * len(origins))
        last = -1
        for key, origin in zip(layer, origins):
            i, m = divmod(origin, width)
            if i != last:
                # Recomputed per parent, so the frontier holds no translates.
                lamps, pos = ball.unpack(parents[i])
                parent_translate = Element(lamps ^ lit, pos)
                bound = parent_bounds[i]
                if bound >= radius:
                    bound = exact_distance(parent_translate, radius, memory_limit_mb)
                last = i
            if bound < radius:
                lamps, pos = act_runs(_MOVE_RUNS[m], parent_translate)
                if ball.key(lamps ^ lit, pos) != key:
                    b = ball.unpack(key)
                    raise RuntimeError(f"a one-letter extension does not replay to {b}")
                bounds.append(bound + 1)
            else:
                b = ball.unpack(key)
                translate = Element(b.lamps ^ lit, b.pos)
                try:
                    bounds.append(exact_distance(translate, radius, memory_limit_mb))
                except RadiusExceeded:
                    failure, depth = b, ball.radius
                    break
    size = len(ball.depths)
    if failure is None:
        return DepthCertificate(n, k, radius, size, radius, "certified", None)
    word = witness_word(failure, _Budget(memory_limit_mb, "failure witness"))
    if a_length(word) != depth or evaluate(word) != failure:
        raise RuntimeError(f"the failure witness does not replay in {depth} letters")
    return DepthCertificate(n, k, radius, size, radius, "failed", format_word(word))
