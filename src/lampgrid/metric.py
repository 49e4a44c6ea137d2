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
witness or a replayed parent word plus one letter.  So both of its
verdicts are proofs: depth > k when all stay within 6n, depth <= k when
one leaves.  For n <= 6 the two meet at depth(g_n) = 2n + 1.

Breadth-first searches here are sequential and deterministic: given the
same inputs they produce identical counts and certificates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain, product
from sys import getsizeof

from .core import (
    Element,
    LampSet,
    Pos,
    identity,
    multiply,
    press_effect,
)
from .words import (
    ACTIONS,
    EMPTY_METRIC,
    METRIC,
    Letter,
    Word,
    a_length,
    act_runs,
    canonical_word,
    evaluate,
    format_word,
    merge_runs,
    move_elements,
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
# Given on_layer, a search also keeps, for each state of the layer it hands
# over, its origin (an int and a list pointer) and a list pointer for what
# the hook keeps per state: certify's bound, a small int Python caches.
_HOOK_COST = _INT_COST + 2 * _POINTER_COST
# A press of a witness holds its position pair and coordinates, a slot in
# each of the three press sets of the solve and the fuser, a stop pair on
# its leg and up to two runs; on replay a lampstand press caches its
# one-lamp effect.
_PRESS_COST = (
    getsizeof(frozenset({(0, 0)})) + 4 * _PAIR_COST + 3 * _INT_COST + 4 * _SLOT_COST
)
# The solve keeps only its presses, but it visits every walked vertex, so a
# walk is charged one pointer per vertex before it is walked: a walk at the
# input limit (2^31 vertices, minutes of solving) meets the default cap at
# once, while an anchor's walk of 6n vertices fits it for n up to 4*10^7.
_WALK_COST = _POINTER_COST
# Frames, generators, the path and the word of one witness: about 3 kB by
# tracemalloc, rounded up.
_SOLVE_COST = 4096
# What a search holds beside its states: its frames, lists and tables
# before they grow, and the press effects it caches.  B(2) from a cold
# cache, 88 states, traces about 8 kB above their charge, the most of any
# ball; rounded up.
_SEARCH_COST = 12 * 1024


class RadiusExceeded(RuntimeError):
    """The distance is only bounded below: it exceeds the search radius."""

    def __init__(self, max_radius: int, bound: int = 0):
        self.max_radius = max_radius
        super().__init__(
            f"distance exceeds search radius {max_radius};"
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
_PRESS = Word(((Letter("a", 1), 1),), METRIC)


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
        return _PRESS if start_pressed else EMPTY_METRIC
    if start_pressed:
        letter, count = chrono[0]
        _, step, after = ACTIONS[letter]
        chrono[:1] = [(_MOVE_LETTERS[step, True, after], 1), (letter, count - 1)]
    return Word(merge_runs(reversed(chrono)), METRIC)


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
    return element, Word(runs, METRIC)


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
    (p_lo, q_lo), (p_hi, q_hi) = _box(g)
    ep, eq = g.pos
    return 2 * (p_hi - p_lo + q_hi - q_lo) - abs(ep) - abs(eq)


def _box(g: Element) -> tuple[Pos, Pos]:
    """Corners (-F, -D) and (P, Q) of the box behind :func:`halfplane_bound`.

    F = max(far, -e_p, 0), D = max(low, -e_q, 0), P = e_p+ and
    Q = max(top, e_p+ + e_q+) - P, so twice the box's width plus height is
    the bracketed sum of the bound.  (P, Q) meets p + q >= top, the bottom
    side q <= -low and the left side p <= -far.
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
    p_hi = max(ep, 0)
    return (
        (-max(far, -ep, 0), -max(low, -eq, 0)),
        (p_hi, max(top, p_hi + max(eq, 0)) - p_hi),
    )


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


# _LAMP_SETS holds each distinct nonempty lamp set of a move and _PRESSES
# its offset, _SHIFTS each distinct step, and _STEPS each move's index into
# _SHIFTS with the index of its lamp set, or -1 if it lights none.
_LAMP_SETS = tuple(dict.fromkeys(mv.lamps for mv in _MOVES if mv.lamps))
_PRESSES = tuple(map(_single_press, _LAMP_SETS))
_SHIFTS = tuple(dict.fromkeys(mv.pos for mv in _MOVES))
_STEPS = tuple(
    (_SHIFTS.index(mv.pos), _LAMP_SETS.index(mv.lamps) if mv.lamps else -1) for mv in _MOVES
)

_IDENTITY = identity()


class _Budget:
    """Storage of the states one search has recorded, against a cap.

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

    def spend(self, size: int) -> None:
        self.left -= size
        if self.left < 0:
            raise MemoryCapExceeded(f"{self.search} exceeds the {self.limit_mb} MiB cap")

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


def _expand_layer(
    frontier: list[Element],
    depths: dict[Element, int],
    layer: int,
    budget: _Budget,
    origins: list[int] | None = None,
) -> list[Element]:
    """Next breadth-first layer: prepend every move to every frontier state.

    States not yet in ``depths`` are charged to ``budget``, which builds
    them from its copies of their lamp sets and positions, recorded in
    ``depths`` at ``layer`` and returned in expansion order.  The children
    of a state are ``multiply(mv, state)`` for the moves ``mv`` of
    ``_MOVES``, in that order.  Each lamp set a move can toggle is one
    press at the state's position plus an offset of ``_PRESSES``, so a
    state takes seven press lookups, each XORed into its lamps once, and
    its five child positions, its own plus each step of ``_SHIFTS``;
    ``_STEPS`` pairs them per move.  ``depths`` is probed with plain
    (lamps, pos) pairs, so only a new state becomes an :class:`Element`.
    Given ``origins``, each new state also appends there where it came
    from: ``len(_MOVES) * i + m`` for its first parent ``frontier[i]`` and
    the move ``_MOVES[m]``, so that the state is ``_MOVES[m] * frontier[i]``.

    A state is expanded only if all seven presses are within
    ``PRESS_LAMP_LIMIT``, else ``ValueError``; the presses at offsets
    (1, 0) and (1, -1) can exceed it where the state's own press does not.
    At (2^21 - 2, q), say, the press there toggles 2^20 lamps and the one
    at (2^21 - 1, q) 2^21, so a search that expands such a state raises.
    """
    nxt: list[Element] = []
    width = len(_MOVES)
    charge = budget.charge
    for i, (lamps, (p, q)) in enumerate(frontier):
        lit = [lamps ^ press_effect((p + dp, q + dq)) for dp, dq in _PRESSES]
        lit.append(lamps)
        shifted = [(p + dp, q + dq) for dp, dq in _SHIFTS]
        for m, (shift, press) in enumerate(_STEPS):
            child = (lit[press], shifted[shift])
            if child not in depths:
                child = charge(child)
                depths[child] = layer
                nxt.append(child)
                if origins is not None:
                    origins.append(width * i + m)
    return nxt


def ball_with_depths(
    radius: int,
    memory_limit_mb: int | None = None,
    on_layer: Callable[[list[Element], list[Element], list[int]], bool] | None = None,
) -> dict[Element, int]:
    """All elements of word length at most ``radius``, mapped to their length.

    Canonicalized breadth-first search: states are deduplicated by their
    normal form, each new layer prepends one of the 17 moves.  Expansion
    order is fixed, so the mapping (and its iteration order) is
    deterministic.  Equal lamp sets and equal positions are held once
    across the ball (:class:`_Budget`), so a state costs its
    :class:`Element` and its slot in the mapping, plus its lamp set and
    position only where no earlier state has them, and the ball a fixed
    ``_SEARCH_COST`` for what it holds beside its states.  Raises
    :class:`MemoryCapExceeded` when the stored states outgrow
    ``memory_limit_mb`` (default ``DEFAULT_MEMORY_LIMIT_MB``, read at call
    time).  Given ``on_layer``, each new layer is passed to it as
    ``on_layer(frontier, layer, origins)``, with the origins of
    :func:`_expand_layer`, until it returns False; each state of such a
    layer is also charged its origin and one value the hook keeps for it.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = _Budget(memory_limit_mb, f"ball of radius {radius}")
    budget.spend(_SEARCH_COST)
    frontier = [budget.charge(_IDENTITY)]
    depths: dict[Element, int] = {frontier[0]: 0}
    for depth in range(1, radius + 1):
        origins = None if on_layer is None else []
        layer = _expand_layer(frontier, depths, depth, budget, origins)
        if on_layer is not None:
            budget.spend(_HOOK_COST * len(layer))
            if not on_layer(frontier, layer, origins):
                on_layer = None
        frontier = layer
    return depths


def sphere_sizes(
    r_max: int, memory_limit_mb: int | None = None
) -> list[int]:
    """Sizes |S(0)|, ..., |S(r_max)| of the spheres about the identity."""
    depths = ball_with_depths(r_max, memory_limit_mb)
    counts = [0] * (r_max + 1)
    for depth in depths.values():
        counts[depth] += 1
    return counts


def witness_word(g: Element, budget: _Budget | None = None) -> Word:
    """Geodesic word for ``g``: a walk of :func:`halfplane_bound`\\ (g) moves.

    The walk leaves the origin, goes round the box of :func:`_box` through
    corners picked by the signs of ``g.pos`` and ends there, so each
    coordinate travels twice the box's extent in it minus its net move.
    Presses at walked vertices that reproduce ``g.lamps`` are fused into
    the moves, so the word has :func:`halfplane_bound`\\ (g) letters, the
    length of ``g`` by the half-plane lemma; the origin press, whose bound
    is 0, is the one letter ``a``.  Inside H_n we have F <= n, D <= n and
    P + Q <= n (below), so ``halfplane_bound(g) <= 6n``: the paper's 6n
    upper bound follows from the formula.  The word is not replayed here;
    :func:`exact_distance` replays it.  ``budget`` (default: a fresh one
    at ``DEFAULT_MEMORY_LIMIT_MB``) is charged what the solve holds: each
    press with its effect as it is made, and the lamps it copies.  Before
    the walk starts it is also charged one pointer per walked vertex, since
    the solve visits them all: a walk too long to solve fails at once.

    The presses are solved by back-substitution, and its order is the proof
    that they exist.  Let (-F, -D) and (P, Q) be the corners of the box.
    The lamps of ``g`` lie on the s-axis at (-F..-1, 0) and on the t-axis
    at (0, -D..P+Q).  A press at (p, q) is x^q (1+x)^p
    (:func:`press_effect`).  For p >= 0 it lights t-axis lamps in q..p+q,
    both ends among them.  For p < 0 it lights (p, 0), other s-axis lamps
    nearer the origin, and t-axis lamps in q..-1 with q among them when
    q < 0, or in 0..p+q when q >= 0.  A lampstand press toggles just its own
    lamp.  Each leg of the walk adjusts p before q (:func:`_walk_to`).  By
    the signs of (e_p, e_q) = ``g.pos``, the walk and an ordered list of
    (vertex, pivot lamp) pairs are:

    * e_p >= 0 and e_q >= 0: the s-axis out to -F, the row q = -D from -F
      to P and the column p = P up to Q.  Column (P, q) for q = Q..-D,
      pivot (0, P+q); then row (p, -D) for p = P-1..0, pivot (0, p-D).
      Every press lights t-axis lamps no higher than its pivot, so the
      t-axis is settled from P+Q down to -D.
    * e_p < 0 <= e_q (so P = 0): the t-axis from -D to Q, then the row
      q = Q out to -F.  Row (-k, Q) for k = F..1, pivot (-k, 0).  Every
      press lights s-axis lamps no farther out than its pivot, so the
      s-axis is settled from -F inward.
    * e_q < 0 <= e_p: the s-axis out to -F, the row q = 0 from -F to P and
      the column p = P from Q down to -D.  Column (P, q) for q = -D..-1,
      pivot (0, q), lowest lamp first: every press lights t-axis lamps no
      lower than its pivot.  Then column (P, q) for q = Q..0, pivot
      (0, P+q), and row (p, 0) for p = P-1..0, pivot (0, p), as in the
      first case on the lamps 0..P+Q; these light no negative t-axis lamp.
    * both negative (so P = 0): the t-axis from 0 to Q, the row q = Q out
      to -F and the column p = -F down to -D.  Column (-F, q) for
      q = -D..-1, pivot (0, q): every press lights t-axis lamps in q..-1
      and s-axis lamps only.  Then row (-k, Q) for k = F..1, pivot (-k, 0),
      as in the second case; these light no negative t-axis lamp.

    The solve is one loop: starting from ``g.lamps``, press each vertex
    whose pivot is lit and toggle its effect.  No press ever toggles a
    pivot that an earlier press has settled, so every pivot ends dark.
    What is left lies on the s-axis in the first and third cases, on the
    t-axis from -D to Q in the second and from 0 to Q in the fourth:
    walked lampstand vertices, each its own press.
    """
    if budget is None:
        budget = _Budget(None, "witness word")
    # Corners named as in the proof above.
    (p_lo, q_lo), (P, Q) = _box(g)
    F, D = -p_lo, -q_lo
    ep, eq = g.pos
    # The walk, and a residual slot for each lamp of g.
    walk = 2 * (F + D + P + Q) - abs(ep) - abs(eq) + 1
    budget.spend(_SOLVE_COST + _WALK_COST * walk + _SLOT_COST * len(g.lamps))
    if ep >= 0 and eq >= 0:
        corners = [(-F, 0), (-F, -D), (P, Q)]
        pairs = chain(
            (((P, q), (0, P + q)) for q in range(Q, -D - 1, -1)),
            (((p, -D), (0, p - D)) for p in range(P - 1, -1, -1)),
        )
    elif eq >= 0:
        corners = [(0, -D), (0, Q), (-F, Q)]
        pairs = (((-k, Q), (-k, 0)) for k in range(F, 0, -1))
    elif ep >= 0:
        corners = [(-F, 0), (P, Q), (P, -D)]
        pairs = chain(
            (((P, q), (0, q)) for q in range(-D, 0)),
            (((P, q), (0, P + q)) for q in range(Q, -1, -1)),
            (((p, 0), (0, p)) for p in range(P - 1, -1, -1)),
        )
    else:
        corners = [(0, Q), (-F, -D)]
        pairs = chain(
            (((-F, q), (0, q)) for q in range(-D, 0)),
            (((-k, Q), (-k, 0)) for k in range(F, 0, -1)),
        )
    residual = set(g.lamps)
    presses = set()
    for vertex, pivot in pairs:
        if pivot in residual:
            effect = press_effect(vertex)
            budget.spend(
                _PRESS_COST + getsizeof(effect) + (_PAIR_COST + _INT_COST) * len(effect)
            )
            residual ^= effect
            presses.add(vertex)
    budget.spend(_PRESS_COST * len(residual))
    path: list[Pos] = [(0, 0)]
    for corner in corners + [g.pos]:
        _walk_to(path, corner)
    return _word_from_path(path, presses | residual)


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
    lower = max(halfplane_bound(g), int(g != _IDENTITY))
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
    one budget, so equal lamp sets and positions are held once across both,
    and the search is charged ``_SEARCH_COST`` once.
    """
    budget = _Budget(memory_limit_mb, f"distance search to radius {max_r}")
    if g == _IDENTITY:
        return 0
    budget.spend(_SEARCH_COST)
    frontier_a = [budget.charge(_IDENTITY)]
    frontier_b = [budget.charge(g)]
    dist_a: dict[Element, int] = {frontier_a[0]: 0}
    dist_b: dict[Element, int] = {frontier_b[0]: 0}
    radius_a = radius_b = 0
    while radius_a + radius_b < max_r:
        if len(frontier_a) <= len(frontier_b):
            radius_a += 1
            frontier_a = _expand_layer(frontier_a, dist_a, radius_a, budget)
            new, other = frontier_a, dist_b
        else:
            radius_b += 1
            frontier_b = _expand_layer(frontier_b, dist_b, radius_b, budget)
            new, other = frontier_b, dist_a
        # No earlier layer met, so any meeting here gives |g| = r_a + r_b.
        if any(state in other for state in new):
            return radius_a + radius_b
    raise RadiusExceeded(max_r)


@dataclass(frozen=True)
class DepthCertificate:
    """Machine-checkable record of the anchor's neighbours within distance k.

    ``verdict == "certified"`` means: every element within distance k of
    the anchor element has word length at most ``ball_radius`` (= 6n), so
    the anchor's dead-end depth is at least k+1.  ``verdict == "failed"``
    means: the offset b spelled by ``failure_witness``, itself within
    distance k, takes the anchor out of that ball, so its dead-end depth is
    at most k.  ``max_witness_length`` is the longest replayed word the
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
            lines.append(
                f"verdict: FAILED at neighbour offset {self.failure_witness};"
                f" dead-end depth of the anchor is at most {self.k}"
            )
        lines.append(
            "note: every bound is proved: halfplane_bound gives the lower side, and"
            " a replayed word the upper side, either a fresh witness or a neighbour's"
            " word plus one letter (make_gn's word for the anchor)."
        )
        return "\n".join(lines)


def _bound_layer(
    anchor: Element,
    radius: int,
    parents: list[Element],
    parent_bounds: list[int],
    layer: list[Element],
    origins: list[int],
    memory_limit_mb: int | None,
) -> tuple[Element | None, list[int]]:
    """Upper bounds on |b * anchor| for the b of ``layer``, in its order.

    ``origins`` comes from :func:`_expand_layer`: b = m * parent for a move
    m, so b * anchor = m * (parent * anchor), spelled by the parent's word
    with m's letter prepended.  A parent whose carried bound has reached
    ``radius`` is first measured once by :func:`exact_distance`, when the
    layer reaches its first child, so its children inherit its length
    rather than ``radius``.  While the parent's bound is below ``radius``,
    b gets that bound plus one, and the extension is replayed: m's letter
    acts on parent * anchor by :func:`act_runs` and must give b * anchor,
    else ``RuntimeError``.  Otherwise the parent's length is ``radius``,
    and b is measured afresh by :func:`exact_distance` at ``radius``.
    Returns the bounds, and the first b, in layer order, whose translate
    is proved longer than ``radius`` (bounding stops there), or None when
    there is none.

    The anchor must sit at the origin, as the involution check of
    :func:`certify_depth` proves (u*u = 1 forces 2 * u.pos = 0).  Then
    ``multiply(b, anchor)`` re-presses b's lamps where they lie, on the
    lampstand, and each such press toggles just its own lamp: b * anchor
    is b's lamps XOR the anchor's, at b's position, one XOR per translate.
    """
    width = len(_MOVES)
    lit = anchor.lamps
    bounds: list[int] = []
    last = -1
    for b, origin in zip(layer, origins):
        i, m = divmod(origin, width)
        translate = Element(b.lamps ^ lit, b.pos)
        if i != last:
            # Recomputed per parent, so the frontier holds no translates.
            parent = parents[i]
            parent_translate = Element(parent.lamps ^ lit, parent.pos)
            bound = parent_bounds[i]
            if bound >= radius:
                bound = exact_distance(parent_translate, radius, memory_limit_mb)
            last = i
        if bound < radius:
            if act_runs(_MOVE_RUNS[m], parent_translate) != translate:
                raise RuntimeError(f"a one-letter extension does not replay to {b}")
            bounds.append(bound + 1)
        else:
            try:
                bounds.append(exact_distance(translate, radius, memory_limit_mb))
            except RadiusExceeded:
                return b, bounds
    return None, bounds


def certify_depth(
    n: int, k: int, memory_limit_mb: int | None = None
) -> DepthCertificate:
    """Certify that the anchor element of :func:`make_gn` has depth > k, or not.

    The neighbourhood of the anchor u consists of the products u*b for b
    in the radius-k ball.  Word length is inversion-invariant and u is an
    involution, so |u*b| = |b^-1*u|, and b -> b^-1 permutes the ball; the
    certifier therefore bounds the left-translates b*u instead, layer by
    layer as :func:`ball_with_depths` searches the ball.  The upper side of
    each bound is a replayed word.  For b = 1 it is the defining word of
    :func:`make_gn`, which must replay to u in 6n letters, while
    :func:`halfplane_bound` must give 6n for the lower side; that proves
    |u| = 6n, which is why ``max_witness_length`` is 6n.  Every later b
    inherits its first parent's bound plus one, its word extended by one
    letter and replayed (:func:`_bound_layer`).  A parent whose bound has
    reached 6n is measured once by :func:`exact_distance`, so its children
    inherit its length instead; u is the first such parent, of B(1).  Only
    where that length is 6n is b*u measured afresh, at radius 6n.  The
    first b, in breadth-first order, whose translate is longer than 6n
    fails the certificate; since :func:`exact_distance` raises on its
    proved lower bound, a failure proves depth <= k.  After a failure the
    search only counts the rest of the ball, for ``neighborhood_size``.
    ``memory_limit_mb`` caps the ball and each fresh witness (default
    ``DEFAULT_MEMORY_LIMIT_MB``, read at call time).

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
    bounds = [radius]
    failure = None

    def bound_layer(frontier, layer, origins) -> bool:
        nonlocal bounds, failure
        failure, bounds = _bound_layer(
            anchor, radius, frontier, bounds, layer, origins, memory_limit_mb
        )
        return failure is None

    size = len(ball_with_depths(k, memory_limit_mb, bound_layer))
    if failure is None:
        return DepthCertificate(n, k, radius, size, radius, "certified", None)
    return DepthCertificate(
        n, k, radius, size, radius, "failed", format_word(canonical_word(failure))
    )
