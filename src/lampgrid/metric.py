"""Word-metric machinery: witnesses, lower bounds, balls, and depth certificates.

Distances are taken in the 17-move metric of the generating set
``A = {a, s, t, at, ta, ata, as, sa, asa}`` together with inverses; see
:mod:`lampgrid.words`.  The central geometric object is the hexagon

    H_n = { (p, q) : |p| <= n, |q| <= n, |p + q| <= n }

with corners (n,0), (-n,0), (0,n), (0,-n), (n,-n), (-n,n).  Any element
whose lamps and position fit in H_n admits a witness word of length at
most 6n (:func:`witness_word`), and the triple-lamp elements produced by
:func:`make_gn` need exactly 6n (:func:`halfplane_bound`), which is what
the depth certificates in :func:`certify_depth` are built on.

Breadth-first searches here are sequential and deterministic: given the
same inputs they produce identical counts and certificates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from sys import getsizeof

from .core import (
    Element,
    Pos,
    identity,
    multiply,
    press_effect,
)
from .gf2 import solve_subset_xor
from .words import (
    ACTIONS,
    EMPTY_METRIC,
    METRIC,
    Letter,
    Word,
    a_length,
    canonical_word,
    evaluate,
    format_word,
    merge_runs,
    move_elements,
)

DEFAULT_MEMORY_LIMIT_MB = 2048

# Bytes one recorded search state holds, by sys.getsizeof on the running
# interpreter: its Element, its position pair and its slot in the depth
# table; each charge adds the lamp frozenset and one pair per lamp.  States
# share some lamp pairs, so the charge errs high rather than low.
_PAIR_COST = getsizeof((0, 0))
_SLOT_COST = getsizeof(dict.fromkeys(range(1024))) // 1024
_INT_COST = getsizeof(2**30)
_STATE_COST = getsizeof(identity()) + _PAIR_COST + _SLOT_COST
# A box-tour vertex holds its position pair and coordinates, an entry in the
# vertex set, the first-visit map and the press-effect cache, and a cache
# node and replay letters about one more pair in size.  A segment lamp holds
# an entry in the segment and in the solver's index, and its bit number.
_VERTEX_COST = 2 * _PAIR_COST + 3 * _SLOT_COST + 2 * _INT_COST
_SEGMENT_COST = 2 * _SLOT_COST + _INT_COST


class SingularSystemError(ValueError):
    """A press system that was expected to be solvable is not."""


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


def in_T(pos: Pos, n: int) -> bool:
    """Membership in the triangle with corners (0,0), (0,-n), (n,-n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = pos
    return 0 <= p <= n and -n <= q <= 0 and p <= -q


@dataclass(frozen=True)
class TrapezoidSolution:
    """Rows of bits over a base sequence, with the exceptional entries marked.

    Row 0 is the base; each row above is one entry shorter, left-aligned.
    Every non-summit entry equals the mod-2 sum of its at-most-two upper
    neighbours; summits can occur only at the left end of rows 0..rows-2
    and anywhere in the top row.  When the base occupies the t-axis
    segment starting at position ``j0``, the summit ``(row, index)`` names
    a button at grid position ``(row, j0 + index)``, and pressing exactly
    the summit buttons reproduces the base pattern on that segment.
    """

    base: tuple[int, ...]
    rows: int
    summits: frozenset[tuple[int, int]]


def trapezoid_summits(base, rows: int) -> TrapezoidSolution:
    """Build the trapezoid over ``base`` bottom-up, one entry at a time.

    Each new row is filled right to left, choosing every entry so that the
    entry below-right of it satisfies its mod-2 relation.  Violations then
    survive only at left ends and in the top row; those are the summits.
    """
    bits = [int(b) for b in base]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("base must consist of zeros and ones")
    m = len(bits)
    if not 1 <= rows <= m:
        raise ValueError(f"rows must be in 1..{m}, got {rows}")
    levels: list[list[int]] = [bits]
    for lev in range(1, rows):
        width = m - lev
        row = [0] * width
        for u in range(width - 1, -1, -1):
            right = row[u + 1] if u + 1 < width else 0
            row[u] = levels[lev - 1][u + 1] ^ right
        levels.append(row)
    summits = set()
    for lev in range(rows - 1):
        if levels[lev][0] != levels[lev + 1][0]:
            summits.add((lev, 0))
    top = rows - 1
    for u, bit in enumerate(levels[top]):
        if bit:
            summits.add((top, u))
    return TrapezoidSolution(tuple(bits), rows, frozenset(summits))


def arc_press_solve(target, arc, segment) -> set[Pos]:
    """Subset of ``arc`` whose presses reproduce ``target`` on ``segment``.

    ``segment`` lists the lampstand positions on which equality is
    enforced; effects outside it are ignored (callers counteract them
    separately).  Elimination consumes columns in arc order and never
    selects redundant ones, so an empty target yields the empty press set.
    Raises :class:`SingularSystemError` when no subset works.
    """
    index = {pos: i for i, pos in enumerate(segment)}
    if len(index) != len(list(segment)):
        raise ValueError("segment positions must be distinct")
    want = 0
    for lamp in target:
        if lamp not in index:
            raise SingularSystemError(f"target lamp {lamp} lies outside the segment")
        want |= 1 << index[lamp]
    arc = list(arc)
    columns = []
    for vertex in arc:
        mask = 0
        for lamp in press_effect(vertex):
            bit = index.get(lamp)
            if bit is not None:
                mask |= 1 << bit
        columns.append(mask)
    combo = solve_subset_xor(columns, want)
    if combo is None:
        raise SingularSystemError(
            "press system is singular on the segment; no subset of the arc matches"
        )
    return {arc[i] for i in range(len(arc)) if combo >> i & 1}


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


def _vertices(path: list[Pos]) -> list[Pos]:
    """Every vertex of the walk through the corners ``path``, in walk order."""
    p, q = path[0]
    vertices = [(p, q)]
    for tp, tq in path[1:]:
        step = 1 if tp > p else -1
        while p != tp:
            p += step
            vertices.append((p, q))
        step = 1 if tq > q else -1
        while q != tq:
            q += step
            vertices.append((p, q))
    return vertices


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


def witness_word(g: Element) -> Word:
    """Word over the 17 moves evaluating to ``g`` with length at most 6n.

    Here n = :func:`hex_param`\\ (g).  The construction plans a lamplighter
    tour of at most 6n unit moves together with button presses at visited
    vertices, then fuses every press into an adjacent move so presses cost
    nothing.  Four plans cover the position (p, q):

    * p >= 0 starts with an out-and-back along the negative s-axis to its
      farthest lamp, lighting the s-axis lamps; with none it skips this.
    * p >= 0 with (p, q) in the lower triangle then tours the whole t-axis
      segment, pressing lamps directly.
    * p >= 0 otherwise descends the t-axis and climbs a trapezoid whose
      summit presses realise the t-axis pattern from positions on the
      remaining two arcs.
    * p < 0 tours the t-axis, then walks an arc parallel to the s-axis at
      height +/-n, out to the farther of p and the farthest arc press;
      presses on that arc are solved over GF(2) to realise the s-axis
      lamps, and their side effects on the t-axis are counteracted by
      extra presses on the segment already walked.

    The lone element that presses only the origin button is returned as
    the single letter ``a``; its length 1 exceeds the vacuous bound 6*0,
    the one exception to the estimate.
    """
    n = hex_param(g)
    if n == 0:
        if g.lamps:
            return _PRESS
        return EMPTY_METRIC
    p, q = g.pos
    s_targets = {lamp for lamp in g.lamps if lamp[1] == 0 and lamp[0] < 0}
    t_targets = {lamp for lamp in g.lamps if lamp[0] == 0}
    path: list[Pos] = [(0, 0)]
    if p >= 0:
        if s_targets:
            _walk_to(path, min(s_targets))
            _walk_to(path, (0, 0))
        presses = set(s_targets)
        if in_T(g.pos, n):
            _walk_to(path, (0, n))
            _walk_to(path, (0, -n))
            _walk_to(path, (0, q))
            _walk_to(path, (p, q))
            presses |= t_targets
        else:
            _walk_to(path, (0, -n))
            _walk_to(path, (0, -p))
            _walk_to(path, (p, -p))
            _walk_to(path, (p, n - p))
            _walk_to(path, (p, q))
            presses |= {lamp for lamp in t_targets if lamp[1] < -p}
            base_bits = [1 if (0, j) in t_targets else 0 for j in range(-p, n + 1)]
            solution = trapezoid_summits(base_bits, p + 1)
            presses |= {(row, -p + idx) for row, idx in solution.summits}
    else:
        arc_q = -n if q <= 0 else n
        arc = [(-k, arc_q) for k in range(1, n + 1)]
        segment = [(-k, 0) for k in range(1, n + 1)]
        chosen = arc_press_solve(s_targets, arc, segment)
        _walk_to(path, (0, -arc_q))
        _walk_to(path, (0, arc_q))
        _walk_to(path, min(chosen | {(p, arc_q)}))
        presses = set(chosen)
        achieved: set[Pos] = set()
        for vertex in chosen:
            achieved ^= press_effect(vertex)
        residual = g.lamps ^ frozenset(achieved)
        for lamp in residual:
            if lamp[0] != 0 or abs(lamp[1]) > n:
                raise RuntimeError(f"arc presses left residue {lamp} off the toured t-axis")
        presses |= residual
        _walk_to(path, (p, arc_q))
        _walk_to(path, (p, q))
    return _word_from_path(path, presses)


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


# The 17 moves; every search step prepends one of them to a state.
_MOVES = tuple(el for _, el in move_elements())


class _Budget:
    """Storage of the states one search has recorded, against a cap."""

    def __init__(self, limit_mb: int | None, search: str):
        # None is the module default, read now rather than at definition.
        self.limit_mb = DEFAULT_MEMORY_LIMIT_MB if limit_mb is None else limit_mb
        self.search = search
        self.left = self.limit_mb * 1024 * 1024

    def spend(self, size: int) -> None:
        self.left -= size
        if self.left < 0:
            raise MemoryCapExceeded(f"{self.search} exceeds the {self.limit_mb} MiB cap")

    def charge(self, g: Element) -> None:
        self.spend(_STATE_COST + getsizeof(g.lamps) + _PAIR_COST * len(g.lamps))


def _expand_layer(
    frontier: list[Element], depths: dict[Element, int], layer: int, budget: _Budget
) -> list[Element]:
    """Next breadth-first layer: prepend every move to every frontier state.

    States not yet in ``depths`` are recorded there at ``layer``, charged
    to ``budget`` and returned in expansion order.  Prepending keeps the
    product cheap, since a move has at most two lamps to re-expand.
    """
    nxt: list[Element] = []
    for state in frontier:
        for mv in _MOVES:
            child = multiply(mv, state)
            if child not in depths:
                depths[child] = layer
                budget.charge(child)
                nxt.append(child)
    return nxt


def ball_with_depths(
    radius: int, memory_limit_mb: int = DEFAULT_MEMORY_LIMIT_MB
) -> dict[Element, int]:
    """All elements of word length at most ``radius``, mapped to their length.

    Canonicalized breadth-first search: states are deduplicated by their
    normal form, each new layer prepends one of the 17 moves.  Expansion
    order is fixed, so the mapping (and its iteration order) is
    deterministic.  Raises :class:`MemoryCapExceeded` when the stored
    states outgrow the cap.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = _Budget(memory_limit_mb, f"ball of radius {radius}")
    depths: dict[Element, int] = {identity(): 0}
    frontier = [identity()]
    for depth in range(1, radius + 1):
        frontier = _expand_layer(frontier, depths, depth, budget)
    return depths


def sphere_sizes(
    r_max: int, memory_limit_mb: int = DEFAULT_MEMORY_LIMIT_MB
) -> list[int]:
    """Sizes |S(0)|, ..., |S(r_max)| of the spheres about the identity."""
    depths = ball_with_depths(r_max, memory_limit_mb)
    counts = [0] * (r_max + 1)
    for depth in depths.values():
        counts[depth] += 1
    return counts


def box_tour_word(g: Element, budget: _Budget | None = None) -> Word:
    """Word for ``g`` along a walk of :func:`halfplane_bound`\\ (g) moves.

    The walk leaves the origin, goes round the box of :func:`_box` through
    corners picked by the signs of ``g.pos`` and ends there, so each
    coordinate travels twice the box's extent in it minus its net move.
    Presses at the walk's vertices that reproduce ``g.lamps`` are solved
    over GF(2), on the union of the vertices' press effects, and fused into
    the moves, so the word has :func:`halfplane_bound`\\ (g) letters (one,
    ``a``, for the origin press, whose bound is 0).  The word is not
    replayed here.  The walk and the press system are charged to
    ``budget`` (default: a fresh one at ``DEFAULT_MEMORY_LIMIT_MB``) before
    they are built.

    The presses always exist.  Let (-F, -D) and (P, Q) be the corners of
    the box.  The lamps of ``g`` lie on the s-axis at (-F..-1, 0) and on
    the t-axis at (0, -D..P+Q).  A walked lampstand vertex toggles just its
    own lamp, and a press at (p, q) is x^q (1+x)^p (:func:`press_effect`).
    Each leg of the walk adjusts p before q (:func:`_walk_to`), so by the
    signs of (e_p, e_q) = ``g.pos`` it covers:

    * e_p >= 0 and e_q >= 0: the s-axis out to -F; the row q = -D for
      p = 0..P, giving x^-D (1+x)^p; the column p = P for q = -D..Q, giving
      x^q (1+x)^P.  The two families have dimensions P+1 and D+Q+1 and, as
      x and 1+x are coprime, share only x^-D (1+x)^P, so they span every
      t-axis pattern on -D..P+Q.  Presses at p >= 0 light no s-axis lamp.
    * e_p < 0 <= e_q (so P = 0): the t-axis from -D to Q.  The press at
      (-k, Q), k = 1..F, lights (-k, 0), other s-axis lamps nearer the
      origin and t-axis lamps in 0..Q-k, all of them walked, so the s-axis
      is solved from -F inward and the t-axis lamp by lamp.
    * e_q < 0 <= e_p: the s-axis directly; the row q = 0 for p = 0..P and
      the column p = P for q = -D..Q, which share only (1+x)^P and span the
      t-axis as in the first case.
    * both negative (so P = 0): the t-axis from 0 to Q, and the column
      p = -F for q = -D..-1.  The press at (-F, q) has lowest t-axis lamp
      q, its other t-axis lamps in q+1..-1 and its s-axis lamps in -F..-1,
      so the column solves the negative t-axis bottom-up.  The row q = Q
      then solves the s-axis as in the second case.

    Hence :func:`arc_press_solve` never raises :class:`SingularSystemError`
    here; :func:`exact_distance` replays the word on every call regardless.
    """
    if budget is None:
        budget = _Budget(None, "box tour")
    (p_lo, q_lo), (p_hi, q_hi) = _box(g)
    ep, eq = g.pos
    if ep >= 0 and eq >= 0:
        corners = [(p_lo, 0), (p_lo, q_lo), (p_hi, q_hi)]
    elif eq >= 0:
        corners = [(0, q_lo), (p_hi, q_hi), (p_lo, q_hi)]
    elif ep >= 0:
        corners = [(p_lo, 0), (p_hi, q_hi), (p_hi, q_lo)]
    else:
        corners = [(p_hi, q_hi), (p_lo, q_lo)]
    # The walk has halfplane_bound(g) moves.
    moves = 2 * (p_hi - p_lo + q_hi - q_lo) - abs(ep) - abs(eq)
    budget.spend(_VERTEX_COST * (moves + 1))
    path: list[Pos] = [(0, 0)]
    for corner in corners + [g.pos]:
        _walk_to(path, corner)
    vertices = list(dict.fromkeys(_vertices(path)))
    segment: dict[Pos, None] = {}
    for vertex in vertices:
        effect = press_effect(vertex)
        budget.spend(getsizeof(effect) + (_PAIR_COST + _INT_COST) * len(effect))
        segment.update(dict.fromkeys(effect))
    # Each vertex's column and elimination record: two masks over the
    # segment, one over the vertices and a pair.
    column = getsizeof(1 << len(segment))
    budget.spend(
        _SEGMENT_COST * len(segment)
        + len(vertices) * (2 * column + getsizeof(1 << len(vertices)) + _PAIR_COST)
    )
    return _word_from_path(path, arc_press_solve(g.lamps, vertices, segment))


def exact_distance(
    g: Element, max_r: int, memory_limit_mb: int | None = None
) -> int:
    """Word length of ``g``, exact whenever it is at most ``max_r``.

    The length is max(:func:`halfplane_bound`\\ (g), [g != 1]), and every
    call proves it without a search: the half-plane lemma, and the one
    letter every element but the identity needs, give the lower side, and
    :func:`box_tour_word`, replayed here, spells ``g`` in exactly that many
    letters.  Raises :class:`RadiusExceeded` at once when that length
    exceeds ``max_r``; the exception carries the radius and the length as
    a lower bound, not a number.  Raises :class:`MemoryCapExceeded` when
    the tour outgrows ``memory_limit_mb`` (default
    ``DEFAULT_MEMORY_LIMIT_MB``, read at call time), and ``RuntimeError``
    if the tour fails to replay at that length, which would refute the
    proof in :func:`box_tour_word`.  :func:`search_distance` is the
    independent oracle.
    """
    if max_r < 1:
        raise ValueError("max_r must be positive")
    lower = max(halfplane_bound(g), int(g != identity()))
    if lower > max_r:
        raise RadiusExceeded(max_r, lower)
    word = box_tour_word(g, _Budget(memory_limit_mb, f"distance to radius {max_r}"))
    if a_length(word) != lower or evaluate(word) != g:
        raise RuntimeError(f"the box tour does not replay in {lower} letters")
    return lower


def search_distance(g: Element, max_r: int, memory_limit_mb: int | None = None) -> int:
    """Word length of ``g`` by exhaustive search, if it is at most ``max_r``.

    Bidirectional breadth-first search, expanding the smaller frontier one
    full layer at a time.  Both sides prepend moves: one grows the ball
    B(r_a), the other the left translates B(r_b)*g.  Since
    B(r_b)*B(r_a) = B(r_a + r_b), the two meet exactly when
    |g| <= r_a + r_b.  It uses neither the half-plane bound nor the box
    tour, so it is the oracle of :func:`exact_distance`.  Raises
    :class:`RadiusExceeded` past ``max_r`` and :class:`MemoryCapExceeded`
    when the states of both sides outgrow ``memory_limit_mb`` (default
    ``DEFAULT_MEMORY_LIMIT_MB``, read at call time).
    """
    budget = _Budget(memory_limit_mb, f"distance search to radius {max_r}")
    if g == identity():
        return 0
    dist_a: dict[Element, int] = {identity(): 0}
    dist_b: dict[Element, int] = {g: 0}
    frontier_a = [identity()]
    frontier_b = [g]
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
    """Machine-checkable record that a radius-k neighbourhood stays in a ball.

    ``verdict == "certified"`` means: every element within distance k of
    the anchor element has word length at most ``ball_radius`` (= 6n), so
    the anchor's dead-end depth is at least k+1.
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
            f"checked: all {self.neighborhood_size} elements within distance {self.k}",
            f"longest witness found: {self.max_witness_length}",
        ]
        if self.verdict == "certified":
            lines.append(
                f"verdict: certified; dead-end depth of the anchor is at least {self.k + 1}"
            )
        else:
            lines.append(f"verdict: FAILED at neighbour offset {self.failure_witness}")
        lines.append(
            "note: the anchor's length 6n is proved: halfplane_bound gives the"
            " lower side and the defining word of make_gn the upper side."
        )
        return "\n".join(lines)


def certify_depth(
    n: int, k: int, memory_limit_mb: int = DEFAULT_MEMORY_LIMIT_MB
) -> DepthCertificate:
    """Certify that the anchor element of :func:`make_gn` has depth > k.

    The neighbourhood of the anchor u consists of the products u*b for b
    in the radius-k ball.  Word length is inversion-invariant and u is an
    involution, so |u*b| = |b^-1*u|, and b -> b^-1 permutes the ball; the
    certifier therefore bounds the left-translates b*u instead.  Those
    stay inside the radius-n hexagon (k <= n grid steps from the origin,
    and presses inside the hexagon only toggle lamps inside it), so each
    admits a witness word, which is replayed and measured against 6n.
    That |u| = 6n is checked too: its :func:`halfplane_bound` must be 6n.

    Requires 0 <= k <= n; the hexagon argument does not reach further.
    """
    if n < 1:
        raise ValueError("certify_depth requires n >= 1")
    if not 0 <= k <= n:
        raise ValueError("certify_depth requires 0 <= k <= n")
    anchor, _ = make_gn(n)
    bound = 6 * n
    if multiply(anchor, anchor) != identity() or halfplane_bound(anchor) != bound:
        raise RuntimeError("anchor is expected to be an involution of length 6n")
    depths = ball_with_depths(k, memory_limit_mb)
    max_length = 0
    for b in depths:
        translate = multiply(b, anchor)
        if hex_param(translate) > n:
            return DepthCertificate(
                n, k, bound, len(depths), max_length, "failed",
                format_word(canonical_word(b)),
            )
        witness = witness_word(translate)
        if evaluate(witness) != translate:
            raise RuntimeError("witness failed to replay; witness builder is broken")
        length = a_length(witness)
        if length > bound:
            return DepthCertificate(
                n, k, bound, len(depths), max_length, "failed",
                format_word(canonical_word(b)),
            )
        if length > max_length:
            max_length = length
    return DepthCertificate(n, k, bound, len(depths), max_length, "certified", None)
