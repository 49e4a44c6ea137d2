"""State model and exact group operations for the lamplighter grid group.

The group ``<a, s, t | a^2, [a, a^t], [s, t], a^s = a a^t>`` acts on pairs
(lamp configuration, lamplighter position) over a rhombic grid.  Positions
are ``(p, q)`` where ``p`` counts steps in the s-direction and ``q`` steps
in the t-direction.  Lamps live on the *lampstand*: the whole t-axis
together with the strictly negative s-axis.

Generator actions:

* ``s`` and ``t`` translate the lamplighter by one grid unit.
* ``a`` presses the button at the lamplighter's position.  On the
  lampstand this toggles the single lamp underfoot.  Off the lampstand it
  sets off a bifurcating signal that resolves into finitely many lampstand
  toggles; see :func:`press_effect`.

The action is regular, so a group element is determined by its effect on
the empty state.  :class:`Element` stores exactly that: the set of lamps
left lit and the net translation.  All operations here are pure; values
are immutable and safe to share across threads.  The press-effect memo is
only ever extended with idempotently recomputable entries, so concurrent
use cannot observe non-pure behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Pos = tuple[int, int]
LampSet = frozenset[Pos]

ORIGIN: Pos = (0, 0)

# Inputs (parsed words, JSON, CLI arguments) beyond this are rejected.
# Internal arithmetic is exact regardless.
COORD_LIMIT = 2**31


def check_coord(value: int, what: str = "coordinate") -> int:
    """Validate an externally supplied integer against the input range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if abs(value) > COORD_LIMIT:
        raise ValueError(f"{what} {value} is outside the supported range +/-2^31")
    return value


def is_lampstand(pos: Pos) -> bool:
    """True for points of the t-axis or the strictly negative s-axis."""
    p, q = pos
    return p == 0 or (q == 0 and p < 0)


@lru_cache(maxsize=None)
def _odd_binomial_offsets(p: int) -> tuple[int, ...]:
    # C(p, r) is odd exactly when the bits of r are a subset of the bits of p.
    return tuple(r for r in range(p + 1) if r & p == r)


def _split_targets(pos: Pos) -> tuple[Pos, Pos]:
    # Both child positions are strictly closer to the lampstand, so the
    # expansion always terminates.
    p, q = pos
    if q < 0:
        return (p + 1, q), (p, q + 1)
    return (p, q - 1), (p + 1, q - 1)


_effect_memo: dict[Pos, LampSet] = {}


def press_effect(pos: Pos) -> LampSet:
    """Set of lamps toggled by pressing the button at ``pos``.

    On the lampstand the press toggles just the lamp underfoot.  Above the
    t-axis (``p > 0``) the signal pattern is row ``p`` of Pascal's triangle
    mod 2, landing on the t-axis at offsets ``q .. q+p``.  Below the t-axis
    (``p < 0``) the effect is defined by the split forced by the relation
    ``a^s = a a^t``::

        effect(p, q) = effect(p+1, q)  xor  effect(p, q+1)

    expanded in whichever direction moves toward the lampstand (plain form
    for ``q < 0``, the rearranged ``effect(p, q-1) xor effect(p+1, q-1)``
    for ``q > 0``).  Results for ``p < 0`` are memoized.
    """
    p, q = pos
    if p == 0 or (q == 0 and p < 0):
        return frozenset((pos,))
    if p > 0:
        return frozenset((0, q + r) for r in _odd_binomial_offsets(p))
    cached = _effect_memo.get(pos)
    if cached is not None:
        return cached
    stack = [pos]
    while stack:
        node = stack[-1]
        if node in _effect_memo:
            stack.pop()
            continue
        first, second = _split_targets(node)
        ready = True
        for child in (first, second):
            if child[0] < 0 and child[1] != 0 and child not in _effect_memo:
                stack.append(child)
                ready = False
        if not ready:
            continue
        _effect_memo[node] = _resolve(first) ^ _resolve(second)
        stack.pop()
    return _effect_memo[pos]


def _resolve(pos: Pos) -> LampSet:
    p, q = pos
    if p == 0 or (q == 0 and p < 0):
        return frozenset((pos,))
    return _effect_memo[pos]


@dataclass(frozen=True)
class Element:
    """A group element, stored as its action on the empty state.

    ``lamps`` is the configuration left lit and ``pos`` the lamplighter's
    final position after acting on (no lamps, origin).  Regularity of the
    action makes this pair a faithful normal form.
    """

    lamps: LampSet
    pos: Pos


def identity() -> Element:
    return Element(frozenset(), ORIGIN)


def apply_letter(base: str, sign: int, state: Element) -> Element:
    """Act by a single presentation letter.

    ``a`` is an involution, so its sign is ignored; ``s`` and ``t``
    translate by ``sign`` in their direction.
    """
    p, q = state.pos
    if base == "s":
        return Element(state.lamps, (p + sign, q))
    if base == "t":
        return Element(state.lamps, (p, q + sign))
    if base == "a":
        return Element(state.lamps ^ press_effect(state.pos), state.pos)
    raise ValueError(f"unknown presentation letter {base!r}")


def act_letters(letters, state: Element) -> Element:
    """Fold a written presentation-letter sequence, rightmost letter first."""
    for base, sign in reversed(letters):
        state = apply_letter(base, sign, state)
    return state


def shift_presses(lamps: LampSet, shift: Pos) -> LampSet:
    """Combined toggles from re-pressing each lamp position translated by ``shift``.

    This is the change of basis that moves a press pattern to a new
    lamplighter position: pressing at ``x`` equals pressing every lamp of
    ``press_effect(x)`` individually, so translating a pattern means
    re-expanding each of its lamps at the shifted location.
    """
    dp, dq = shift
    if dp == 0 and dq == 0:
        return lamps
    acc: set[Pos] = set()
    for lp, lq in lamps:
        acc ^= press_effect((lp + dp, lq + dq))
    return frozenset(acc)


def multiply(g: Element, h: Element) -> Element:
    """Product ``g * h``, with ``h`` acting first.

    Matches word concatenation under right-to-left reading: evaluating
    ``uv`` equals ``multiply(evaluate(u), evaluate(v))``.
    """
    return Element(
        h.lamps ^ shift_presses(g.lamps, h.pos),
        (g.pos[0] + h.pos[0], g.pos[1] + h.pos[1]),
    )


def inverse(g: Element) -> Element:
    neg = (-g.pos[0], -g.pos[1])
    return Element(shift_presses(g.lamps, neg), neg)


def element_to_json(g: Element) -> dict:
    """JSON form: {"lamps": [[p, q], ...] sorted lexicographically, "pos": [p, q]}."""
    return {"lamps": [[p, q] for p, q in sorted(g.lamps)], "pos": [g.pos[0], g.pos[1]]}


def element_from_json(data: dict) -> Element:
    """Parse and validate the JSON form; lamps must sit on the lampstand."""
    if not isinstance(data, dict) or set(data) != {"lamps", "pos"}:
        raise ValueError("element JSON must have exactly the keys 'lamps' and 'pos'")
    raw_pos = data["pos"]
    if not isinstance(raw_pos, (list, tuple)) or len(raw_pos) != 2:
        raise ValueError("'pos' must be a pair [p, q]")
    pos = (check_coord(raw_pos[0], "pos p"), check_coord(raw_pos[1], "pos q"))
    lamps = set()
    for entry in data["lamps"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError("each lamp must be a pair [p, q]")
        lamp = (check_coord(entry[0], "lamp p"), check_coord(entry[1], "lamp q"))
        if not is_lampstand(lamp):
            raise ValueError(f"lamp {list(lamp)} is off the lampstand")
        if lamp in lamps:
            raise ValueError(f"duplicate lamp {list(lamp)}")
        lamps.add(lamp)
    return Element(frozenset(lamps), pos)
