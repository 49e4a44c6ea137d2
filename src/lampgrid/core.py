"""State model and exact group operations for the lamplighter grid group.

The group ``<a, s, t | a^2, [a, a^t], [s, t], a^s = a a^t>`` acts on pairs
(lamp configuration, lamplighter position) over a rhombic grid.  Positions
are ``(p, q)`` where ``p`` counts steps in the s-direction and ``q`` steps
in the t-direction.  Lamps live on the *lampstand*: the whole t-axis
together with the strictly negative s-axis.

The lamplighter moves by unit translations in either direction, and a
press of the button at its position toggles the single lamp underfoot on
the lampstand.  Off the lampstand a press sets off a bifurcating signal
that resolves into finitely many lampstand toggles; see
:func:`press_effect`.  Words, and how their letters act, are read in
:mod:`lampgrid.words`.

The action is regular, so a group element is determined by its effect on
the empty state.  :class:`Element` stores exactly that: the set of lamps
left lit and the net translation.  All operations here are pure; values
are immutable and safe to share across threads.  The one cache,
``press_effect``'s ``lru_cache``, holds at most 1024 entries and
``PRESS_LAMP_LIMIT`` lamps in all, by a rule on the presses it keeps (see
the comment at ``press_effect``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

Pos = tuple[int, int]
LampSet = frozenset[Pos]

ORIGIN: Pos = (0, 0)

# Inputs (parsed words, JSON, CLI arguments) beyond this are rejected.
# Internal arithmetic is exact regardless.
COORD_LIMIT = 2**31


def check_coord(value: int, what: str) -> int:
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


def _odd_binomials(n: int, count: int):
    """The r in range(count) with C(n, r) odd, in increasing order."""
    # Lucas' theorem, read 2-adically so that it also holds for n < 0: C(n, r)
    # is odd exactly when r & ~n == 0.  Each step jumps straight to the next
    # such r, so the cost is proportional to the output; for n >= 0 the step
    # after r = n wraps to 0.
    r = 0
    while r < count:
        yield r
        r = ((r | ~n) + 1) & n
        if not r:
            return


def _count_odd_binomials(n: int, count: int) -> int:
    """How many r :func:`_odd_binomials` yields, in O(bit length of ``count``)."""
    # An r below count agrees with it above some bit i where count has a 1
    # and r a 0; below i, r is any submask of n.  The bits of count above i
    # must be in n too, so the scan stops at the first one that is not.
    total = 0
    for i in reversed(range(max(count, 0).bit_length())):
        if count >> i & 1:
            total += 1 << (n & ((1 << i) - 1)).bit_count()
            if not n >> i & 1:
                break
    return total


def press_size(pos: Pos) -> int:
    """Number of lamps :func:`press_effect` toggles at ``pos``, without building them."""
    p, q = pos
    if p >= 0:
        return 1 << p.bit_count()
    t_axis = _count_odd_binomials(p, -q if q < 0 else q + p + 1)
    return _count_odd_binomials(q, -p) + t_axis


# A press that toggles more lamps than this is refused.  Inside the input
# range one press can toggle some 2^31 lamps, for example at (2^31 - 1, 0),
# and no set of that size fits in memory; 2^20 lamps take about 150 MB.
PRESS_LAMP_LIMIT = 2**20


def check_press(pos: Pos) -> int:
    """:func:`press_size` of ``pos``, or ``ValueError`` past ``PRESS_LAMP_LIMIT``."""
    size = press_size(pos)
    if size > PRESS_LAMP_LIMIT:
        raise ValueError(
            f"a press at {pos} toggles {size} lamps, over the limit of {PRESS_LAMP_LIMIT}"
        )
    return size


def press_effect(pos: Pos) -> LampSet:
    """Set of lamps toggled by pressing the button at ``pos``.

    A press at (p, q) is the Laurent polynomial x^q (1+x)^p over GF(2), and
    the lampstand lamps (0, j) and (-i, 0) are the basis x^j, (1+x)^-i, so
    the effect is the expansion of x^q (1+x)^p in that basis:

    * ``p >= 0``: row ``p`` of Pascal's triangle mod 2 on the t-axis at
      offsets ``q .. q+p``;
    * ``p < 0``: the principal part at x = 1 on the s-axis, from
      x^q = (1+y)^q with y = 1+x, plus on the t-axis the expansion at x = 0
      (``q < 0``) or the polynomial part at infinity (``q >= 0``).

    On the lampstand this is the single lamp underfoot.  The effects satisfy
    the split relation ``a^s = a a^t``::

        effect(p+1, q) = effect(p, q)  xor  effect(p, q+1)

    Raises ``ValueError`` when the effect has more than ``PRESS_LAMP_LIMIT``
    lamps (:func:`check_press`), before building any of them.
    """
    p, q = pos
    span = abs(p) + abs(q)
    if span < PRESS_LAMP_LIMIT // _CACHED_PRESSES:
        return _cached_press(pos)
    # An effect has at most |p| + |q| + 1 lamps, so most presses skip the count.
    if span >= PRESS_LAMP_LIMIT:
        check_press(pos)
    return _build_press(pos)


def _build_press(pos: Pos) -> LampSet:
    """The closed form of :func:`press_effect`, built on each call."""
    p, q = pos
    if p >= 0:
        return frozenset((0, q + r) for r in _odd_binomials(p, p + 1))
    lamps = [(p + i, 0) for i in _odd_binomials(q, -p)]
    if q < 0:
        lamps += [(0, q + r) for r in _odd_binomials(p, -q)]
    else:
        lamps += [(0, q + p - r) for r in _odd_binomials(p, q + p + 1)]
    return frozenset(lamps)


# The only cache in the package.  It keeps a press only when |p| + |q| is
# below PRESS_LAMP_LIMIT / 1024, so each of its 1024 entries has at most
# PRESS_LAMP_LIMIT / 1024 lamps, and it holds at most PRESS_LAMP_LIMIT
# lamps in all; larger presses are built on every call.  Each job's press
# calls, replayed through an LRU of each size under that rule, miss this
# often:
#
#     job                      calls   4096 entries   1024 entries
#     certify_depth(6, 6)     15,254            113            113
#     certify_depth(4, 9)     70,830            200            200
#     certify_depth(5, 10)   513,041            251            251
#     distance benchmark         474             21             21
#     hexagon benchmark       25,374          4,775          6,486
#
# Each search makes each of its presses once and keeps them itself
# (metric._Search).  The hexagon benchmark's extra misses are presses that
# later texts of its batch happen to share.
_CACHED_PRESSES = 1024
_cached_press = lru_cache(maxsize=_CACHED_PRESSES)(_build_press)
# press_effect reports and clears its cache as an lru_cache function does.
press_effect.cache_info = _cached_press.cache_info
press_effect.cache_clear = _cached_press.cache_clear


class Element(NamedTuple):
    """A group element, stored as its action on the empty state.

    ``lamps`` is the configuration left lit and ``pos`` the lamplighter's
    final position after acting on (no lamps, origin).  Regularity of the
    action makes this pair a faithful normal form.  It is a named tuple, so
    hashing and equality, which every search does for each state it meets,
    run in C, and it is immutable and hashable like the lamp set and the
    position it holds.
    """

    lamps: LampSet
    pos: Pos


def identity() -> Element:
    return Element(frozenset(), ORIGIN)


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
    if not isinstance(data["lamps"], (list, tuple)):
        raise ValueError("'lamps' must be a list of pairs [p, q]")
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
