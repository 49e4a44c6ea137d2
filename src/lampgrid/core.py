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

A press takes one of three routes by its span |p| + |q|, and the word
evaluator ``words.act_runs`` picks a press's route once:

* below ``FRAME_MIN_SPAN`` (24), the cache ``cached_press`` itself;
* below ``FRAME`` (1024), the frame: :func:`frame_press` gives the press
  as two ints, one bit per lamp, so that presses XOR as ints, and
  :func:`frame_lamps` reads the lamps back once at the end;
* from ``FRAME`` on, :func:`press_effect`, which builds it on each call.

:func:`press_effect` itself serves every span below ``FRAME`` from the
cache.  The witness solve ``metric.witness_word`` presses through none of
them: it solves each sweep of its tour as GF(2) arithmetic on two ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
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
        return cached_press(pos)
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
#     certify_depth(6, 6)     12,759            113            113
#     certify_depth(4, 9)     66,043            200            200
#     certify_depth(5, 10)   440,094            251            251
#     distance benchmark         309             21             21
#     hexagon benchmark        3,243            250            250
#
# Each search makes each of its presses once and keeps them itself
# (metric._Search), and the witness solve (metric.witness_word) presses
# nothing: it solves in GF(2) arithmetic on ints.  words.act_runs calls
# cached_press directly for spans below FRAME_MIN_SPAN, the first of the
# three routes of the module docstring, so the rule holds by its span
# test.  The presses of the band (below) that words.act_runs makes are
# frame ints and never reach the cache.  As sets they would take the
# hexagon benchmark 18,277 calls and 6,466 misses (4,775 at 4096 entries),
# most of them presses of its 96 witness words that no other text shares,
# which no cache size would serve.
_CACHED_PRESSES = 1024
cached_press = lru_cache(maxsize=_CACHED_PRESSES)(_build_press)
# press_effect reports and clears its cache as an lru_cache function does.
press_effect.cache_info = cached_press.cache_info
press_effect.cache_clear = cached_press.cache_clear


# The frame: inside the band FRAME_MIN_SPAN <= |p| + |q| < FRAME a press is
# also two ints, one per axis, in a frame fixed for every press of the band:
# lamp (0, j) is bit j + FRAME of the t-axis int, and lamp (i, 0) bit
# i + FRAME of the s-axis int.  Every lamp of such a press lies within
# +/-(FRAME - 1) of the origin, so no int is wider than 2 * FRAME bits, and
# XORing presses is XORing ints, with no frozenset built per press.
#
# The upper edge is the cache's bound.  Past it a press keeps its set, whose
# cost is its lamps, where bits would cost its span: the 8 lamps of the
# press at (2^19 + 5, 0) took 11 ms to build and read as bits, 2 us as a
# set.  The lower edge is where the cache stops serving a job's presses
# (timings on Python 3.11, one core of a shared 2-core host).  A cached press
# with its set XOR is cheaper than one built as ints and read back into
# lamps: a one-letter act_runs, as certify_depth replays, took 1.5 to 1.8 us
# by sets and 3.4 to 4.1 us by the frame at every span from 4 to 32.  A
# press missed is dearer: on batches of 60 random 40-letter words pressing
# near span s, the cache cleared per batch, act_runs took 36, 40, 56, 67 and
# 78 us a word by sets and 35, 36, 39, 42 and 45 us by the frame at s = 4,
# 8, 16, 24 and 32.  Below span 24 the presses are near the origin, where
# the 1,105 positions with |p| + |q| < 24 about fill the cache's 1024
# entries, so a job pressing there again and again, as certify_depth and
# the distance benchmark do, finds them cached.
FRAME = PRESS_LAMP_LIMIT // _CACHED_PRESSES
FRAME_MIN_SPAN = 24


def _submasks(n: int, count: int) -> int:
    """The int with bit r set for each r that :func:`_odd_binomials` yields.

    Read 2-adically, those r are the submasks of n below ``count`` (>= 1).
    The submasks of n within the bits of ``count - 1`` are the product of
    1 + x^(2^b) over the bits 2^b of n there, one shift-OR each; ``count``
    then cuts them off.
    """
    bits = n & ((1 << (count - 1).bit_length()) - 1)
    poly = 1
    while bits:
        low = bits & -bits
        poly |= poly << low
        bits ^= low
    return poly & ((1 << count) - 1)


def frame_press(pos: Pos) -> tuple[int, int]:
    """:func:`press_effect` of a press with |p| + |q| < FRAME, as frame ints.

    Returns the (s-axis, t-axis) ints of :func:`_build_press`'s closed form,
    read as bits of the frame.  For p < 0 <= q the t-axis lamps are q + p - r
    for the r <= q + p with r & ~p == 0.  With 2^K the least power of two
    above q + p, those r are the submasks of M = p mod 2^K, and r -> M - r
    maps the submasks of M onto themselves, so the lamps are the submasks
    of M shifted by q + p - M; the shifted ones below lamp 0, from
    r > q + p, fall under bit FRAME and are cut off.
    """
    p, q = pos
    if p >= 0:
        return 0, _submasks(p, p + 1) << (q + FRAME)
    s_axis = _submasks(q, -p) << (p + FRAME)
    if q < 0:
        return s_axis, _submasks(p, -q) << (q + FRAME)
    top = q + p
    if top < 0:
        return s_axis, 0
    degree = p & ((1 << top.bit_length()) - 1)
    return s_axis, _submasks(degree, degree + 1) << (top - degree + FRAME) >> FRAME << FRAME


# bin() digits as the bytes 0 and 1, for itertools.compress.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit_offsets(bits: int, origin: int = 0) -> list[int]:
    """The offsets i - ``origin`` of the set bits i of ``bits``, in increasing order.

    Only the digits from the lowest set bit to the highest are scanned,
    and the scan runs in C: one ``bin`` and one ``compress``.
    """
    if not bits:
        return []
    low = (bits & -bits).bit_length() - 1
    digits = bin(bits >> low)[:1:-1].encode().translate(_DIGITS)
    return list(compress(range(low - origin, bits.bit_length() - origin), digits))


def frame_lamps(s_axis: int, t_axis: int) -> list[Pos]:
    """The lamps of the frame ints ``s_axis`` and ``t_axis``: lamp (i, 0) for
    each bit i + FRAME of ``s_axis``, lamp (0, j) for each bit j + FRAME of
    ``t_axis``."""
    lamps = [(i, 0) for i in bit_offsets(s_axis, FRAME)]
    lamps += [(0, j) for j in bit_offsets(t_axis, FRAME)]
    return lamps


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
