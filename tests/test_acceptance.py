"""Acceptance gate: one test per criterion, at the stated tolerances.

Every check is exact (set and integer equality); the only numeric knobs
are the time budgets, asserted where the criterion states one.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import time

from lampgrid import (
    ball_with_depths,
    certify_depth,
    make_gn,
    multiply,
    search_distance,
)
from lampgrid import selftest


def _report(number, result, limit=None):
    status = "PASS" if result.ok else "FAIL"
    budget = f" [budget {limit:.0f}s]" if limit is not None else ""
    print(
        f"criterion {number:02d} {result.name}: {status}"
        f" ({result.seconds:.2f}s{budget}) {result.detail}"
    )
    assert result.ok, f"criterion {number}: {result.detail}"
    if limit is not None:
        assert result.seconds < limit, (
            f"criterion {number} took {result.seconds:.2f}s, budget {limit}s"
        )


def test_c01_relator_suite():
    _report(1, selftest.check_relators(states=1000), limit=1.0)


def test_c02_press_effect_bilinearity():
    _report(2, selftest.check_bilinearity(span=12), limit=1.0)


def test_c03_pascal_agreement():
    _report(3, selftest.check_pascal(max_row=16, q_span=8), limit=1.0)


def test_c04_hexagon_containment():
    _report(4, selftest.check_hexagon(max_n=12))


def test_c05_algebra_vs_words():
    _report(5, selftest.check_homomorphism(pairs=500, max_len=40))


def test_c07_witness_soundness():
    _report(
        7,
        selftest.check_witness(samples=500, max_hex=25, ball_radius=4),
        limit=60.0,
    )


def test_c08_anchor_distance_is_6n():
    start = time.perf_counter()
    tour = selftest.check_tour(max_n=50)
    sandwich = selftest.check_gn_distance(max_n=50)
    elapsed = time.perf_counter() - start
    for result in (tour, sandwich):
        print(
            f"criterion 08 {result.name}: {'PASS' if result.ok else 'FAIL'}"
            f" ({result.seconds:.2f}s) {result.detail}"
        )
        assert result.ok, result.detail
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.2f}s, budget 10s"


def test_c09_dead_end_depth_at_desk_scale():
    _report(9, selftest.check_depth(max_n=4), limit=120.0)
    # spelled-out exhaustive cross-check for n=1, neighbour by neighbour
    anchor, _ = make_gn(1)
    for b in ball_with_depths(1):
        assert search_distance(multiply(anchor, b), 6) <= 6
    certificate = certify_depth(4, 4)
    assert certificate.verdict == "certified"
    assert certificate.neighborhood_size == len(ball_with_depths(4))


def test_c10_sphere_counts():
    _report(10, selftest.check_spheres(radius=5))
