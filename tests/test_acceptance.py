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


def _suite(name):
    return selftest.run([name])[0]


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
    _report(1, _suite("core-relators"), limit=1.0)


def test_c02_press_effect_bilinearity():
    _report(2, _suite("core-bilinearity"), limit=1.0)


def test_c03_pascal_agreement():
    _report(3, _suite("core-pascal"), limit=1.0)


def test_c04_hexagon_containment():
    _report(4, _suite("core-hexagon"))


def test_c05_algebra_vs_words():
    _report(5, _suite("words-homomorphism"))


def test_c07_witness_soundness():
    _report(7, _suite("metric-witness"), limit=60.0)


def test_c08_anchor_distance_is_6n():
    start = time.perf_counter()
    tour = _suite("metric-tour")
    sandwich = _suite("metric-gn-distance")
    elapsed = time.perf_counter() - start
    for result in (tour, sandwich):
        print(
            f"criterion 08 {result.name}: {'PASS' if result.ok else 'FAIL'}"
            f" ({result.seconds:.2f}s) {result.detail}"
        )
        assert result.ok, result.detail
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.2f}s, budget 10s"


def test_c09_dead_end_depth_at_desk_scale():
    _report(9, _suite("metric-depth"), limit=120.0)
    # spelled-out exhaustive cross-check for n=1, neighbour by neighbour
    anchor, _ = make_gn(1)
    for b in ball_with_depths(1):
        assert search_distance(multiply(anchor, b), 6) <= 6
    certificate = certify_depth(4, 4)
    assert certificate.verdict == "certified"
    assert certificate.neighborhood_size == len(ball_with_depths(4))


def test_c10_sphere_counts():
    _report(10, _suite("metric-spheres"))


def test_c11_press_conjugates_commute():
    _report(11, _suite("core-conjugates"))


def test_c12_word_roundtrip():
    _report(12, _suite("words-roundtrip"))
