import hypothesis.strategies as st
import pytest
from hypothesis import settings

from lampgrid import Element, Letter, Word, core
from lampgrid.words import METRIC_BASES, lampstand_points

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def cold_press_cache():
    """An empty press cache, emptied again after the test."""
    core.press_effect.cache_clear()
    yield
    core.press_effect.cache_clear()


@st.composite
def elements(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pos = draw(
        st.tuples(st.integers(-n, n), st.integers(-n, n)).filter(
            lambda pq: abs(pq[0] + pq[1]) <= n
        )
    )
    if n == 0:
        lamps = frozenset()
    else:
        lamps = frozenset(
            draw(st.lists(st.sampled_from(lampstand_points(n)), max_size=3 * n + 1))
        )
    return Element(lamps, pos)


@st.composite
def metric_words(draw, max_len=20):
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(METRIC_BASES), st.sampled_from((1, -1))),
            max_size=max_len,
        )
    )
    return Word.from_letters(Letter(b, s) for b, s in letters)
