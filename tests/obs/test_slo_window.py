"""SLO rolling windows: running sums equal the live buckets' sums."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import _Window

events = st.lists(
    st.tuples(
        st.floats(0.0, 3.0),  # time step to the next observation
        st.booleans(),        # missed
        st.booleans(),        # degraded
        st.floats(0.0, 5.0),  # how far past it counts() looks
    ),
    max_size=80,
)


def bucket_sums(window):
    totals = [0, 0, 0]
    for _, e, m, d in window._buckets:
        totals[0] += e
        totals[1] += m
        totals[2] += d
    return tuple(totals)


@settings(max_examples=200, deadline=None)
@given(
    length=st.sampled_from([1.0, 2.5, 10.0]),
    resolution=st.integers(2, 20),
    stream=events,
)
def test_counts_equal_bucket_sums(length, resolution, stream):
    window = _Window(length, resolution)
    t = 0.0
    for step, missed, degraded, look in stream:
        t += step
        window.observe(t, missed, degraded)
        assert (window._events, window._misses, window._degraded) == (
            bucket_sums(window)
        )
        counted = window.counts(t + look)
        assert counted == bucket_sums(window)
        assert all(isinstance(value, int) for value in counted)
