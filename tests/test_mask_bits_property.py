"""Property test of geometry.mask_bits against a naive scan of the bits,
on 0, on single bits and on sparse masks, some above 2^4000."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgworkbench.geometry import mask_bits  # noqa: E402


def naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def from_bits(bits):
    return sum(1 << i for i in set(bits))


MASKS = st.one_of(
    st.just(0),
    st.integers(0, 5000).map(lambda i: 1 << i),
    st.integers(0, 2**70),
    st.lists(st.integers(0, 5000), max_size=40).map(from_bits),
    st.tuples(st.integers(4001, 5000), st.lists(st.integers(0, 5000), max_size=40))
      .map(lambda c: from_bits([c[0], *c[1]])),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(MASKS)
def test_mask_bits_matches_a_naive_scan(mask):
    assert mask_bits(mask) == naive_bits(mask)
