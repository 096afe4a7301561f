import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbc.runner import _Row, _Streams
from sbc.streams import RandomStream, _tag_code, philox_keys


def test_same_seed_same_stream_bit_identical():
    a = RandomStream(123, 5, "chain").standard_normal(100)
    b = RandomStream(123, 5, "chain").standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_different_tags_decorrelate():
    a = RandomStream(123, 5, "prior").standard_normal(1000)
    b = RandomStream(123, 5, "data").standard_normal(1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_different_replications_decorrelate():
    a = RandomStream(123, 0, "chain").standard_normal(1000)
    b = RandomStream(123, 1, "chain").standard_normal(1000)
    assert not np.array_equal(a, b)


def test_different_master_seeds_differ():
    a = RandomStream(1, 0, "chain").standard_normal(8)
    b = RandomStream(2, 0, "chain").standard_normal(8)
    assert not np.array_equal(a, b)


def test_derivation_is_order_independent():
    # Streams are derived purely from (seed, replication, tag): drawing from
    # one must not affect another, whatever the creation order.
    first = RandomStream(99, 2, "chain")
    _ = first.standard_normal(50)
    later = RandomStream(99, 3, "chain").standard_normal(10)
    fresh = RandomStream(99, 3, "chain").standard_normal(10)
    np.testing.assert_array_equal(later, fresh)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**130 - 1),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       st.text(max_size=12))
def test_block_keys_equal_seed_sequence(seed, replications, tag):
    keys = philox_keys(seed, replications, tag)
    assert keys.shape == (len(replications), 2) and keys.dtype == np.uint64
    for i, key in zip(replications, keys):
        expected = np.random.SeedSequence(
            entropy=seed, spawn_key=(i, _tag_code(tag))).generate_state(2, np.uint64)
        np.testing.assert_array_equal(key, expected)


def test_block_streams_equal_single_streams():
    replications = [0, 3, 4, 1000, 2**32 - 1]
    seen = []
    for stream in RandomStream.block(2**40 + 7, replications, "chain"):
        seen.append(stream.replication)
        np.testing.assert_array_equal(
            stream.standard_normal(20),
            RandomStream(2**40 + 7, stream.replication, "chain").standard_normal(20))
    assert seen == replications


def fresh_generator(seed, i, tag):
    """A newly built Generator(Philox) on the stream's key, as numpy would seed it."""
    return np.random.Generator(np.random.Philox(key=philox_keys(seed, [i], tag)[0]))


def test_block_stream_after_a_mid_buffer_stream_equals_a_fresh_one():
    """Re-keying resets the counter and both buffers a previous stream left part used."""
    streams = RandomStream.block(77, [5, 6, 7], "chain")
    first = next(streams)
    first.gen.integers(0, 2**32 - 1, size=3, dtype=np.uint32)  # an odd count of uint32s
    state = first.gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    second = next(streams)
    assert second.standard_normal(50).tolist() == RandomStream(77, 6, "chain").standard_normal(
        50).tolist() == fresh_generator(77, 6, "chain").standard_normal(50).tolist()
    second.uniform(size=1)
    third = next(streams)
    assert third.gen.integers(0, 2**32 - 1, size=5, dtype=np.uint32).tolist() == (
        fresh_generator(77, 7, "chain").integers(0, 2**32 - 1, size=5, dtype=np.uint32).tolist())


def test_superseded_block_stream_raises():
    streams = RandomStream.block(3, [0, 1], "prior")
    first = next(streams)
    first.normal(0.0, 1.0)
    second = next(streams)
    for draw in (first.normal, first.standard_normal, first.uniform):
        with pytest.raises(RuntimeError, match="superseded"):
            draw()
    assert second.standard_normal(4).tolist() == RandomStream(3, 1, "prior").standard_normal(
        4).tolist()


def test_blocks_of_one_tag_share_a_generator():
    """A run's blocks of one tag re-key one generator: an earlier block's stream is
    superseded once a later block makes its first, and every draw is its stream's own."""
    streams = _Streams(31, range(10, 20))
    rows = [_Row(i, 1, 5) for i in range(10, 20)]
    for earlier in streams(rows[:4], "chain"):
        generator = earlier.gen
    later = streams(rows[6:9], "chain")  # makes no stream yet
    assert earlier.standard_normal(3).tolist() == RandomStream(31, 13, "chain").standard_normal(
        3).tolist()
    for row, stream in zip(rows[6:9], later):
        assert stream.gen is generator
        assert stream.uniform(size=4).tolist() == RandomStream(31, row.i, "chain").uniform(
            size=4).tolist()
    with pytest.raises(RuntimeError, match="superseded"):
        earlier.standard_normal()
    data = next(streams(rows[:1], "data"))
    assert data.gen is not generator
    assert data.normal(size=2).tolist() == RandomStream(31, 10, "data").normal(size=2).tolist()


# First three standard normals of each stream, frozen from the implementation
# that seeded Philox with numpy's SeedSequence.
GOLDEN_DRAWS = {
    (0, 0, "prior"): [-3.4681666686087698, 0.6653252119426059, -0.1751082446458926],
    (123, 5, "chain"): [0.5191407420881265, 0.723696908132834, -0.39663715314925924],
    (2**40 + 7, 2**32 - 1, "chain-rerun"):
        [2.7088791173881845, -2.2891789186936182, 0.688771902608233],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DRAWS, key=str))
def test_golden_draws(key):
    assert RandomStream(*key).standard_normal(3).tolist() == GOLDEN_DRAWS[key]
    seed, i, tag = key
    assert next(RandomStream.block(seed, [i], tag)).standard_normal(3).tolist() == GOLDEN_DRAWS[key]


def test_out_of_range_arguments_rejected():
    with pytest.raises(ValueError):
        RandomStream(0, 2**32)
    with pytest.raises(ValueError):  # at the call, before any stream is made
        RandomStream.block(0, [1, 2**32], "chain")
    with pytest.raises(ValueError):
        RandomStream(0, -1)
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
