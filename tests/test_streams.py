import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_stream_id_is_descriptive():
    s = RandomStream(7, 3, "vi")
    assert s.stream_id == "7/3/vi"


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
    block = RandomStream.block(2**40 + 7, replications, "chain")
    assert [s.stream_id for s in block] == [f"{2**40 + 7}/{i}/chain" for i in replications]
    for i, stream in zip(replications, block):
        np.testing.assert_array_equal(stream.standard_normal(20),
                                      RandomStream(2**40 + 7, i, "chain").standard_normal(20))


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
    assert RandomStream.block(seed, [i], tag)[0].standard_normal(3).tolist() == GOLDEN_DRAWS[key]


def test_out_of_range_arguments_rejected():
    with pytest.raises(ValueError):
        RandomStream(0, 2**32)
    with pytest.raises(ValueError):
        RandomStream.block(0, [1, 2**32], "chain")
    with pytest.raises(ValueError):
        RandomStream(0, -1)
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
