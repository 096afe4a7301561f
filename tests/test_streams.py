import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbc import streams
from sbc.streams import _MAX_REPLICATION, RandomStream, Streams, _tag_code


def test_same_seed_same_stream_bit_identical():
    a = RandomStream(123, 5, "chain").standard_normal(100)
    b = RandomStream(123, 5, "chain").standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_different_tags_decorrelate():
    # 10,000 draws put the bound at about 10 standard errors of the sample correlation.
    a = RandomStream(123, 5, "prior").standard_normal(10_000)
    b = RandomStream(123, 5, "data").standard_normal(10_000)
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


def reference_generator(seed, i, tag):
    """Replication i's stream as numpy documents Philox's parallel use: the (seed, tag)
    key's generator at the start of counter block i."""
    key = np.random.SeedSequence(seed, spawn_key=(_tag_code(tag),)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**130 - 1),
       st.lists(st.integers(0, _MAX_REPLICATION), min_size=1, max_size=4),
       st.text(max_size=12))
@example(2**64, [0, _MAX_REPLICATION], "chain")
@example(2**128 + 5, [_MAX_REPLICATION, 1], "chain-rerun")
def test_streams_equal_the_reference_generator(seed, replications, tag):
    seen = []
    for stream in Streams(seed)(replications, tag):
        seen.append(stream.replication)
        assert stream.standard_normal(5).tolist() == reference_generator(
            seed, stream.replication, tag).standard_normal(5).tolist()
    assert seen == replications
    for i in replications:
        assert RandomStream(seed, i, tag).uniform(size=3).tolist() == reference_generator(
            seed, i, tag).uniform(size=3).tolist()


def test_runner_tags_have_distinct_codes():
    tags = ("prior", "data", "chain", "chain-rerun", "vi")
    assert len({_tag_code(tag) for tag in tags}) == len(tags)


def test_stream_after_a_mid_buffer_stream_equals_a_fresh_one():
    """Moving the generator resets the counter and both buffers a previous stream left
    part used."""
    streams = Streams(77)([5, 6, 7], "chain")
    first = next(streams)
    first.gen.integers(0, 2**32 - 1, size=3, dtype=np.uint32)  # an odd count of uint32s
    state = first.gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    second = next(streams)
    assert second.standard_normal(50).tolist() == RandomStream(77, 6, "chain").standard_normal(
        50).tolist() == reference_generator(77, 6, "chain").standard_normal(50).tolist()
    second.uniform(size=1)
    third = next(streams)
    assert third.gen.integers(0, 2**32 - 1, size=5, dtype=np.uint32).tolist() == (
        reference_generator(77, 7, "chain").integers(0, 2**32 - 1, size=5,
                                                     dtype=np.uint32).tolist())


def test_superseded_stream_raises():
    streams = Streams(3)([0, 1], "prior")
    first = next(streams)
    first.normal(0.0, 1.0)
    second = next(streams)
    for draw in (first.normal, first.standard_normal, first.uniform):
        with pytest.raises(RuntimeError, match="superseded"):
            draw()
    assert second.standard_normal(4).tolist() == RandomStream(3, 1, "prior").standard_normal(
        4).tolist()


def test_blocks_of_one_tag_share_a_generator():
    """A run's blocks of one tag move one generator: an earlier block's stream is
    superseded once a later block makes its first, and every draw is its stream's own."""
    streams = Streams(31)
    for earlier in streams(range(10, 14), "chain"):
        generator = earlier.gen
    later = streams(range(16, 19), "chain")  # makes no stream yet
    assert earlier.standard_normal(3).tolist() == RandomStream(31, 13, "chain").standard_normal(
        3).tolist()
    for i, stream in zip(range(16, 19), later):
        assert stream.gen is generator
        assert stream.uniform(size=4).tolist() == RandomStream(31, i, "chain").uniform(
            size=4).tolist()
    with pytest.raises(RuntimeError, match="superseded"):
        earlier.standard_normal()
    data = next(streams([10], "data"))
    assert data.gen is not generator
    assert data.normal(size=2).tolist() == RandomStream(31, 10, "data").normal(size=2).tolist()


# First three standard normals of each stream, frozen from the implementation
# that gives replication i counter block i of one Philox key per (seed, tag);
# they were re-frozen when that scheme replaced one SeedSequence-derived key
# per (seed, replication, tag).
GOLDEN_DRAWS = {
    (0, 0, "prior"): [0.4601410478844792, 1.6464536153989047, 0.10285456705817955],
    (123, 5, "chain"): [1.256178399397552, 0.8105680177977675, -0.7608224857099936],
    (2**40 + 7, 2**32 - 1, "chain-rerun"):
        [-0.33186915489364327, -0.1579905244213148, -0.49019807986323416],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DRAWS, key=str))
def test_golden_draws(key):
    assert RandomStream(*key).standard_normal(3).tolist() == GOLDEN_DRAWS[key]
    seed, i, tag = key
    assert next(Streams(seed)([i], tag)).standard_normal(3).tolist() == GOLDEN_DRAWS[key]


def test_out_of_range_arguments_rejected():
    with pytest.raises(ValueError):
        RandomStream(0, 2**32)
    with pytest.raises(ValueError):  # at the call, before any stream is made
        Streams(0)([1, 2**32], "chain")
    with pytest.raises(ValueError):
        RandomStream(0, -1)
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        Streams(-1)([0], "chain")


def test_each_replication_is_checked_once(monkeypatch):
    """A Streams call checks its replications once, not again in each stream it makes; a
    standalone stream checks its own."""
    checked = []
    check = streams._replication
    monkeypatch.setattr(streams, "_replication", lambda i: checked.append(i) or check(i))
    made = list(Streams(7)(range(5), "chain"))
    assert checked == list(range(5)) and [s.replication for s in made] == list(range(5))
    RandomStream(7, 3, "chain")
    assert checked == [*range(5), 3]
