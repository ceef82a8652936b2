import numpy as np
import pytest

from mimodet.rng import RngStream


def test_same_seed_same_sequence():
    a = RngStream(1234).uniform(size=100_000)
    b = RngStream(1234).uniform(size=100_000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1).uniform(size=64)
    b = RngStream(2).uniform(size=64)
    assert not np.array_equal(a, b)


def test_substream_is_order_independent():
    # Deriving a substream never depends on what was drawn before.
    parent = RngStream(7)
    parent.uniform(size=10)
    late = parent.substream(3).standard_normal(16)
    early = RngStream(7).substream(3).standard_normal(16)
    assert np.array_equal(late, early)


def test_substreams_differ_from_parent_and_each_other():
    base = RngStream(7)
    s0 = base.substream(0).uniform(size=32)
    s1 = base.substream(1).uniform(size=32)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, RngStream(7).uniform(size=32))


def test_string_keys_are_stable():
    a = RngStream(5).substream("trial", 3).integers(0, 100, 20)
    b = RngStream(5).substream("trial", 3).integers(0, 100, 20)
    assert np.array_equal(a, b)
    c = RngStream(5).substream("det", 3).integers(0, 100, 20)
    assert not np.array_equal(a, c)


def test_nested_substreams():
    a = RngStream(9).substream(1).substream(2).uniform(size=8)
    b = RngStream(9).substream(1, 2).uniform(size=8)
    assert np.array_equal(a, b)


def test_bad_key_type_rejected():
    with pytest.raises(TypeError):
        RngStream(1).substream(1.5)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-1.0, 1.0)])
def test_uniform_matches_numpy_draw_for_draw(low, high):
    stream = RngStream(21).substream("u")
    ref = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=21, spawn_key=stream.key)))
    for size in (None, 7, (3, 5)):
        assert np.array_equal(stream.uniform(low, high, size), ref.uniform(low, high, size))
    # the stream is left in the same state: later draws agree too
    assert np.array_equal(stream.standard_normal(9), ref.standard_normal(9))
    assert np.array_equal(stream.uniform(size=4), ref.uniform(size=4))


def test_late_first_draw_gives_the_same_sequence():
    late = RngStream(13).substream("det", 2)
    late.substream("other")  # deriving a substream draws nothing
    first = late.integers(0, 100, 20)
    assert np.array_equal(first, RngStream(13).substream("det", 2).integers(0, 100, 20))
