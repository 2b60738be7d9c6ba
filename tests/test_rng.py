"""The keyed Philox stream contract: key layout, ranges, independence, pickling."""

import math
import pickle

import numpy as np
import pytest

from bridgelab import rng as _rng

MASK64 = (1 << 64) - 1
TAG_MAX = (1 << 16) - 1
STEP_MAX = (1 << 24) - 1
CHUNK_MAX = (1 << 24) - 1


def _reference(seed: int, tag: int, step: int, chunk: int) -> np.random.Generator:
    key = [seed & MASK64, tag << 48 | step << 24 | chunk]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@pytest.mark.parametrize(
    "seed, tag, step, chunk",
    [
        (0, 0, 0, 0),
        (7, _rng.TAG_FORWARD, 3, 2),
        (-1, _rng.TAG_TRAIN, 1999, 0),
        (-(1 << 70) + 5, 2, 40, 11),  # the retired tag value 2
        (1 << 64, _rng.TAG_START, 0, 1),
        ((1 << 80) + 123, _rng.TAG_PROBE, 7, 7),
        (12345, TAG_MAX, STEP_MAX, CHUNK_MAX),
    ],
)
def test_stream_equals_philox_keyed_by_the_layout(seed, tag, step, chunk):
    got, want = _rng.stream(seed, tag, step, chunk), _reference(seed, tag, step, chunk)
    assert got.bit_generator.state["state"]["key"].tolist() == [
        seed & MASK64, tag << 48 | step << 24 | chunk
    ]
    np.testing.assert_array_equal(got.standard_normal(1000), want.standard_normal(1000))
    np.testing.assert_array_equal(got.integers(0, 1 << 62, 100), want.integers(0, 1 << 62, 100))
    np.testing.assert_array_equal(got.random(37), want.random(37))


def test_live_streams_do_not_affect_each_other():
    a, b = _rng.stream(3, 1, 2, 3), _rng.stream(3, 1, 2, 3)
    assert a.bit_generator is not b.bit_generator
    other = _rng.stream(3, 1, 2, 4)
    interleaved = [a.standard_normal(5), other.standard_normal(7), b.standard_normal(5),
                   a.standard_normal(5), other.standard_normal(7), b.standard_normal(5)]
    np.testing.assert_array_equal(interleaved[0], interleaved[2])
    np.testing.assert_array_equal(interleaved[3], interleaved[5])
    alone = _rng.stream(3, 1, 2, 3).standard_normal(10)
    np.testing.assert_array_equal(np.concatenate([interleaved[0], interleaved[3]]), alone)
    np.testing.assert_array_equal(
        np.concatenate([interleaved[1], interleaved[4]]), _rng.stream(3, 1, 2, 4).standard_normal(14)
    )


def test_stream_survives_a_pickle_round_trip():
    gen = _rng.stream(11, _rng.TAG_SAMPLER, 5, 6)
    gen.standard_normal(3)  # leave it mid-buffer
    copy = pickle.loads(pickle.dumps(gen))
    np.testing.assert_array_equal(copy.standard_normal(500), gen.standard_normal(500))


def test_building_a_stream_uses_its_key_as_the_seed_state():
    """The seed sequence is the key itself, not an entropy-drawn SeedSequence."""
    seed_seq = _rng.stream(1, 2, 3, 4).bit_generator.seed_seq
    assert not isinstance(seed_seq, np.random.SeedSequence)
    assert seed_seq.generate_state(2, np.uint64).tolist() == [1, 2 << 48 | 3 << 24 | 4]
    for n_words, dtype in ((4, np.uint32), (1, np.uint64), (2, np.uint32)):
        with pytest.raises(ValueError, match="Philox key"):
            seed_seq.generate_state(n_words, dtype)


@pytest.mark.parametrize(
    "tag, step, chunk, name",
    [
        (TAG_MAX + 1, 0, 0, "tag"),
        (0, -1, 0, "step"),
        (0, STEP_MAX + 1, 0, "step"),
        (0, 0, -1, "chunk"),
        (0, 0, CHUNK_MAX + 1, "chunk"),
    ],
)
def test_indices_outside_their_range_raise(tag, step, chunk, name):
    with pytest.raises(ValueError, match=name):
        _rng.stream(0, tag, step, chunk)


def test_out_of_range_tag_does_not_alias_an_in_range_one():
    # tag << 48 is cut to 64 bits in the key, so unchecked, 1 + 2**16 would
    # key the stream of tag 1, and -1 that of tag 2**16 - 1
    for tag in (1 + (1 << 16), -1):
        with pytest.raises(ValueError, match="tag"):
            _rng.stream(0, tag, 2, 3)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 2.5), ("seed", True), ("seed", 2.0), ("tag", 1.0), ("step", 1.7),
     ("step", np.float64(1.0)), ("chunk", False), ("chunk", np.bool_(True))],
)
def test_non_integer_key_parts_raise(field, value):
    # int() would cut each of these to the key of another stream
    parts = {"seed": 2, "tag": 1, "step": 1, "chunk": 0, field: value}
    with pytest.raises(ValueError, match=f"stream {field} must be an integer"):
        _rng.stream(**parts)


def test_numpy_integers_key_the_same_stream_as_python_ints():
    got = _rng.stream(np.int64(-3), np.uint16(2), np.int32(5), np.uint64(7))
    want = _rng.stream(-3, 2, 5, 7)
    np.testing.assert_array_equal(got.standard_normal(50), want.standard_normal(50))


@pytest.mark.parametrize("value", [0, -3, 2.5, math.inf, math.nan, np.int64(4), np.float32(0.5)])
def test_is_real_accepts_python_and_numpy_numbers(value):
    assert _rng.is_real(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1.0", None, 1j, [1.0]])
def test_is_real_rejects_bools_and_non_numbers(value):
    assert not _rng.is_real(value)


@pytest.mark.parametrize("value", [0, -3, 2.5, pytest.param(10**300, id="big-int"), np.int64(4), np.float32(0.5), 1.7e308])
def test_is_finite_real_accepts_finite_numbers(value):
    assert _rng.is_finite_real(value)


@pytest.mark.parametrize(
    "value",
    [math.inf, -math.inf, math.nan, np.float64(math.nan), pytest.param(10**400, id="huge-int"),
     pytest.param(-(10**400), id="-huge-int"), True, "1.0", None, 1j],
)
def test_is_finite_real_rejects_non_finite_values_and_non_numbers(value):
    # 10**400 is an int too large for a float; it must not raise OverflowError
    assert not _rng.is_finite_real(value)
