import numpy as np
import pytest

from ttfusion import prng
from ttfusion.prng import SplitMix64

# Reference splitmix64 outputs for seed 0.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed0_reference_outputs():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(5)] == SEED0_OUTPUTS


def test_same_seed_gives_identical_streams():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ_in_first_output():
    assert SplitMix64(0).next_u64() != SplitMix64(1).next_u64()


def test_float_is_top_53_bits_over_2_53():
    ints = SplitMix64(42)
    floats = SplitMix64(42)
    for _ in range(50):
        expected = (ints.next_u64() >> 11) / 2**53
        assert floats.next_float() == expected


def test_floats_lie_in_unit_interval():
    stream = SplitMix64(7)
    values = stream.float_block(10000)
    assert values.min() >= 0.0
    assert values.max() < 1.0


def test_block_matches_scalar_path():
    scalar = SplitMix64(987654321)
    block = SplitMix64(987654321)
    expected = np.array([scalar.next_u64() for _ in range(4096)], dtype=np.uint64)
    assert np.array_equal(block.u64_block(4096), expected)
    # After a block the scalar path continues from the same state.
    assert block.next_u64() == scalar.next_u64()


def test_float_block_matches_scalar_floats():
    scalar = SplitMix64(5)
    block = SplitMix64(5)
    expected = np.array([scalar.next_float() for _ in range(1000)])
    assert np.array_equal(block.float_block(1000), expected)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_ramp_is_shared_read_only_and_left_unchanged():
    before = prng._RAMP.copy()
    assert not prng._RAMP.flags.writeable
    SplitMix64(1).u64_block(prng.RAMP_LENGTH + 5)
    SplitMix64(2).float_block(3)
    assert np.array_equal(prng._RAMP, before)


@pytest.mark.parametrize(
    "counts",
    [
        [0, 1, 2],
        [prng.RAMP_LENGTH - 1, 1, prng.RAMP_LENGTH],
        [prng.RAMP_LENGTH + 1, 3],
        [2 * prng.RAMP_LENGTH + 3, prng.RAMP_LENGTH - 2],
    ],
)
def test_blocks_across_ramp_tails_match_the_scalar_path(counts):
    # Blocks of these sizes, one scalar draw after each, from a state near
    # the top of the 64-bit range so the additions wrap.
    scalar = SplitMix64(2**64 - 3)
    block = SplitMix64(2**64 - 3)
    for count in counts:
        expected = np.array([scalar.next_u64() for _ in range(count)], dtype=np.uint64)
        assert np.array_equal(block.u64_block(count), expected)
        assert block.next_u64() == scalar.next_u64()


def test_float_blocks_across_ramp_tails_match_scalar_floats():
    scalar = SplitMix64(77)
    block = SplitMix64(77)
    for count in (prng.RAMP_LENGTH - 1, 2, prng.RAMP_LENGTH + 1):
        expected = np.array([scalar.next_float() for _ in range(count)])
        assert np.array_equal(block.float_block(count), expected)


def test_out_receives_the_block():
    out = np.full(100, -1.0)
    got = SplitMix64(4).float_block(100, out=out)
    assert got is out
    assert np.array_equal(out, SplitMix64(4).float_block(100))
    raw = np.zeros(100, dtype=np.uint64)
    assert SplitMix64(4).u64_block(100, out=raw) is raw
    assert np.array_equal(raw, SplitMix64(4).u64_block(100))


@pytest.mark.parametrize(
    "out", [np.empty(99), np.empty(100, dtype=np.float32), np.empty((10, 10))]
)
def test_out_of_wrong_shape_or_dtype_rejected(out):
    with pytest.raises(ValueError, match="out must be"):
        SplitMix64(4).float_block(100, out=out)
