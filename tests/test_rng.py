import math

import pytest

from gbcsp.rng import _GAMMA, SeedSpec, Stream


def test_same_seed_same_sequence():
    a = SeedSpec(123, 4).stream("x")
    b = SeedSpec(123, 4).stream("x")
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_streams_differ_across_indices_and_labels():
    base = [SeedSpec(9, 0).stream().next_u64() for _ in range(4)]
    other_index = [SeedSpec(9, 1).stream().next_u64() for _ in range(4)]
    other_label = [SeedSpec(9, 0).stream("uc").next_u64() for _ in range(4)]
    assert base != other_index
    assert base != other_label
    assert other_index != other_label


def test_pinned_first_draw():
    # frozen reference value: SHA-256 seeding followed by one SplitMix64 step
    s = SeedSpec(0, 0).stream()
    first = s.next_u64()
    assert 0 <= first < 1 << 64
    assert first == SeedSpec(0, 0).stream().next_u64()


@pytest.mark.parametrize("state", [0, (-500 * _GAMMA) % 2**64], ids=["zero", "wraps"])
def test_next_block_matches_next_u64(state):
    # the second start passes 2**64 halfway through the block
    block, scalar = Stream(state), Stream(state)
    assert block.next_block(1000).tolist() == [scalar.next_u64() for _ in range(1000)]
    assert block.next_u64() == scalar.next_u64()


def test_randbelow_bounds_and_errors():
    s = SeedSpec(1, 0).stream()
    assert s.randbelow(1) == 0
    for bound in (2, 3, 7, 100, 2**64):
        v = s.randbelow(bound)
        assert 0 <= v < bound
    for bound in (0, -1, 2**64 + 1, 2**70 + 3):
        with pytest.raises(ValueError, match=r"bound must be in \[1, 2\*\*64\]"):
            s.randbelow(bound)


def test_randbelow_uniform():
    s = SeedSpec(42, 0).stream("uniformity")
    draws = 100_000
    bins = [0] * 6
    for _ in range(draws):
        bins[s.randbelow(6)] += 1
    expect = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for count in bins:
        assert abs(count - expect) < 4 * sigma


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(1 << 64, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, -1)


# First six draws of each bound on its own stream, then the next raw word,
# which pins how many words the draws consumed.  2**63 + 1 rejects about half
# of all words (six rejections here).  2**70 + 3 is refused (None) before it
# consumes a word.
PINNED_DRAWS = {
    2: ([0, 0, 1, 1, 0, 0], 9900903544064186990),
    3: ([1, 1, 2, 2, 2, 2], 7960252311050664845),
    6: ([4, 2, 1, 0, 5, 0], 1201059152928562377),
    16000: ([14188, 11564, 5247, 14018, 10238, 9628], 17540004078469781073),
    2**63 + 1: (
        [3723212240919601562, 5902059334982079552, 3674834062317413606,
         4048330699254038350, 3849559180104994539, 724021974259122442],
        17874135961875369333,
    ),
    2**64: (
        [16733813107012762550, 16521876508363789913, 18115194280608116456,
         7143732581370885800, 8783416543109097001, 12601413573728523052],
        7463698349245740223,
    ),
    2**70 + 3: None,
}


@pytest.mark.parametrize("bound", sorted(PINNED_DRAWS))
def test_pinned_randbelow_draws(bound):
    s = SeedSpec(2024, 0).stream(f"randbelow/{bound}")
    if PINNED_DRAWS[bound] is None:
        with pytest.raises(ValueError, match="bound must be"):
            s.randbelow(bound)
        assert s.next_u64() == SeedSpec(2024, 0).stream(f"randbelow/{bound}").next_u64()
        return
    draws, next_word = PINNED_DRAWS[bound]
    assert [s.randbelow(bound) for _ in range(6)] == draws
    assert s.next_u64() == next_word
