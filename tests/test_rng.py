import math

import pytest

from gbcsp.rng import SeedSpec


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


def test_randbelow_bounds_and_errors():
    s = SeedSpec(1, 0).stream()
    assert s.randbelow(1) == 0
    for bound in (2, 3, 7, 100, 2**64, 2**70 + 3):
        v = s.randbelow(bound)
        assert 0 <= v < bound
    with pytest.raises(ValueError):
        s.randbelow(0)


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
# of all words (six rejections here); 2**70 + 3 takes two words per attempt.
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
    2**70 + 3: (
        [665348175569852202281, 947420264991035395916, 3162917980924063155,
         432972983015653926140, 88330505280051849618, 892327778631243054432],
        13609264834689780389,
    ),
}


@pytest.mark.parametrize("bound", sorted(PINNED_DRAWS))
def test_pinned_randbelow_draws(bound):
    draws, next_word = PINNED_DRAWS[bound]
    s = SeedSpec(2024, 0).stream(f"randbelow/{bound}")
    assert [s.randbelow(bound) for _ in range(6)] == draws
    assert s.next_u64() == next_word
