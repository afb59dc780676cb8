from itertools import islice

import pytest

from helpers import (pair_tuples, reference_perfect_pairing,
                     reference_permutation, splitmix64_outputs)
from pairpath.rng import SplitMix64, random_permutation
from pairpath.routing import PairingError, random_perfect_pairing

SEEDS = (0, 1, 12345, 2**64 - 1)


def test_reference_sequence_seed_zero():
    # first outputs of the published splitmix64 stream for state 0
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_reference_sequence_other_seed():
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(3)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
    ]


def test_seed_wraps_at_64_bits():
    a = SplitMix64(1 << 64)
    b = SplitMix64(0)
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_the_one_at_a_time_mix(seed):
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(200)] \
        == list(islice(splitmix64_outputs(seed), 200))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 44, 2144])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_permutation_matches_the_swap_loop(n, seed):
    assert random_permutation(n, seed) == reference_permutation(n, seed)


@pytest.mark.parametrize("n", [0, 1, 2, 44])
def test_shuffle_draws_n_minus_one_outputs(n):
    # a shuffle of n items draws n-1 outputs, none for 0 or 1 items
    gen = SplitMix64(7)
    gen.shuffle(list(range(n)))
    assert gen.next_u64() \
        == next(islice(splitmix64_outputs(7), max(n - 1, 0), None))


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_shuffle_is_deterministic_permutation():
    first = random_permutation(10, seed=42)
    assert first == random_permutation(10, seed=42)
    assert sorted(first) == list(range(10))
    assert first != list(range(10))  # seed 42 does move something


def test_random_perfect_pairing_shape():
    p = random_perfect_pairing(10, seed=3)
    assert sorted(p.ids.ravel().tolist()) == list(range(10))
    lows = p.ids.min(axis=1).tolist()
    assert lows == sorted(lows)
    assert p == random_perfect_pairing(10, seed=3)


def test_random_perfect_pairing_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        random_perfect_pairing(7, seed=0)


@pytest.mark.parametrize("n", [-1, -2, -44])
def test_random_perfect_pairing_rejects_negative(n):
    # -2 is even and range(-2) is empty: no empty pairing may come out
    with pytest.raises(PairingError, match=f"nonnegative even .* got {n}$"):
        random_perfect_pairing(n, seed=1)


@pytest.mark.parametrize("seed", SEEDS + (3,))
def test_random_perfect_pairing_matches_the_tuple_construction(seed):
    for n in range(0, 65, 2):
        assert pair_tuples(random_perfect_pairing(n, seed)) \
            == reference_perfect_pairing(n, seed)


def test_random_perfect_pairing_covers_all_pairings():
    # n=6 has 15 perfect pairings; 300 seeds must reach every one of them
    seen = {pair_tuples(random_perfect_pairing(6, seed))
            for seed in range(300)}
    normalized = {tuple(sorted(tuple(sorted(p)) for p in pairs))
                  for pairs in seen}
    assert len(normalized) == 15
