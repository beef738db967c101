import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.rng import (
    COIN_BITS,
    coin,
    coin_blocks,
    coin_threshold,
    coins_array,
    derive_seed,
    keyed_hash,
    keyed_hash_array,
    mix64,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_mix64_known_zero_point():
    # the splitmix64 finalizer maps 0 to 0
    assert mix64(0) == 0


def test_mix64_is_injective_on_samples():
    xs = [0, 1, 2, 3, 12345, (1 << 64) - 1, 0xDEADBEEF]
    outs = {mix64(x) for x in xs}
    assert len(outs) == len(xs)


def test_mix64_stays_in_range():
    for x in [1, (1 << 63), (1 << 64) - 1, 0xABCDEF0123456789]:
        assert 0 <= mix64(x) < (1 << 64)


@given(U64, U64)
def test_keyed_hash_matches_array_path(seed, key):
    arr = keyed_hash_array(seed, np.array([key], dtype=np.uint64))
    assert int(arr[0]) == keyed_hash(seed, key)


@given(U64, st.lists(U64, min_size=1, max_size=50))
@settings(max_examples=50)
def test_keyed_hash_array_elementwise(seed, keys):
    arr = keyed_hash_array(seed, np.array(keys, dtype=np.uint64))
    expected = [keyed_hash(seed, k) for k in keys]
    assert [int(x) for x in arr] == expected


def test_coin_threshold_bounds():
    assert coin_threshold(0.0) == 0
    assert coin_threshold(1.0) == 1 << COIN_BITS
    assert 0 < coin_threshold(0.5) < (1 << COIN_BITS)


def test_coin_threshold_monotone():
    probs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    ts = [coin_threshold(p) for p in probs]
    assert ts == sorted(ts)
    assert len(set(ts)) == len(ts)


def test_coin_threshold_resolution():
    # threshold error is below one part in 2^53
    t = coin_threshold(0.3)
    assert abs(t / (1 << COIN_BITS) - 0.3) < 2.0 ** (-COIN_BITS)


@given(U64, U64, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200)
def test_scalar_and_vector_coins_agree(seed, key, p):
    t = coin_threshold(p)
    scalar = coin(seed, key, t)
    vector = coins_array(seed, np.array([key], dtype=np.uint64), t)
    assert bool(vector[0]) == scalar


@given(U64, st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=64))
@settings(max_examples=50)
def test_coin_blocks_equal_coins_array(seed, n, size):
    # n need not be a multiple of size: the last block is then shorter
    t = coin_threshold(0.4)
    blocks = [(lo, coins.copy()) for lo, coins in coin_blocks(seed, n, t, size)]
    assert [lo for lo, _ in blocks] == list(range(0, n, min(size, n)))
    joined = np.concatenate([coins for _, coins in blocks])
    assert np.array_equal(joined, coins_array(seed, np.arange(n, dtype=np.uint64), t))


def test_coins_array_deterministic():
    keys = np.arange(1000, dtype=np.uint64)
    t = coin_threshold(0.3)
    a = coins_array(42, keys, t)
    b = coins_array(42, keys, t)
    assert np.array_equal(a, b)


def test_coins_array_seed_sensitivity():
    keys = np.arange(1000, dtype=np.uint64)
    t = coin_threshold(0.5)
    assert not np.array_equal(coins_array(42, keys, t), coins_array(43, keys, t))


def test_coin_extreme_thresholds():
    keys = np.arange(256, dtype=np.uint64)
    assert not coins_array(7, keys, coin_threshold(0.0)).any()
    assert coins_array(7, keys, coin_threshold(1.0)).all()


def test_coin_empirical_rate_near_p():
    keys = np.arange(200_000, dtype=np.uint64)
    rate = coins_array(11, keys, coin_threshold(0.3)).mean()
    # 200k coins, binomial sd is about 0.001
    assert abs(rate - 0.3) < 0.005


@given(U64, U64)
def test_derive_seed_in_range(seed, index):
    assert 0 <= derive_seed(seed, index) < (1 << 64)


def test_derive_seed_injective_over_indices():
    outs = {derive_seed(123, i) for i in range(10_000)}
    assert len(outs) == 10_000


def test_derive_seed_differs_across_parents():
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_derive_seed_avoids_coin_stream():
    # child seeds must not coincide with the parent's per-key hashes
    hashes = {keyed_hash(5, k) for k in range(4096)}
    children = {derive_seed(5, i) for i in range(64)}
    assert not (hashes & children)
