"""Toy cipher and Monte Carlo tests.

Frozen collision fractions carry bands of several combined standard errors
around values measured before implementation with an independent script that
used exact lazily-sampled random permutations; the toy Feistel deviates from
an ideal permutation by well under these bands.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

from qkdplan import empirics
from qkdplan.advmodel import Mode
from qkdplan.empirics import (
    EmpiricalResult,
    ToyCipherParams,
    TrialConfig,
    Z_99,
    cbc_encrypt,
    ctr_encrypt,
    draw64,
    ecbc_mac,
    estimate_collision_probability,
    mix64,
    toy_prp,
)
from qkdplan.empirics import (
    _draw_np, _permute_np, _round_keys, _round_keys_np, _round_tables, _RoundTable, _stream_bases, _trial_lanes
)


# Oracles for the round-trip and scalar-vs-vector tests; the package keeps
# only the encrypting direction and the vectorized kernel.


def draw_grid(seed: int, purpose: int, slots: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The trial kernels' draw: rows are trials lo..hi-1, columns are slots."""
    grid = np.empty((hi - lo, len(slots)), dtype=np.uint64)
    _draw_np(grid, np.empty_like(grid), _stream_bases(seed, purpose, slots), _trial_lanes(lo, hi)[:, None])
    return grid


def permute_batch(block_bits: int, keys, blocks: np.ndarray) -> np.ndarray:
    """The trial kernels' Feistel over a row of blocks, under one key or one key per block."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(1, -1)
    round_keys = np.empty((empirics._ROUNDS, keys.shape[1]), dtype=np.uint64)
    _round_keys_np(keys, round_keys, np.empty_like(round_keys))
    x = blocks.astype(np.uint64).reshape(1, -1)
    out = np.empty_like(x)
    _permute_np(block_bits, round_keys, x, out, tuple(np.empty_like(x) for _ in range(4)))
    return out[0]


def toy_prp_batch(params: ToyCipherParams, blocks: np.ndarray, key: int | None = None) -> np.ndarray:
    k = params.key_seed if key is None else key
    return permute_batch(params.block_bits, k, blocks)


def _unpermute(block_bits: int, key: int, y: int) -> int:
    round_keys = _round_keys(key)
    w_left = block_bits // 2
    w_right = block_bits - w_left
    widths = []
    for _ in round_keys:
        widths.append((w_left, w_right))
        w_left, w_right = w_right, w_left
    x = y
    for rk, (wl, wr) in zip(reversed(round_keys), reversed(widths)):
        # a forward round at widths (wl, wr) maps (L, R) to (R, L ^ f(R))
        r = x >> wl
        masked = x & ((1 << wl) - 1)
        x = ((masked ^ (mix64(r ^ rk) & ((1 << wl) - 1))) << wr) | r
    return x


def toy_prp_inverse(params: ToyCipherParams, block: int) -> int:
    return _unpermute(params.block_bits, params.key_seed, block)


def cbc_decrypt(params: ToyCipherParams, key: int, iv: int, blocks: list[int]) -> list[int]:
    prev = iv
    out = []
    for block in blocks:
        out.append(_unpermute(params.block_bits, key, block) ^ prev)
        prev = block
    return out


def test_mix64_deterministic_and_injective_sample():
    assert mix64(123456789) == mix64(123456789)
    seen = {mix64(i) for i in range(100000)}
    assert len(seen) == 100000
    assert all(0 <= mix64(i) < 1 << 64 for i in (0, 1, (1 << 64) - 1))


def test_draw64_is_counter_based():
    a = draw64(42, 1, 7, 1000)
    assert a == draw64(42, 1, 7, 1000)  # order-free, pure in coordinates
    assert a != draw64(42, 1, 7, 1001)
    assert a != draw64(42, 1, 8, 1000)
    assert a != draw64(42, 2, 7, 1000)
    assert a != draw64(43, 1, 7, 1000)


def test_draw_grid_matches_scalar_draws():
    slots = np.arange(5, dtype=np.uint64)
    trials = np.arange(100, 140, dtype=np.uint64)
    grid = draw_grid(987, 3, slots, 100, 140)
    for ti, t in enumerate(trials):
        for si in range(5):
            assert int(grid[ti, si]) == draw64(987, 3, si, int(t))
    # the CBC kernel draws slot-major: rows are slots, columns are trials
    by_slot = np.empty((5, 40), dtype=np.uint64)
    _draw_np(by_slot, np.empty_like(by_slot), _stream_bases(987, 3, slots[:, None]), _trial_lanes(100, 140))
    assert np.array_equal(by_slot, grid.T)


def test_toy_prp_is_permutation_all_widths():
    for bits in (8, 11, 13, 16):
        params = ToyCipherParams(bits, key_seed=2024)
        outs = toy_prp_batch(params, np.arange(1 << bits, dtype=np.uint64))
        assert len(np.unique(outs)) == 1 << bits


def test_toy_prp_inverse_round_trip():
    # an inverse shows injectivity where the domain is too wide to enumerate
    rng = random.Random(31)
    for bits in (8, 13, 16, 24):
        params = ToyCipherParams(bits, key_seed=rng.getrandbits(64))
        for _ in range(100):
            x = rng.randrange(1 << bits)
            assert toy_prp_inverse(params, toy_prp(params, x)) == x


def test_toy_prp_scalar_matches_batch():
    for bits in range(8, 25):
        params = ToyCipherParams(bits, key_seed=99 + bits)
        xs = np.unique(np.linspace(0, (1 << bits) - 1, 300).astype(np.uint64))
        batch = toy_prp_batch(params, xs)
        assert all(toy_prp(params, int(x)) == int(y) for x, y in zip(xs, batch)), bits
    params = ToyCipherParams(16, key_seed=99)
    xs = np.arange(0, 1 << 16, 251, dtype=np.uint64)
    batch = toy_prp_batch(params, xs)
    # explicit key overrides key_seed
    keyed = toy_prp_batch(params, xs, key=555)
    assert not np.array_equal(batch, keyed)


def test_round_table_fill_matches_lazy_lookups():
    rng = random.Random(23)
    for bits in range(8, 25):
        for key in (0, (1 << 64) - 1, rng.getrandbits(64)):
            for table in _round_tables(bits, key):
                # a round reads one half and masks to the other's width
                for half_bits in {bits // 2, bits - bits // 2}:
                    lazy = _RoundTable(table.rk, table.mask)
                    want = [lazy[h] for h in range(1 << half_bits)]
                    assert table.fill(1 << half_bits) == want, (bits, key, half_bits)


def test_toy_cipher_params_validation():
    with pytest.raises(ValueError):
        ToyCipherParams(7, 0)
    with pytest.raises(ValueError):
        ToyCipherParams(25, 0)
    with pytest.raises(TypeError, match="natural number required, got float"):
        ToyCipherParams(16.0, 0)
    with pytest.raises(ValueError):
        ToyCipherParams(16, 1 << 64)


def test_ctr_round_trip_and_wraparound():
    params = ToyCipherParams(12, key_seed=5)
    blocks = [0, 1, 4095, 2048]
    iv = 4094  # counters 4094, 4095, 0, 1: wraps mod N
    ct = ctr_encrypt(params, 77, iv, blocks)
    assert ctr_encrypt(params, 77, iv, ct) == blocks  # XOR masking is an involution
    assert ct != blocks


def test_ctr_overlapping_counter_ranges_share_keystream():
    params = ToyCipherParams(16, key_seed=5)
    iv = 31000
    ks_a = ctr_encrypt(params, 9, iv, [0, 0])
    ks_b = ctr_encrypt(params, 9, iv + 1, [0, 0])
    assert ks_a[1] == ks_b[0]  # both are E(iv+1)
    assert ks_a[0] != ks_b[1]


def test_cbc_round_trip():
    params = ToyCipherParams(16, key_seed=8)
    rng = random.Random(17)
    blocks = [rng.randrange(1 << 16) for _ in range(9)]
    ct = cbc_encrypt(params, 3, 60000, blocks)
    assert cbc_decrypt(params, 3, 60000, ct) == blocks


def test_cbc_corruption_localizes_to_two_blocks():
    params = ToyCipherParams(16, key_seed=8)
    blocks = [100, 200, 300, 400, 500]
    ct = cbc_encrypt(params, 3, 1234, blocks)
    bad = list(ct)
    bad[1] ^= 0x0040
    out = cbc_decrypt(params, 3, 1234, bad)
    assert out[0] == blocks[0]
    assert out[1] != blocks[1]  # fully garbled
    assert out[2] == blocks[2] ^ 0x0040  # exact flip carried forward
    assert out[3:] == blocks[3:]


def test_ecbc_mac_basics():
    params = ToyCipherParams(12, key_seed=1)
    tag = ecbc_mac(params, 10, 20, [1, 2, 3])
    assert 0 <= tag < 1 << 12
    assert tag == ecbc_mac(params, 10, 20, [1, 2, 3])
    assert tag != ecbc_mac(params, 10, 20, [1, 2, 4])
    assert tag != ecbc_mac(params, 11, 20, [1, 2, 3])
    with pytest.raises(ValueError):
        ecbc_mac(params, 10, 20, [])
    with pytest.raises(ValueError):
        ecbc_mac(params, 10, 20, [1 << 12])


def test_ecbc_mac_is_the_cbc_chain_reencrypted_under_key2():
    rng = random.Random(23)
    for width in range(8, 25):
        params = ToyCipherParams(width, key_seed=0)
        for count in (1, 2, 7):
            blocks = [rng.randrange(1 << width) for _ in range(count)]
            k1, k2 = rng.getrandbits(64), rng.getrandbits(64)
            chain_end = cbc_encrypt(params, k1, 0, blocks)[-1]
            assert ecbc_mac(params, k1, k2, blocks) == toy_prp(ToyCipherParams(width, k2), chain_end)


def test_ecbc_tag_collisions_near_inverse_domain():
    # distinct random 2-block messages under random key pairs collide with
    # probability close to 1/domain
    zero = np.zeros(1, dtype=np.uint64)
    k1 = draw_grid(7, 10, zero, 0, 100000)[:, 0]
    k2 = draw_grid(7, 11, zero, 0, 100000)[:, 0]
    msgs = draw_grid(7, 12, np.arange(4, dtype=np.uint64), 0, 100000) & np.uint64(255)

    def tags(m0, m1):
        s = permute_batch(8, k1, m0)
        s = permute_batch(8, k1, m1 ^ s)
        return permute_batch(8, k2, s)

    ta, tb = tags(msgs[:, 0], msgs[:, 1]), tags(msgs[:, 2], msgs[:, 3])
    distinct = (msgs[:, 0] != msgs[:, 2]) | (msgs[:, 1] != msgs[:, 3])
    fraction = float((ta == tb)[distinct].sum() / distinct.sum())
    assert 0.0025 < fraction < 0.0055  # 1/256 ~ 0.0039

    params = ToyCipherParams(8, key_seed=0)
    for i in range(100):
        want = ecbc_mac(params, int(k1[i]), int(k2[i]), [int(msgs[i, 0]), int(msgs[i, 1])])
        assert want == int(ta[i])


# ----------------------------------------------------------- session cipher


def session_reference(mode: Mode, block_bits: int, material: bytes, file_index: int, data: bytes) -> bytes:
    """A session key's encryption of one file, from blake2b, the batch
    Feistel and the mode definitions, none of it the scalar round loop."""
    digest = hashlib.blake2b(material, digest_size=24, person=b"qkdplan-sess").digest()
    k1, k2, iv_seed = (int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16))
    n, size = 1 << block_bits, block_bits // 8
    padded = data + bytes(-len(data) % size) or bytes(size)  # zero-padded, at least one block
    blocks = [int.from_bytes(padded[i : i + size], "big") for i in range(0, len(padded), size)]

    def permute(key: int, x: int) -> int:
        return int(permute_batch(block_bits, key, np.array([x], dtype=np.uint64))[0])

    iv = draw64(iv_seed, empirics._P_SESSION_IV, 0, file_index) % n
    if mode is Mode.CTR:
        counters = np.arange(iv, iv + len(blocks), dtype=np.uint64) % np.uint64(n)
        out = [iv, *(b ^ int(k) for b, k in zip(blocks, permute_batch(block_bits, k1, counters)))]
    else:
        chain = iv if mode is Mode.CBC else 0
        out = [iv]
        for b in blocks:
            chain = permute(k1, b ^ chain)
            out.append(chain)
        if mode is Mode.ECBC_MAC:
            out = [permute(k2, chain)]
    return b"".join(b.to_bytes(size, "big") for b in out)


@pytest.mark.parametrize("filled", [False, True], ids=["lazy", "filled"])
@pytest.mark.parametrize("width", [8, 16, 24])
@pytest.mark.parametrize("mode", list(Mode))
def test_session_cipher_matches_an_independent_reference(mode, width, filled):
    size, n = width // 8, 1 << width
    material = f"{mode.name}/{width}/{filled}".encode()
    # one file of one block stays below a round table's 2**(width/2)
    # entries; that many files of 64 bytes reach them
    files_per_key, max_file_bytes = (1 << width // 2, 64) if filled else (1, size)
    schedule = empirics._KeySchedule(material, width, files_per_key, max_file_bytes)
    assert all(isinstance(table, list) == filled for table in schedule.tables1)
    # the first file whose IV lies within 2048 counters of N: a CTR file of
    # 2048 blocks there wraps mod N
    digest = hashlib.blake2b(material, digest_size=24, person=b"qkdplan-sess").digest()
    zero = np.zeros(1, dtype=np.uint64)
    ivs = draw_grid(int.from_bytes(digest[16:], "big"), empirics._P_SESSION_IV, zero, 0, 1 << 16)[:, 0] % np.uint64(n)
    wrap = int(np.flatnonzero(ivs > n - 2048)[0])
    rng = random.Random(material)
    files = [(0, b""), (1, b"\xff"), (2, rng.randbytes(size + 1)), (3, rng.randbytes(64))]
    if mode is Mode.CTR:
        files.append((wrap, rng.randbytes(2048 * size)))
    for file_index, data in files:
        got = schedule.encrypt(mode, file_index, data)
        assert got == session_reference(mode, width, material, file_index, data), (file_index, len(data))


@pytest.mark.parametrize("width", [8, 16, 24])
def test_block_split_and_join_match_per_block_conversion(width):
    # the 16-bit split and join read an array("H") item as two bytes
    assert array("H").itemsize == 2
    size = width // 8
    rng = random.Random(width)
    for length in [*range(3 * size + 2), 64]:
        data = rng.randbytes(length)
        padded = data + bytes(-length % size) or bytes(size)
        blocks = [int.from_bytes(padded[i : i + size], "big") for i in range(0, len(padded), size)]
        assert empirics._split_blocks(data, size) == blocks, length
        assert empirics._join_blocks(blocks, size) == padded, length
    extremes = [0, 1, (1 << width) - 1, 1 << width - 1]
    assert empirics._join_blocks(extremes, size) == b"".join(b.to_bytes(size, "big") for b in extremes)


# ------------------------------------------------------------------- trials


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(Mode.ECBC_MAC, 16, 4, 4, 1000, 0)
    with pytest.raises(ValueError):
        TrialConfig(Mode.CTR, 16, 1 << 14, 8, 1000, 0)  # q*l > domain
    with pytest.raises(ValueError):
        TrialConfig(Mode.CTR, 16, 0, 4, 1000, 0)
    with pytest.raises(ValueError):
        TrialConfig(Mode.CTR, 30, 4, 4, 1000, 0)
    # one width rule with ToyCipherParams, which also rejects a float width
    with pytest.raises(TypeError, match="natural number required, got float"):
        TrialConfig(Mode.CTR, 16.0, 4, 4, 1000, 0)
    # CBC file i's block j draws plaintext slot i*256 + j: at 257 blocks,
    # file 0's last block would share file 1's first plaintext
    TrialConfig(Mode.CBC, 16, 4, 256, 1000, 0)
    with pytest.raises(ValueError, match="256 blocks_per_file"):
        TrialConfig(Mode.CBC, 16, 4, 257, 1000, 0)
    TrialConfig(Mode.CTR, 16, 4, 257, 1000, 0)  # CTR draws no plaintext


def test_trial_config_seed_is_64_bit():
    # draw64 reads the seed mod 2**64, so a wider seed would alias a narrower one
    for seed in (0, (1 << 64) - 1):
        assert TrialConfig(Mode.CTR, 16, 4, 4, 1000, seed).rng_seed == seed
    with pytest.raises(ValueError):
        TrialConfig(Mode.CTR, 16, 4, 4, 1000, -1)
    with pytest.raises(ValueError, match="64-bit"):
        TrialConfig(Mode.CBC, 16, 4, 4, 1000, 1 << 64)


def test_estimate_rejects_tiny_trial_counts():
    with pytest.raises(ValueError, match="1000"):
        estimate_collision_probability(TrialConfig(Mode.CTR, 16, 16, 4, 999, 0))


def test_estimate_is_deterministic_and_chunk_independent(monkeypatch):
    # 64 elements per trial (q_files for CTR, q_files * blocks_per_file for
    # CBC); 3001 trials is a multiple of neither 7 nor the default chunk,
    # which takes several chunks, the last one short
    per_trial = 64
    default = empirics._CHUNK_ELEMENTS
    default_chunk = default // per_trial
    assert 1 < default_chunk < 3001 and 3001 % default_chunk
    for config in (
        TrialConfig(Mode.CTR, 16, 64, 4, 3001, 11),
        TrialConfig(Mode.CBC, 12, 32, 2, 3001, 11),
    ):
        monkeypatch.setattr(empirics, "_CHUNK_ELEMENTS", default)
        reference = estimate_collision_probability(config)
        assert isinstance(reference, EmpiricalResult)
        assert reference.trials == config.trials
        assert estimate_collision_probability(config) == reference
        assert 0 < reference.collisions < config.trials
        # 7 trials, the default, one chunk for the run
        for budget in (7 * per_trial, default, config.trials * per_trial):
            monkeypatch.setattr(empirics, "_CHUNK_ELEMENTS", budget)
            assert estimate_collision_probability(config) == reference
        # one trial per chunk in tiles of one slot or file, on the first 101
        # trials only, since a trial takes ~6 ms at this budget; through the
        # chunk counters, because an estimate needs >= 1000 trials
        counter = empirics._ctr_counter if config.mode is Mode.CTR else empirics._cbc_counter
        monkeypatch.setattr(empirics, "_CHUNK_ELEMENTS", default)
        few = counter(config, default_chunk)(0, 101)
        assert 0 < few < 101
        monkeypatch.setattr(empirics, "_CHUNK_ELEMENTS", 1)
        one_trial = counter(config, 1)
        assert sum(one_trial(trial, trial + 1) for trial in range(101)) == few


def scalar_collides(config: TrialConfig, trial: int) -> bool:
    """Whether one trial collides, from draw64 and the scalar toy cipher alone."""
    n, q, l, seed = 1 << config.block_bits, config.q_files, config.blocks_per_file, config.rng_seed
    ivs = [draw64(seed, empirics._P_IV, i, trial) % n for i in range(q)]
    if config.mode is Mode.CTR:
        ivs.sort()
        gaps = [b - a for a, b in zip(ivs, ivs[1:])] + [ivs[0] + n - ivs[-1]]
        return min(gaps) < l
    key = draw64(seed, empirics._P_KEY, 0, trial)
    cipher = ToyCipherParams(config.block_bits, key_seed=0)
    outputs = []
    for i, iv in enumerate(ivs):
        plaintext = [draw64(seed, empirics._P_PLAINTEXT, i * 256 + j, trial) % n for j in range(l)]
        outputs += cbc_encrypt(cipher, key, iv, plaintext)
    return len(set(outputs)) < len(outputs)


@pytest.mark.parametrize(
    "config",
    [
        TrialConfig(Mode.CTR, 9, 6, 4, 1009, 5),
        TrialConfig(Mode.CTR, 12, 8, 3, 1009, 6),
        TrialConfig(Mode.CTR, 12, 1, 7, 1009, 7),
        TrialConfig(Mode.CTR, 9, 20, 1, 1009, 8),
        TrialConfig(Mode.CBC, 9, 3, 4, 1009, 5),
        TrialConfig(Mode.CBC, 12, 4, 4, 1009, 6),
        TrialConfig(Mode.CBC, 8, 1, 6, 1009, 7),
        TrialConfig(Mode.CBC, 9, 12, 1, 1009, 8),
    ],
    ids=lambda c: f"{c.mode.value}-{c.block_bits}-{c.q_files}-{c.blocks_per_file}",
)
def test_collision_count_matches_scalar_oracle(config, monkeypatch):
    want = sum(scalar_collides(config, trial) for trial in range(config.trials))
    assert estimate_collision_probability(config).collisions == want
    # 1009 trials is prime, so chunks of 1000 // per_trial >= 2 trials end
    # short; a budget of 5 elements tiles a trial above it in runs of 5 slots
    # or 5 // l files, at least one, the last of them short
    for budget in (1000, 5):
        monkeypatch.setattr(empirics, "_CHUNK_ELEMENTS", budget)
        assert estimate_collision_probability(config).collisions == want


def test_close_rows_reads_each_row_round_its_own_circle():
    def close(rows: list[list[int]], n: int, t: int) -> int:
        rows = np.array(rows, np.uint32)
        return empirics._close_rows(rows, np.empty_like(rows), n, t)

    # equal values count within a row; a row's largest value equal to the
    # next row's smallest does not
    assert close([[9, 7, 7], [20, 3, 10], [60, 40, 20]], 64, 1) == 1
    assert close([[20, 3, 10], [60, 40, 20]], 64, 1) == 0
    # 0 and n-1 lie one apart through the wrap, which is never below 1
    assert close([[63, 0, 30], [1, 33, 17]], 64, 2) == 1
    assert close([[63, 0, 30], [0, 32, 63]], 64, 1) == 0
    # a lone value is n from itself round the circle, whatever the next row holds
    assert close([[5], [5], [0]], 64, 64) == 0


@pytest.mark.parametrize(
    ("config", "collisions"),
    [
        (TrialConfig(Mode.CBC, 16, 8, 4, 49152, 7), 376),
        (TrialConfig(Mode.CBC, 16, 8, 4, 49152, 1), 359),
        (TrialConfig(Mode.CTR, 20, 64, 8, 65536, 7), 1826),
        (TrialConfig(Mode.CTR, 20, 64, 8, 65536, 1), 1894),
    ],
    ids=["cbc-seed7", "cbc-seed1", "ctr-seed7", "ctr-seed1"],
)
def test_benchmark_configs_give_their_pinned_counts(config, collisions):
    # the mc-collide benchmark's two configs, whole multi-chunk runs, at two seeds
    assert estimate_collision_probability(config).collisions == collisions


def test_estimate_memory_is_bounded_by_the_chunk():
    # the workspace is sized by the chunk, never by the trial count
    for config in (
        TrialConfig(Mode.CTR, 20, 64, 8, 65536, 1),
        TrialConfig(Mode.CBC, 16, 8, 4, 49152, 1),
        TrialConfig(Mode.CBC, 24, 64, 2, 20000, 1),
    ):
        tracemalloc.start()
        try:
            estimate_collision_probability(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19, (config, peak)


@pytest.mark.parametrize("mode", [Mode.CTR, Mode.CBC])
def test_a_trial_over_the_chunk_budget_peaks_within_the_stated_bound(mode):
    # a trial above the budget is a chunk of its own, and the module states a
    # peak of 8 bytes per element, its uint32 values and gaps, plus under 4 MB
    # for the uint64 tiles: below 12 bytes per element at 2**20.  CBC at one
    # block per file keeps the most per-file rows per element
    counter = empirics._ctr_counter if mode is Mode.CTR else empirics._cbc_counter
    for q_files in (1 << 18, 1 << 20):
        config = TrialConfig(mode, 20, q_files, 1, 1000, 1)
        assert empirics._CHUNK_ELEMENTS < q_files
        tracemalloc.start()
        try:
            counter(config, 1)(0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * q_files + (4 << 20), (q_files, peak)


def test_estimate_seed_sensitivity():
    base = TrialConfig(Mode.CTR, 16, 16, 4, 20000, 1)
    other = TrialConfig(Mode.CTR, 16, 16, 4, 20000, 2)
    assert (
        estimate_collision_probability(base).collisions
        != estimate_collision_probability(other).collisions
    )


def test_ctr_single_file_never_collides():
    r = estimate_collision_probability(TrialConfig(Mode.CTR, 12, 1, 16, 2000, 3))
    assert r.collisions == 0 and r.collision_fraction == 0.0
    assert r.half_width_99 == 0.0


def test_ctr_two_files_match_exact_overlap_probability():
    # P(two length-l counter windows overlap) is exactly (2l-1)/N
    r = estimate_collision_probability(TrialConfig(Mode.CTR, 12, 2, 4, 200000, 9))
    exact = 7 / 4096
    sigma = (exact * (1 - exact) / 200000) ** 0.5
    assert abs(r.collision_fraction - exact) < 5 * sigma


def test_ctr_frozen_reference_config():
    r = estimate_collision_probability(TrialConfig(Mode.CTR, 16, 16, 4, 20000, 42))
    assert r.theoretical_bound == Fraction(2 * 16 * 16 * 4, 1 << 16)
    assert abs(r.collision_fraction - 0.0128) < 0.004
    assert r.collision_fraction - r.half_width_99 <= float(r.theoretical_bound)
    assert r.collision_fraction >= float(r.theoretical_bound) / 8


def test_cbc_frozen_reference_config():
    r = estimate_collision_probability(TrialConfig(Mode.CBC, 16, 8, 4, 20000, 42))
    assert r.theoretical_bound == Fraction(2 * 8 * 8 * 4 * 4, 1 << 16)
    assert abs(r.collision_fraction - 0.0077) < 0.004
    assert r.collision_fraction - r.half_width_99 <= float(r.theoretical_bound)
    assert r.collision_fraction >= float(r.theoretical_bound) / 8


def test_half_width_formula():
    r = estimate_collision_probability(TrialConfig(Mode.CTR, 16, 16, 4, 20000, 42))
    f = r.collision_fraction
    assert r.half_width_99 == pytest.approx(Z_99 * (f * (1 - f) / 20000) ** 0.5)
