"""Scaled-down empirical validation of the birthday terms.

The planning bounds charge a birthday term quad*Q^2/N for collision events
(the quad coefficient of advmodel's bound table).  At real parameters it is
astronomically small, so this module shrinks the block domain to 8..24 bits,
runs Monte Carlo trials, and checks the measured collision fraction sits below
the same term evaluated at the small domain, without being so far below that
the experiment proves nothing.

Collision events mirror what the bounds charge for; one test, _close_rows,
counts the trials holding two values less than t apart on the circle of N:

  CTR  t = l on the Q starting IVs, since two files of l counters overlap
       (keystream reuse) exactly when their IVs lie less than l apart;
  CBC  t = 1 on the Q*l permutation inputs under one key, equal exactly
       when two ciphertext blocks are (which leaks the XOR of the chained
       plaintexts); the gap round the circle is never below 1.

The cipher is a small unbalanced Feistel network, a permutation on the block
domain for any width and any round function.  Its scalar form is one round
loop, _run, that every mode runs through, over round tables that are filled
on demand or, for a session key whose budget covers them, computed whole as
plain lists.
All randomness is counter-based: a draw depends only on (seed, purpose,
slot, trial), never on call order, so results are bit-identical regardless
of chunking, and the scalar and vectorized paths agree value for value.

Trials run in chunks of as many whole trials as fit in _CHUNK_ELEMENTS
elements, or of one larger trial.  Each estimate allocates its mode's buffers
once: uint32 rows of one chunk's values and their gaps for the sort, and
uint64 tiles of at most _CHUNK_ELEMENTS elements for the draws, round keys
and Feistel rounds, which write their masked values straight into the sort
rows.  A chunk of whole trials is one tile, whose per-slot draw bases are
computed once per estimate; a larger trial runs in tiles of _CHUNK_ELEMENTS
CTR slots or _CHUNK_ELEMENTS // l CBC files, at least one, each deriving its
own bases.  So an estimate within the budget peaks near 1 MB (tracemalloc:
0.9 MB for CTR at (20, 64, 8) and for CBC at (16, 8, 4)), and a larger trial
at 8 bytes per element, its values and gaps, plus under 4 MB for the tiles
(1.5 MB for CTR, 3.3 MB for CBC at l = 1): 131 MB for 2**24 elements.

numpy is imported inside the vectorized kernels, not at module level, so
planning, the scalar toy cipher and rotation sessions run without loading
it; the first collision estimate pays its import.  _KeySchedule, the cipher
of a rotation session's key, imports hashlib the same way, so it loads with
the first session key.  _RoundTable.fill and the 16-bit block split and join
import the array module, so it loads with a session's first filled key or
first 16-bit file.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction

from .advmodel import Mode, bound_terms
from .exactmath import _Record, as_natural
from .planner import blocks_per_file

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANE = 0xD6E8FEB86659FD93

# two-sided 99% normal quantile
Z_99 = 2.5758293035489004

# elements per trial chunk (q per CTR trial, q*l per CBC trial) and per
# uint64 tile, unless one trial is larger; small enough that a tile's uint64
# buffers stay in L2, and the module docstring bounds the memory this gives
_CHUNK_ELEMENTS = 1 << 15
_ROUNDS = 6  # Feistel rounds of the toy cipher, in sessions and trials alike

# counter-based draw purposes, every one the package uses; distinct purposes
# never share a stream
_P_IV = 1
_P_KEY = 2
_P_PLAINTEXT = 3
_P_KEY_MATERIAL = 4  # simulated QKD key bytes
_P_SESSION_IV = 5  # a rotation session's per-file IVs

# CBC plaintext block j of file i draws from slot i*_PLAINTEXT_SLOTS + j, so
# files stay apart only while blocks_per_file <= _PLAINTEXT_SLOTS.  With
# q*l <= 2**24 that also keeps every slot below 2**32, clear of the purpose.
_PLAINTEXT_SLOTS = 256


def as_u64(value: int, what: str) -> int:
    """Validate and return an integer in [0, 2**64).

    draw64 reads seeds mod 2**64, so a wider seed would alias a narrower one.
    """
    if as_natural(value) > _M64:
        raise ValueError(f"{what} must be a 64-bit integer")
    return value


def mix64(x: int) -> int:
    """64-bit finalizer: bijective on [0, 2**64), strong diffusion."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX1) & _M64
    x ^= x >> 27
    x = (x * _MIX2) & _M64
    x ^= x >> 31
    return x


def _mix64_np(x: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 on a uint64 array, in place; scratch is a buffer of x's shape.

    Array integer arithmetic wraps mod 2**64 without a warning.
    """
    import numpy as np

    np.right_shift(x, 30, out=scratch)
    x ^= scratch
    _mix64_tail_np(x, scratch)


def _mix64_tail_np(x: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 after its first step x ^= x >> 30, in place."""
    import numpy as np

    x *= _MIX1
    np.right_shift(x, 27, out=scratch)
    x ^= scratch
    x *= _MIX2
    np.right_shift(x, 31, out=scratch)
    x ^= scratch


def draw64(seed: int, purpose: int, slot: int, trial: int) -> int:
    """Counter-based 64-bit draw; pure function of its four coordinates."""
    stream = ((purpose << 32) | slot) & _M64
    base = mix64((seed & _M64) ^ ((stream * _GOLDEN) & _M64))
    return mix64(base ^ ((trial * _LANE) & _M64))


def _trial_lanes(lo: int, hi: int) -> np.ndarray:
    """trial*_LANE mod 2**64 for trials lo..hi-1, the per-trial half of draw64."""
    import numpy as np

    lanes = np.arange(lo, hi, dtype=np.uint64)
    lanes *= _LANE
    return lanes


def _stream_bases(seed: int, purpose: int, slots: np.ndarray) -> np.ndarray:
    """The per-slot half of draw64, a new array of slots' shape."""
    import numpy as np

    bases = slots | np.uint64((purpose << 32) & _M64)
    bases *= np.uint64(_GOLDEN)
    bases ^= np.uint64(seed & _M64)
    _mix64_np(bases, np.empty_like(bases))
    return bases


def _draw_np(out: np.ndarray, scratch: np.ndarray, bases: np.ndarray, lanes: np.ndarray) -> None:
    """Vectorized draw64 into out, in place, at _stream_bases and lanes broadcast to out's shape.

    scratch is a buffer of out's shape.
    """
    import numpy as np

    np.bitwise_xor(lanes, bases, out=out)
    _mix64_np(out, scratch)


# ------------------------------------------------------------------ toy cipher


def _toy_block_bits(block_bits: int) -> int:
    """Validate and return a toy block width, a natural number in [8, 24]."""
    if not 8 <= as_natural(block_bits) <= 24:
        raise ValueError("block_bits must lie in [8, 24]")
    return block_bits


class ToyCipherParams(_Record):
    """Shape of the scaled-down cipher: block width and default key."""

    __slots__ = _fields = ("block_bits", "key_seed")

    def __init__(self, block_bits: int, key_seed: int) -> None:
        _toy_block_bits(block_bits)
        as_u64(key_seed, "key_seed")
        object.__setattr__(self, "block_bits", block_bits)
        object.__setattr__(self, "key_seed", key_seed)


def _round_keys(key: int) -> list[int]:
    return [mix64(key + (i + 1) * _GOLDEN) for i in range(_ROUNDS)]


@functools.cache
def _lanes(size: int) -> tuple[int, int, int]:
    """For halves 0..size-1, each in its own 128-bit lane of one int: a 1 in
    every lane, h in lane h, and 2**64 - 1 in every lane."""
    ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
    index = int.from_bytes(b"".join(h.to_bytes(16, "little") for h in range(size)), "little")
    return ones, index, _M64 * ones


class _RoundTable(dict):
    """One Feistel round's function half -> mix64(half ^ rk) & mask, kept
    for the table's lifetime and computed on a value's first lookup.

    fill(size) computes every value below size at once, as a list indexed
    by half; _KeySchedule keeps that list in the table's place when a
    session key's budget covers the whole table.  Both kinds index alike,
    so _run takes either.
    """

    __slots__ = ("rk", "mask")

    def __init__(self, rk: int, mask: int) -> None:  # dict.__new__ made it empty
        self.rk, self.mask = rk, mask

    def __missing__(self, half: int) -> int:
        value = self[half] = mix64(half ^ self.rk) & self.mask
        return value

    def fill(self, size: int) -> list[int]:
        """The values of halves 0..size-1 (size <= 2**30), computed in one pass.

        mix64 runs on one int that holds half h ^ rk in 128-bit lane h: a
        64x64-bit product fits its lane, and each shift is masked back to
        the low 64 bits of every lane, so no lane reaches the next.
        """
        from array import array

        ones, index, low = _lanes(size)
        # h < 2**30, so (h ^ rk) >> 30 is rk >> 30 and mix64's first step folds into the key
        x = (self.rk ^ self.rk >> 30) * ones ^ index
        x = x * _MIX1 & low
        x ^= x >> 27 & low
        x = x * _MIX2 & low
        x = (x ^ x >> 31) & self.mask * ones
        words = array("Q", x.to_bytes(16 * size, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[::2].tolist()


def _round_tables(block_bits: int, key: int) -> list[_RoundTable]:
    """The round functions of one key at one width, empty until looked up.

    Looked up lazily, a key that encrypts n blocks evaluates at most
    n*_ROUNDS round functions, and a round at most once per value of its
    input half.
    """
    # unbalanced Feistel: round 0 masks to the left half's width, and the
    # half widths swap each round
    widths = (block_bits // 2, block_bits - block_bits // 2)
    return [_RoundTable(rk, (1 << widths[i % 2]) - 1) for i, rk in enumerate(_round_keys(key))]


def _run(block_bits: int, tables: list[_RoundTable | list[int]], xs: list[int], prev: int | None = None) -> list[int]:
    """E(x) for each x in xs, in order, under one key's round tables: the
    scalar toy cipher, which every mode runs through.

    Given prev, the xs chain as in CBC: each is XORed with the output
    before it, the first with prev, before it is permuted.  Every x (and
    prev) must lie in [0, 2**block_bits); callers check what they did not
    make themselves.
    """
    t0, t1, t2, t3, t4, t5 = tables
    w_right = block_bits - block_bits // 2
    mask = (1 << w_right) - 1
    chain = prev is not None
    out = []
    for x in xs:
        if chain:
            x ^= prev
        left, right = x >> w_right, x & mask
        # each round XORs one half with its table at the other, the halves
        # taking turns, as (left, right) = (right, left ^ table[right]) would
        left ^= t0[right]
        right ^= t1[left]
        left ^= t2[right]
        right ^= t3[left]
        left ^= t4[right]
        right ^= t5[left]
        # _ROUNDS is even, so the halves end at their starting widths
        prev = left << w_right | right
        out.append(prev)
    return out


@functools.cache
def _round_key_offsets() -> np.ndarray:
    """The per-round constants _round_keys adds to a key, as a read-only (_ROUNDS, 1) column."""
    import numpy as np

    offsets = np.array([[((i + 1) * _GOLDEN) & _M64] for i in range(_ROUNDS)], dtype=np.uint64)
    offsets.flags.writeable = False
    return offsets


def _round_keys_np(keys: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """_round_keys for _permute_np: a row of T keys gives out (_ROUNDS, T); scratch is out's shape.

    Each key rk is stored as rk ^ (rk >> 30).  A round mixes x = half ^ rk,
    and mix64 starts with x ^= x >> 30; a half is below 2**12, so x >> 30 is
    rk >> 30 and that first step folds into the key.
    """
    import numpy as np

    np.add(keys, _round_key_offsets(), out=out)
    _mix64_np(out, scratch)
    np.right_shift(out, 30, out=scratch)
    out ^= scratch


def _permute_np(
    block_bits: int, round_keys: np.ndarray, x: np.ndarray, out: np.ndarray, work: tuple[np.ndarray, ...]
) -> None:
    """Vectorized _permute of x into out; column t of x is keyed by round_keys[:, t].

    x is (S, T) or broadcasts to it, with T columns in round_keys (_ROUNDS, T)
    from _round_keys_np.
    work holds four scratch buffers of x's shape; out may be x itself.
    """
    import numpy as np

    left, right, f, scratch = work
    w_left = block_bits // 2
    w_right = block_bits - w_left
    np.right_shift(x, w_right, out=left)
    np.bitwise_and(x, (1 << w_right) - 1, out=right)
    for i in range(_ROUNDS):
        np.bitwise_xor(right, round_keys[i : i + 1], out=f)
        _mix64_tail_np(f, scratch)
        f &= (1 << w_left) - 1
        f ^= left
        left, right, f = right, f, left
        w_left, w_right = w_right, w_left
    np.left_shift(left, w_right, out=out)
    out |= right


def _check_block(block_bits: int, value: int, what: str = "block") -> int:
    if not 0 <= value < 1 << block_bits:
        raise ValueError(f"{what} {value} outside [0, 2**{block_bits})")
    return value


def _check_blocks(block_bits: int, blocks: list[int]) -> None:
    for block in blocks:
        _check_block(block_bits, block)


def toy_prp(params: ToyCipherParams, block: int) -> int:
    """Permutation the params induce (keyed by key_seed)."""
    block = _check_block(params.block_bits, block)
    return _run(params.block_bits, _round_tables(params.block_bits, params.key_seed), [block])[0]


# ------------------------------------------------------------ mode operations


def _mode_pass(mode: Mode, block_bits: int, tables1: list, tables2: list, iv: int, blocks: list[int]) -> list[int]:
    """blocks under one mode, as one or two passes of _run: CTR XORs E(iv + j
    mod N) onto block j, CBC chains the blocks from iv, and ECBC-MAC gives a
    one-block tag, the last CBC output chained from 0 re-permuted under
    tables2.  A session's blocks come from bytes; the public functions check
    theirs first."""
    if mode is Mode.ECBC_MAC:
        return _run(block_bits, tables2, _run(block_bits, tables1, blocks, 0)[-1:])
    if mode is Mode.CTR:
        mask = (1 << block_bits) - 1
        keystream = _run(block_bits, tables1, [c & mask for c in range(iv, iv + len(blocks))])
        return [block ^ k for block, k in zip(blocks, keystream)]
    return _run(block_bits, tables1, blocks, iv)


def _split_blocks(data: bytes, block_bytes: int) -> list[int]:
    """data zero-padded into whole big-endian blocks of 1, 2 or 3 bytes, at
    least one, as ints."""
    data = data + bytes(-len(data) % block_bytes) or bytes(block_bytes)
    if block_bytes == 1:
        return list(data)
    if block_bytes == 2:
        from array import array

        words = array("H", data)
        if sys.byteorder == "little":
            words.byteswap()
        return words.tolist()
    # there is no 3-byte array type
    return [a << 16 | b << 8 | c for a, b, c in zip(data[0::3], data[1::3], data[2::3])]


def _join_blocks(blocks: list[int], block_bytes: int) -> bytes:
    """blocks of 1, 2 or 3 bytes each, as big-endian bytes."""
    if block_bytes == 1:
        return bytes(blocks)
    if block_bytes == 2:
        from array import array

        words = array("H", blocks)
        if sys.byteorder == "little":
            words.byteswap()
        return words.tobytes()
    return b"".join(b.to_bytes(3, "big") for b in blocks)


class _KeySchedule:
    """What one rotation-session key fixes, all from one blake2b digest of
    its material: an IV seed and the round tables of two subkeys (CTR and
    CBC use the first, ECBC-MAC both).

    The first subkey's tables fill whole, each into a list, when the key's
    budget, files_per_key files of planner.blocks_per_file blocks, reaches
    an eighth of their 2**(block_bits/2) entries (session widths are whole
    bytes); below it they fill lazily, as the second subkey's always do.
    An eighth is where a key's lazy misses come to cost one fill: at widths
    16 and 24, CTR and CBC keys over files of 1 to 512 bytes ran faster
    lazily at 3/32 of the entries and faster filled at 1/8.  Every mode runs
    through _run, which takes either kind.
    """

    __slots__ = ("block_bits", "tables1", "tables2", "iv_seed")

    def __init__(self, material: bytes, block_bits: int, files_per_key: int, max_file_bytes: int) -> None:
        import hashlib

        digest = hashlib.blake2b(material, digest_size=24, person=b"qkdplan-sess").digest()
        k1, k2, self.iv_seed = (int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16))
        self.block_bits = block_bits
        self.tables1, self.tables2 = _round_tables(block_bits, k1), _round_tables(block_bits, k2)
        size = 1 << block_bits // 2
        if 8 * files_per_key * blocks_per_file(max_file_bytes, block_bits) >= size:
            self.tables1 = [table.fill(size) for table in self.tables1]

    def encrypt(self, mode: Mode, file_index: int, data: bytes) -> bytes:
        """Encrypt the session's file number file_index, zero-padded into
        whole blocks, at least one: CTR and CBC output carries the file's IV
        as a leading block, and ECBC-MAC outputs the tag alone."""
        block_bits = self.block_bits
        block_bytes = block_bits // 8
        blocks = _split_blocks(data, block_bytes)
        if mode is Mode.ECBC_MAC:
            return _join_blocks(_mode_pass(mode, block_bits, self.tables1, self.tables2, 0, blocks), block_bytes)
        iv = draw64(self.iv_seed, _P_SESSION_IV, 0, file_index) & (1 << block_bits) - 1
        return _join_blocks([iv, *_mode_pass(mode, block_bits, self.tables1, self.tables2, iv, blocks)], block_bytes)


def ctr_encrypt(params: ToyCipherParams, key: int, iv: int, blocks: list[int]) -> list[int]:
    """Counter mode: block j is XOR-masked with E(iv + j mod N)."""
    tables = _round_tables(params.block_bits, as_u64(key, "key"))
    iv = _check_block(params.block_bits, iv, "iv")
    _check_blocks(params.block_bits, blocks)
    return _mode_pass(Mode.CTR, params.block_bits, tables, [], iv, blocks)


def cbc_encrypt(params: ToyCipherParams, key: int, iv: int, blocks: list[int]) -> list[int]:
    tables = _round_tables(params.block_bits, as_u64(key, "key"))
    iv = _check_block(params.block_bits, iv, "iv")
    _check_blocks(params.block_bits, blocks)
    return _mode_pass(Mode.CBC, params.block_bits, tables, [], iv, blocks)


def ecbc_mac(params: ToyCipherParams, key1: int, key2: int, blocks: list[int]) -> int:
    """Encrypted CBC-MAC: CBC chain under key1, final state re-encrypted under key2."""
    if not blocks:
        raise ValueError("ecbc_mac requires at least one block")
    tables2 = _round_tables(params.block_bits, as_u64(key2, "key"))
    tables1 = _round_tables(params.block_bits, as_u64(key1, "key"))
    _check_blocks(params.block_bits, blocks)
    return _mode_pass(Mode.ECBC_MAC, params.block_bits, tables1, tables2, 0, blocks)[0]


# ------------------------------------------------------------------ trials


class TrialConfig(_Record):
    """One Monte Carlo experiment: mode, domain, load, trial count, seed.

    Trials draw a fresh 64-bit cipher key per trial and run the toy cipher;
    IVs and plaintexts are uniform on the block domain.
    """

    __slots__ = _fields = ("mode", "block_bits", "q_files", "blocks_per_file", "trials", "rng_seed")

    def __init__(
        self, mode: Mode, block_bits: int, q_files: int, blocks_per_file: int, trials: int, rng_seed: int
    ) -> None:
        if mode not in (Mode.CTR, Mode.CBC):
            raise ValueError("collision trials support CTR and CBC only")
        _toy_block_bits(block_bits)
        if as_natural(q_files) < 1 or as_natural(blocks_per_file) < 1:
            raise ValueError("q_files and blocks_per_file must be >= 1")
        if q_files * blocks_per_file > 1 << block_bits:
            raise ValueError("q_files * blocks_per_file exceeds the block domain")
        if mode is Mode.CBC and blocks_per_file > _PLAINTEXT_SLOTS:
            raise ValueError(f"CBC trials support at most {_PLAINTEXT_SLOTS} blocks_per_file")
        as_natural(trials)
        as_u64(rng_seed, "rng_seed")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "block_bits", block_bits)
        object.__setattr__(self, "q_files", q_files)
        object.__setattr__(self, "blocks_per_file", blocks_per_file)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "rng_seed", rng_seed)


class EmpiricalResult(_Record):
    """Collisions seen in a number of trials, with the bound they are held to.

    The measured collision fraction and its 99% normal-approximation
    half-width are derived from the two counts.
    """

    __slots__ = _fields = ("theoretical_bound", "trials", "collisions")

    def __init__(self, theoretical_bound: Fraction, trials: int, collisions: int) -> None:
        if as_natural(trials) < 1 or as_natural(collisions) > trials:
            raise ValueError(f"need 0 <= collisions <= trials and trials >= 1, got {collisions} of {trials}")
        object.__setattr__(self, "theoretical_bound", theoretical_bound)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "collisions", collisions)

    @property
    def collision_fraction(self) -> float:
        return self.collisions / self.trials

    @property
    def half_width_99(self) -> float:
        fraction = self.collision_fraction
        return Z_99 * math.sqrt(fraction * (1.0 - fraction) / self.trials)


def _close_rows(rows: np.ndarray, gaps: np.ndarray, n: int, t: int) -> int:
    """Count the rows, each one trial's uint32 values below n <= 2**24, holding two values less
    than t apart on the circle of n; sorts each row in place, and gaps is a uint32 buffer like rows."""
    import numpy as np

    rows.sort(axis=1)
    flat = rows.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=gaps.reshape(-1)[:-1])
    # the last column spans two trials; it holds the gap round the circle instead
    np.subtract(rows[:, 0] + n, rows[:, -1], out=gaps[:, -1])
    return int(np.count_nonzero(gaps.min(axis=1) < t))


def _tiles(items: int, tile: int, bases: Callable[[int, int], object]) -> Callable[[], Iterable[tuple]]:
    """The tiles (i0, i1, bases(i0, i1)) of items 0..items-1, tile items at a time, in order.

    One tile covering every item is made once and reused, so its bases are
    precomputed per estimate; smaller tiles derive theirs as they come.
    """
    if tile == items:
        whole = [(0, items, bases(0, items))]
        return lambda: whole
    return lambda: ((i0, min(i0 + tile, items), bases(i0, min(i0 + tile, items))) for i0 in range(0, items, tile))


def _ctr_counter(config: TrialConfig, chunk: int) -> Callable[[int, int], int]:
    """Collision count of CTR trials lo..hi-1, for up to chunk trials at a time."""
    import numpy as np

    q, n = config.q_files, 1 << config.block_bits
    # chunk trials of q slots fit the budget, or chunk is 1 and a tile is the budget
    tile = min(q, _CHUNK_ELEMENTS)
    draw_rows = np.empty((2, chunk * tile), np.uint64)
    iv_rows = np.empty((2, chunk, q), np.uint32)
    tiles = _tiles(q, tile, lambda s0, s1: _stream_bases(config.rng_seed, _P_IV, np.arange(s0, s1, dtype=np.uint64)))

    def count(lo: int, hi: int) -> int:
        ivs, gaps = iv_rows[:, : hi - lo]
        lanes = _trial_lanes(lo, hi)[:, None]
        for s0, s1, iv_bases in tiles():
            draws, scratch = draw_rows[:, : (hi - lo) * (s1 - s0)].reshape(2, hi - lo, s1 - s0)
            _draw_np(draws, scratch, iv_bases, lanes)
            np.bitwise_and(draws, n - 1, out=ivs[:, s0:s1], casting="unsafe")
        return _close_rows(ivs, gaps, n, config.blocks_per_file)

    return count


def _cbc_counter(config: TrialConfig, chunk: int) -> Callable[[int, int], int]:
    """Collision count of CBC trials lo..hi-1, for up to chunk trials at a time."""
    import numpy as np

    q, l, n = config.q_files, config.blocks_per_file, 1 << config.block_bits
    # chunk trials of q files of l blocks fit the budget, or chunk is 1 and a
    # tile is as many files as the budget holds, at least one
    tile = min(q, max(1, _CHUNK_ELEMENTS // l))
    # a file per row and a trial per column, so per-trial keys and lanes
    # broadcast along contiguous rows; the blocks, the permutation inputs,
    # keep a trial per row for _close_rows, and each file's last block needs
    # no permute
    chain_rows = np.empty((6, tile * chunk), np.uint64)
    key_rows = np.empty((2, _ROUNDS, chunk), np.uint64)
    block_rows = np.empty((2, chunk, q * l), np.uint32)
    key_bases = _stream_bases(config.rng_seed, _P_KEY, np.zeros((1, 1), np.uint64))

    def bases(f0: int, f1: int) -> tuple[np.ndarray, np.ndarray]:
        # the IV bases of files f0..f1-1, and their plaintext bases, block j in row j
        files = np.arange(f0, f1, dtype=np.uint64)[:, None]
        blocks = np.arange(l, dtype=np.uint64)[:, None, None]
        return (
            _stream_bases(config.rng_seed, _P_IV, files),
            _stream_bases(config.rng_seed, _P_PLAINTEXT, files * _PLAINTEXT_SLOTS | blocks),
        )

    tiles = _tiles(q, tile, bases)

    def count(lo: int, hi: int) -> int:
        round_keys, key_scratch = key_rows[:, :, : hi - lo]
        blocks, gaps = block_rows[:, : hi - lo]
        lanes = _trial_lanes(lo, hi)
        # the keys borrow key_scratch's first row until the round keys are derived
        keys = key_scratch[:1]
        _draw_np(keys, round_keys[:1], key_bases, lanes)
        _round_keys_np(keys, round_keys, key_scratch)
        for f0, f1, (iv_bases, pt_bases) in tiles():
            prev, pt, left, right, f, scratch = chain_rows[:, : (f1 - f0) * (hi - lo)].reshape(6, f1 - f0, hi - lo)
            _draw_np(prev, scratch, iv_bases, lanes)
            prev &= n - 1
            for j in range(l):
                _draw_np(pt, scratch, pt_bases[j], lanes)
                pt &= n - 1
                pt ^= prev
                np.copyto(blocks[:, f0 * l + j : f1 * l : l], pt.T, casting="unsafe")
                if j < l - 1:
                    _permute_np(config.block_bits, round_keys, pt, prev, (left, right, f, scratch))
        return _close_rows(blocks, gaps, n, 1)

    return count


def estimate_collision_probability(config: TrialConfig) -> EmpiricalResult:
    """Measure the mode's collision event frequency at scaled-down parameters.

    Deterministic in config alone.  Needs >= 1000 trials; below that the
    normal-approximation interval reported alongside the point estimate is
    meaningless.
    """
    if config.trials < 1000:
        raise ValueError("trials must be >= 1000")
    q, l = config.q_files, config.blocks_per_file
    per_trial = q if config.mode is Mode.CTR else q * l
    chunk = min(config.trials, max(1, _CHUNK_ELEMENTS // per_trial))
    count = (_ctr_counter if config.mode is Mode.CTR else _cbc_counter)(config, chunk)
    collisions = sum(count(lo, min(lo + chunk, config.trials)) for lo in range(0, config.trials, chunk))

    # the bound's birthday term at the scaled-down domain
    _, quad, _, den = bound_terms(config.mode, config.blocks_per_file, 1 << config.block_bits)
    bound = Fraction(quad * config.q_files**2, den)
    return EmpiricalResult(bound, config.trials, collisions)
