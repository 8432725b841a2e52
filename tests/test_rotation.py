"""Key lifecycle tests: pools, lazy rotation, accounting, persistence."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from qkdplan import empirics, rotation
from qkdplan.advmodel import Mode, SecurityParams
from qkdplan.cli import main
from qkdplan.planner import compute_q_star
from qkdplan.rotation import (
    KeyPool,
    OversizedFileError,
    PoolExhaustedError,
    SessionState,
    StateError,
    encrypt_file,
    export_events,
    ingest_keys,
    load_state,
    open_session,
    persist_state,
    simulate_pool,
)

TOY_PARAMS = SecurityParams.from_bits(16, 14, 4, target_bits=9)  # q_star = 3


def toy_session(pool_size=10, rotation_factor=1, mode=Mode.CTR, seed=1):
    pool = simulate_pool(pool_size, 128, seed)
    return open_session(pool, mode, TOY_PARAMS, 8, rotation_factor)


# ----------------------------------------------------------------- key pools


def test_simulate_pool_is_deterministic():
    a = simulate_pool(5, 128, 7)
    b = simulate_pool(5, 128, 7)
    assert a._keys == b._keys
    assert len(set(a._keys)) == 5
    assert all(len(key) == 16 for key in a._keys)


def test_simulate_pool_seed_is_64_bit():
    assert len(simulate_pool(1, 128, 0)) == len(simulate_pool(1, 128, (1 << 64) - 1)) == 1
    with pytest.raises(ValueError):
        simulate_pool(1, 128, -1)
    with pytest.raises(ValueError, match="64-bit"):
        simulate_pool(1, 128, 1 << 64)


def test_key_length_is_checked_before_any_work(tmp_path, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew key material for a rejected key length")

    monkeypatch.setattr(rotation, "draw64", no_draws)
    absent = tmp_path / "absent.txt"
    for bits in (12, 4104, 8 * 10**9):
        with pytest.raises(ValueError, match=r"multiple of 8 in \[8, 4096\]"):
            simulate_pool(100000, bits, 0)
        with pytest.raises(ValueError, match=r"multiple of 8 in \[8, 4096\]"):
            ingest_keys(str(absent), bits)  # before the file is opened
    monkeypatch.undo()
    assert [len(key) for key in simulate_pool(2, 4096, 0)._keys] == [512, 512]


def test_simulated_pool_stops_drawing_at_the_first_repeat(monkeypatch):
    draws = []

    def counted(*args):
        draws.append(args)
        return empirics.draw64(*args)

    monkeypatch.setattr(rotation, "draw64", counted)
    # 8-bit keys: key 39 repeats key 35, one draw per key byte
    with pytest.raises(ValueError, match="key 39 repeats the material of key 35"):
        simulate_pool(200000, 8, 0)
    assert len(draws) <= 40


def test_ingest_keys_hex_lines(tmp_path):
    path = tmp_path / "keys.txt"
    keys = ["ab" * 16, "CD" * 16, "0123456789abcdef" * 2]
    path.write_text("\n".join(keys) + "\n\n")
    pool = ingest_keys(str(path), 128)
    assert len(pool) == 3
    assert pool.dispense() == (0, bytes.fromhex("ab" * 16))
    assert pool.dispense() == (1, bytes.fromhex("cd" * 16))


def test_ingest_keys_rejects_bad_lines(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("abcd\n")
    with pytest.raises(ValueError, match="short.txt:1"):
        ingest_keys(str(short), 128)
    nonhex = tmp_path / "nonhex.txt"
    nonhex.write_text("zz" * 16 + "\n")
    with pytest.raises(ValueError, match="not valid hex"):
        ingest_keys(str(nonhex), 128)


def test_pool_dispenses_each_key_once():
    pool = simulate_pool(4, 128, 1)
    ids = [pool.dispense()[0] for _ in range(4)]
    assert ids == [0, 1, 2, 3]
    assert pool.remaining() == 0
    with pytest.raises(PoolExhaustedError):
        pool.dispense()


def test_key_ids_are_pool_positions(tmp_path, capsys):
    # ids are positions: a chain that runs forward, and a checkpoint that loads
    a, b = bytes(range(16)), bytes(range(1, 17))
    pool = KeyPool([a, b], 128)
    assert [pool.dispense(), pool.dispense()] == [(0, a), (1, b)]
    session = open_session(KeyPool([a, b], 128), Mode.CTR, TOY_PARAMS, 8)
    for _ in range(4):
        encrypt_file(session, b"x")
    assert [(e.old_key_id, e.new_key_id) for e in session.events] == [(0, 1)]
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    assert load_state(str(path)) == session
    # the same bytes at two positions would rotate 0 -> 1 under one key
    with pytest.raises(ValueError, match="key 2 repeats the material of key 0"):
        KeyPool([a, b, a], 128)
    keys = tmp_path / "keys.txt"
    keys.write_text(f"{a.hex()}\n{b.hex()}\n{b.hex().upper()}\n")
    with pytest.raises(ValueError, match="key 2 repeats the material of key 1"):
        ingest_keys(str(keys), 128)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n")
    argv = ["rotate", "--mode", "ctr", "--lambda-bits", "16", "--s-min-bits", "14", "--file-size", "8B",
            "--target-bits", "9", "--keys", str(keys), "--manifest", str(manifest)]  # fmt: skip
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: key 2 repeats the material of key 1\n")


def test_pool_validation():
    for bits in (0, 12, 4104, 8 * 10**9):
        with pytest.raises(ValueError, match=r"multiple of 8 in \[8, 4096\]"):
            KeyPool([], bits)
    with pytest.raises(ValueError, match="128 bits"):
        KeyPool([b"\x00" * 8], 128)
    with pytest.raises(ValueError, match="cost"):
        KeyPool([b"\x00" * 16], 128, Fraction(0))
    KeyPool([], 128, Fraction((1 << 8192) - 1, (1 << 8192) - 3))
    for cost in (Fraction(1, 1 << 8192), Fraction(1 << 8192, 3)):
        with pytest.raises(ValueError, match="8192 bits"):
            KeyPool([], 128, cost)


def test_key_cost_is_checked_before_any_key_is_read(tmp_path, monkeypatch):
    # 1/10**5000 used to pass here and fail only when a total cost was printed
    huge = Fraction(1, 10**5000)
    monkeypatch.setattr(rotation, "draw64", None)  # any key drawn would raise TypeError
    with pytest.raises(ValueError, match="8192 bits"):
        simulate_pool(100000, 128, 0, huge)
    with pytest.raises(ValueError, match="8192 bits"):
        ingest_keys(str(tmp_path / "absent.txt"), 128, huge)  # not FileNotFoundError


# ------------------------------------------------------------------ sessions


def test_open_session_dispenses_first_key():
    pool = simulate_pool(2, 128, 1)
    session = open_session(pool, Mode.CTR, TOY_PARAMS, 8)
    assert session.plan.q_star == 3
    assert session.per_key_cap == 3
    assert session.current_key_id == 0
    assert pool.remaining() == 1
    assert session.total_files == 0 and session.files_under_current_key == 0
    assert session.keys_consumed == 1


def test_open_session_validation():
    pool = simulate_pool(2, 128, 1)
    with pytest.raises(ValueError, match="rotation_factor"):
        open_session(pool, Mode.CTR, TOY_PARAMS, 8, rotation_factor=0)
    assert pool.remaining() == 2
    with pytest.raises(ValueError, match="rotate before its first file"):
        open_session(pool, Mode.CTR, TOY_PARAMS, 8, rotation_factor=5)
    assert pool.remaining() == 2
    with pytest.raises(ValueError, match="whole number of bytes"):
        open_session(pool, Mode.CTR, TOY_PARAMS, 8, toy_block_bits=12)
    assert pool.remaining() == 2
    twelve_bit = SecurityParams(12, 1 << 10, 4, Fraction(1, 64))  # files of 4 12-bit blocks
    with pytest.raises(ValueError, match="whole-byte blocks"):
        open_session(pool, Mode.CTR, twelve_bit)
    assert pool.remaining() == 2
    for width in (0, -8):  # with no file size, the width alone sizes each file
        with pytest.raises(ValueError):
            open_session(pool, Mode.CTR, TOY_PARAMS, block_bits=width)
        assert pool.remaining() == 2


def test_lazy_rotation_schedule():
    # cap 3: rotation fires on files 4 and 7, not at file 3
    session = toy_session()
    events = []
    for i in range(7):
        _, event = encrypt_file(session, b"x" * 8)
        events.append(event)
    fired = [e for e in events if e is not None]
    assert [events.index(e) for e in fired] == [3, 6]  # 0-based: 4th and 7th file
    assert [e.at_file_count for e in fired] == [3, 6]
    assert [e.old_key_id for e in fired] == [0, 1]
    assert [e.new_key_id for e in fired] == [1, 2]
    assert session.keys_consumed == 3 == math.ceil(7 / 3)
    assert session.total_files == 7
    assert session.files_under_current_key == 1


def test_three_files_cost_one_key():
    session = toy_session()
    for _ in range(3):
        _, event = encrypt_file(session, b"12345678")
        assert event is None
    assert session.keys_consumed == 1
    assert session.total_key_cost == 1


def test_rotation_factor_shrinks_cap():
    session = toy_session(rotation_factor=3)
    assert session.per_key_cap == 1
    for i in range(4):
        _, event = encrypt_file(session, b"x")
        assert (event is None) == (i == 0)
    assert session.keys_consumed == 4


def _table_entries(tables) -> int:
    return sum(len(table) for table in tables)


@pytest.mark.parametrize("mode", list(Mode))
def test_round_tables_fill_lazily_for_the_current_key_only(mode, tmp_path):
    session = toy_session(mode=mode)  # 4 blocks per file
    # a budget under the eighth of a 16-bit key's 256-entry tables that fills them
    assert 8 * 4 * session.per_key_cap < 1 << 16 // 2
    schedule = session._key_schedule
    for files in range(1, session.per_key_cap + 1):
        encrypt_file(session, b"abcdefgh")
        blocks = 4 * files
        assert session._key_schedule is schedule
        # a lookup per block and round at most, so never more round functions than blocks
        assert all(len(table) <= blocks for table in schedule.tables1)
        assert _table_entries(schedule.tables1) <= blocks * empirics._ROUNDS
        # ECBC-MAC re-encrypts one chain end per file under the second key
        second = files if mode is Mode.ECBC_MAC else 0
        assert _table_entries(schedule.tables2) <= second * empirics._ROUNDS
    _, event = encrypt_file(session, b"abcdefgh")
    assert event is not None
    fresh = session._key_schedule
    assert fresh is not schedule
    assert _table_entries(fresh.tables1) <= 4 * empirics._ROUNDS
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    assert load_state(str(path))._key_schedule is None


# q_star 2880, 511 and 1019 files of 64 bytes for CTR, CBC and ECBC-MAC
FILL_PARAMS = SecurityParams.from_bits(36, 30, 32, target_bits=7)
# files of one 16-bit block, so that a width-16 key's budget can fall short
# of the 32 blocks that fill its tables
ONE_BLOCK_PARAMS = SecurityParams.from_bits(36, 30, 1, target_bits=7)


@pytest.mark.parametrize("width", [16, 24])
@pytest.mark.parametrize("mode", list(Mode))
def test_round_tables_fill_whole_when_the_key_budget_covers_them(mode, width):
    size = 1 << width // 2  # entries of a round table
    for params, file_bytes in ((FILL_PARAMS, 64), (ONE_BLOCK_PARAMS, 2)):
        per_file = -(-file_bytes // (width // 8))  # blocks of a file
        q_star = compute_q_star(mode, params, file_bytes, block_bits=16).q_star
        # rotation factors whose caps lie either side of each threshold: the
        # first subkey's tables see cap * per_file lookups and fill whole once
        # that reaches an eighth of them; ECBC-MAC's second sees cap lookups
        # and stays lazy even when cap covers them
        thresholds = [t for t in (-(-size // 8 // per_file), size) if t <= q_star]
        factors = {q_star // t + d for t in thresholds for d in (0, 1)}
        seen = set()
        for factor in sorted(f for f in factors if f <= q_star):
            pool = simulate_pool(2, 128, factor)
            session = open_session(pool, mode, params, file_bytes, factor, width, block_bits=16)
            cap = session.per_key_cap
            whole1 = 8 * cap * per_file >= size
            seen.add(whole1)
            # the first key before its first file, then the second after one
            # empty file, which looks up at most one entry per table
            for files in (cap + 1, 0):
                schedule = session._key_schedule
                assert all(len(table) == size if whole1 else len(table) <= 1 for table in schedule.tables1)
                assert all(len(table) <= 1 for table in schedule.tables2)
                for _ in range(files):
                    encrypt_file(session, b"")
            assert session.keys_consumed == 2
        # both sides of the first threshold, unless one file already reaches it
        assert True in seen and (False in seen or 8 * per_file >= size)


def test_pool_exhaustion_is_clean():
    session = toy_session(pool_size=2)
    for _ in range(6):
        encrypt_file(session, b"x")
    before = (session.total_files, session.files_under_current_key, session.keys_consumed)
    with pytest.raises(PoolExhaustedError):
        encrypt_file(session, b"x")
    assert (session.total_files, session.files_under_current_key, session.keys_consumed) == before


def test_oversized_file_rejected_without_side_effects():
    session = toy_session()
    with pytest.raises(OversizedFileError, match="exceeds planned size"):
        encrypt_file(session, b"x" * 9)
    assert session.total_files == 0


def test_ciphertext_shape_and_determinism():
    session = toy_session()
    ct1, _ = encrypt_file(session, b"hello wo")
    assert len(ct1) == 2 * 5  # iv block + 4 data blocks, 2 bytes each
    session2 = toy_session()
    ct2, _ = encrypt_file(session2, b"hello wo")
    assert ct1 == ct2  # same pool seed, same key, same file index
    ct3, _ = encrypt_file(session2, b"hello wo")
    assert ct3 != ct2  # fresh IV per file


def test_ecbc_session_emits_tags():
    session = toy_session(mode=Mode.ECBC_MAC)
    tag, _ = encrypt_file(session, b"hello wo")
    assert len(tag) == 2
    again, _ = encrypt_file(session, b"hello wo")
    assert tag == again  # MAC has no IV; identical input, identical tag


def test_ciphertext_differs_across_keys():
    session = toy_session(rotation_factor=3)  # new key every file
    ct1, _ = encrypt_file(session, b"const")
    ct2, _ = encrypt_file(session, b"const")
    assert ct1 != ct2


# -------------------------------------------------------------- persistence


def test_export_events_json_lines(tmp_path):
    session = toy_session()
    for _ in range(7):
        encrypt_file(session, b"x")
    path = tmp_path / "events.jsonl"
    export_events(session, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"event_index": 0, "old_key_id": 0, "new_key_id": 1, "at_file_count": 3}


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    session = toy_session()
    for _ in range(7):
        encrypt_file(session, b"x")
    state, events = tmp_path / "state.json", tmp_path / "events.jsonl"
    persist_state(session, str(state))
    export_events(session, str(events))
    good_state, good_events = state.read_bytes(), events.read_bytes()
    encrypt_file(session, b"x")
    # a cost too wide to print: the document fails after the old code had
    # already truncated the file
    session.key_cost = Fraction(1, 10**5000)
    with pytest.raises(ValueError, match="4300"):
        persist_state(session, str(state))
    # an event log that fails after its first line
    dumps = json.dumps
    lines = iter([True, False])
    monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps(*a, **k) if next(lines) else 1 / 0)
    with pytest.raises(ZeroDivisionError):
        export_events(session, str(events))
    assert (state.read_bytes(), events.read_bytes()) == (good_state, good_events)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.jsonl", "state.json"]


def test_state_round_trip(tmp_path):
    session = toy_session()
    for _ in range(5):
        encrypt_file(session, b"abcdefgh")
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    loaded = load_state(str(path))
    assert loaded == session
    assert loaded.pool is None
    assert loaded._key_schedule is None
    # accounting still works on the detached copy
    assert loaded.keys_consumed == 2
    assert loaded.total_key_cost == 2
    # and it re-persists identically
    path2 = tmp_path / "state2.json"
    persist_state(loaded, str(path2))
    assert path.read_text() == path2.read_text()
    # equality ignores the pool and the key schedule, but no accounting field
    one = toy_session()
    encrypt_file(one, b"x")  # one file, no rotation: these twins are valid sessions
    fields = dict(
        plan=one.plan, toy_block_bits=16, rotation_factor=1, key_cost=one.key_cost, pool=None,
        key_ids=[one.current_key_id], total_files=1,
    )  # fmt: skip
    assert SessionState(**fields) == one
    assert SessionState(**{**fields, "key_ids": [one.current_key_id + 1]}) != one
    assert SessionState(**{**fields, "rotation_factor": 3}) != one  # cap 1
    with pytest.raises(ValueError, match="at least the current key"):
        SessionState(**{**fields, "key_ids": []})
    encrypt_file(session, b"abcdefgh")
    assert session != loaded


def _live_session_after_a_rotation() -> SessionState:
    session = toy_session()  # cap 3
    for _ in range(4):
        encrypt_file(session, b"x")
    return session


def test_shallow_copy_of_a_live_session_is_refused(tmp_path):
    # a shallow copy would share key_ids, so encrypting on it would leave the
    # original with a chain its counters contradict
    session = _live_session_after_a_rotation()
    with pytest.raises(TypeError, match="persist_state and load_state"):
        copy.copy(session)
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    loaded = load_state(str(path))
    twin = copy.copy(loaded)
    assert twin == loaded and twin.key_ids is not loaded.key_ids


def test_deep_copy_of_a_live_session_is_refused():
    # a deep copy would be a second writer under the same key and IVs
    session = _live_session_after_a_rotation()
    with pytest.raises(TypeError, match="persist_state and load_state"):
        copy.deepcopy(session)
    assert encrypt_file(session, b"x")[1] is None  # the session itself still encrypts


def test_pickling_a_live_session_is_refused():
    # a pickle would hold the pool's key material
    session = _live_session_after_a_rotation()
    with pytest.raises(TypeError, match="persist_state and load_state"):
        pickle.dumps(session)
    session.pool = None  # still live: the current key's schedule holds its subkeys
    with pytest.raises(TypeError, match="persist_state and load_state"):
        pickle.dumps(session)


def test_detached_session_cannot_encrypt(tmp_path):
    session = toy_session()
    encrypt_file(session, b"x")
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    loaded = load_state(str(path))
    with pytest.raises(StateError, match="detached"):
        encrypt_file(loaded, b"x")


def test_load_missing_file_is_distinct():
    with pytest.raises(FileNotFoundError):
        load_state("/nonexistent/state.json")


def test_load_rejects_garbage_and_wrong_version(tmp_path):
    bad = tmp_path / "bad.json"
    # the second overflows the parser's stack; the third passes the interpreter's 4300-digit int limit
    for garbage in ("{not json", "[" * 200_000, '{"version": ' + "9" * 5000 + "}"):
        bad.write_text(garbage)
        with pytest.raises(StateError, match="not a JSON document"):
            load_state(str(bad))
    session = toy_session()
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    document = json.loads(path.read_text())
    for version in (1, 2, 4):
        document["version"] = version
        path.write_text(json.dumps(document))
        with pytest.raises(StateError, match="schema version"):
            load_state(str(path))
    del document["version"]
    path.write_text(json.dumps(document))
    with pytest.raises(StateError, match="malformed"):
        load_state(str(path))


def test_load_rejects_tampered_counters(tmp_path):
    session = toy_session()
    for _ in range(5):
        encrypt_file(session, b"x")
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    document = json.loads(path.read_text())
    document["counters"]["files_under_current_key"] = "7"  # beyond cap 3
    path.write_text(json.dumps(document))
    with pytest.raises(StateError, match="per-key cap"):
        load_state(str(path))


def test_load_rejects_tampered_q_star(tmp_path):
    session = toy_session()
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    document = json.loads(path.read_text())
    document["plan"]["q_star"] = "1000"
    document["per_key_cap"] = "1000"
    path.write_text(json.dumps(document))
    with pytest.raises(StateError, match="recomputed"):
        load_state(str(path))


def persisted(tmp_path, target_bits, files):
    """A toy CTR session after `files` files, persisted: (path, document).

    Targets 10 and 7 bits give per-key caps of 2 and 7 files.
    """
    params = SecurityParams.from_bits(16, 14, 4, target_bits=target_bits)
    session = open_session(simulate_pool(10, 128, 1), Mode.CTR, params, 8)
    for _ in range(files):
        encrypt_file(session, b"x")
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    load_state(str(path))  # the untampered state loads
    return path, json.loads(path.read_text())


def load_tampered(path, document):
    path.write_text(json.dumps(document))
    return load_state(str(path))


def test_load_rejects_files_beyond_the_schedule(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    assert (document["per_key_cap"], document["events"]) == ("2", [])
    document["counters"]["total_files"] = "1000"  # one key over 1000 files
    with pytest.raises(StateError, match="total_files"):
        load_tampered(path, document)
    path, document = persisted(tmp_path, 10, 4)
    document["counters"]["files_under_current_key"] = "0"
    document["counters"]["total_files"] = "2"  # a rotation with no file after it
    with pytest.raises(StateError, match=">= 1"):
        load_tampered(path, document)


def test_load_rejects_rotation_off_schedule(tmp_path):
    path, document = persisted(tmp_path, 7, 10)
    assert document["events"][0]["at_file_count"] == 7
    document["events"][0]["at_file_count"] = 49  # one key over 49 files
    document["counters"]["total_files"] = "52"
    with pytest.raises(StateError):
        load_tampered(path, document)
    document["events"][0]["at_file_count"] = 5  # counters consistent, rotation early
    document["counters"]["total_files"] = "10"
    with pytest.raises(StateError, match="events: stored"):
        load_tampered(path, document)


def test_load_rejects_broken_key_chain(tmp_path):
    path, document = persisted(tmp_path, 10, 7)
    assert [e["at_file_count"] for e in document["events"]] == [2, 4, 6]
    document["events"][1]["old_key_id"] = 5
    with pytest.raises(StateError, match="key chain"):
        load_tampered(path, document)


def test_load_rejects_a_key_chain_that_does_not_run_forward(tmp_path):
    path, document = persisted(tmp_path, 10, 7)

    def chained(ids):
        copy = json.loads(json.dumps(document))
        for event, old, new in zip(copy["events"], ids, ids[1:]):
            event.update(old_key_id=old, new_key_id=new)
        copy["current_key_id"] = ids[-1]
        return copy

    assert load_tampered(path, chained([0, 2, 5, 9])).current_key_id == 9  # keys other sessions took
    for ids in ([5, 3, 4, 6], [0, 1, 0, 2], [0, 1, 1, 2]):
        with pytest.raises(StateError, match="entry 1 breaks the key chain" if ids[0] == 0 else "entry 0"):
            load_tampered(path, chained(ids))


def test_load_rejects_params_that_admit_no_file(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    document["params"]["eps_max"] = f"1/{2**200}"
    with pytest.raises(StateError, match="even one file"):
        load_tampered(path, document)


def test_load_rejects_nonpositive_file_size(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    for size, match in ((-5, "-5 is negative"), (0, "file_size_bytes")):
        document["plan"]["file_size_bytes"] = size
        with pytest.raises(StateError, match=match):
            load_tampered(path, document)


def test_load_rejects_file_size_off_the_block_count(tmp_path):
    # 4 blocks of 16 bits are 8 bytes; a gigabyte file is not 4 blocks
    path, document = persisted(tmp_path, 10, 2)
    assert document["plan"] == {"q_star": "2", "file_size_bytes": 8, "block_bits": 16}
    for name, value, match in (
        ("file_size_bytes", 10**9, "1000000000 bytes is 500000000 blocks"),
        ("block_bits", 8, "8 bytes is 8 blocks"),
        ("block_bits", 12, "multiple of 8"),
    ):
        tampered = dict(document, plan={**document["plan"], name: value})
        with pytest.raises(StateError, match=match):
            load_tampered(path, tampered)


def test_load_rejects_non_integer_numbers(tmp_path):
    path, document = persisted(tmp_path, 10, 3)

    def tampered(edit):
        copy = json.loads(json.dumps(document))
        edit(copy)
        return copy

    for edit in (
        lambda d: d.update(rotation_factor=1.9),
        lambda d: d.update(current_key_id=1.5),
        lambda d: d["events"][0].update(old_key_id=0.0),
        lambda d: d["cipher"].update(block_bits=16.0),
        lambda d: d["plan"].update(file_size_bytes=8.7),
    ):
        with pytest.raises(StateError, match="natural number required, got float"):
            load_tampered(path, tampered(edit))
    # the loader reads only each event's old key; the rest must be what the chain gives
    for edit in (
        lambda d: d["events"][0].update(at_file_count=2.0),
        lambda d: d["events"][0].update(new_key_id=1.0),
    ):
        with pytest.raises(StateError, match="events: stored"):
            load_tampered(path, tampered(edit))


def test_load_rejects_numbers_not_in_persisted_form(tmp_path):
    # 40 files at cap 31: the tampers below all parse to the true values
    params = SecurityParams.from_bits(32, 30, 32, target_bits=16)
    session = open_session(simulate_pool(3, 128, 1), Mode.CTR, params, 128)
    for _ in range(40):
        encrypt_file(session, b"x")
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    persisted_text = path.read_text()
    persist_state(load_state(str(path)), str(path))
    assert path.read_text() == persisted_text  # persist -> load -> persist is byte-identical
    document = json.loads(persisted_text)
    assert (document["per_key_cap"], document["counters"]) == (
        "31", {"total_files": "40", "files_under_current_key": "9"}
    )

    def tampered(edit):
        copy = json.loads(persisted_text)
        edit(copy)
        return copy

    for edit in (
        lambda d: d["counters"].update(total_files=40.9),
        lambda d: d["counters"].update(total_files=" 40 "),
        lambda d: d["counters"].update(total_files="4_0"),
        lambda d: d["counters"].update(files_under_current_key=9.5),
        lambda d: d.update(per_key_cap=31.2),
        lambda d: d["plan"].update(q_star=31.9),
        lambda d: d.update(key_cost=1.0),
        lambda d: d.update(key_cost="1e0"),
        lambda d: d.update(total_key_cost=2.0),
        lambda d: d["params"].update(s_min=1073741824.0),
        lambda d: d["params"].update(eps_max=1.52587890625e-05),
    ):
        with pytest.raises(StateError, match="malformed"):
            load_tampered(path, tampered(edit))


def test_load_rejects_nonpositive_key_cost(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    document["key_cost"] = document["total_key_cost"] = "0"
    with pytest.raises(StateError, match="key_cost"):
        load_tampered(path, document)


def test_load_rejects_zero_denominator(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    document["key_cost"] = "1/0"
    with pytest.raises(StateError, match="zero denominator"):
        load_tampered(path, document)


def test_load_rejects_cipher_no_session_uses(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    document["cipher"]["block_bits"] = 12
    with pytest.raises(StateError, match="whole number of bytes"):
        load_tampered(path, document)


def test_load_rejects_negative_key_id(tmp_path):
    path, document = persisted(tmp_path, 10, 3)
    assert document["events"][-1]["new_key_id"] == document["current_key_id"] == 1
    document["events"][-1]["new_key_id"] = document["current_key_id"] = -7  # chain still closes
    with pytest.raises(StateError, match="negative"):
        load_tampered(path, document)
    document["events"][-1]["new_key_id"] = document["current_key_id"] = 1
    document["events"][0]["old_key_id"] = -3  # the chain starts at the first retired key
    with pytest.raises(StateError, match="negative"):
        load_tampered(path, document)


def test_load_rejects_huge_exponents(tmp_path):
    path, document = persisted(tmp_path, 10, 2)
    for name, value in (
        ("lambda_bits", 2**64),
        ("s_min", "1" + "0" * 5000),  # past the interpreter's 4300-digit int limit
        ("eps_max", "1/" + "9" * 5000),
    ):
        tampered = dict(document, params={**document["params"], name: value})
        with pytest.raises(StateError, match="must lie in" if name == "lambda_bits" else "malformed"):
            load_tampered(path, tampered)


def test_load_bounds_rational_text_before_reading_it(tmp_path):
    # Fraction turns 1e-N into 10**N: these took 12 s and 154 s to fail
    path, document = persisted(tmp_path, 10, 2)
    for edit in (
        lambda d: d["params"].update(eps_max="1e-10000000"),
        lambda d: d.update(key_cost="1e-50000000"),
        lambda d: d["params"].update(eps_max=" 1/1024"),
        lambda d: d.update(key_cost="1\n"),
    ):
        copy = json.loads(json.dumps(document))
        edit(copy)
        start = time.perf_counter()
        with pytest.raises(StateError, match="malformed"):
            load_tampered(path, copy)
        assert time.perf_counter() - start < 0.5


def test_load_rejects_non_ascii_state(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes('{"version": 1, "mode": "CTR\u00e9"}'.encode("utf-8"))
    with pytest.raises(StateError, match="not a JSON document"):
        load_state(str(path))


def test_state_round_trip_exact_params(tmp_path):
    # s_min 10000 and eps_max 3/1024 are not powers of two; the state keeps both exactly
    for params, stored in (
        (SecurityParams(16, 10000, 4, Fraction(1, 512)), ("10000", "1/512")),
        (SecurityParams(16, 1 << 14, 4, Fraction(3, 1024)), ("16384", "3/1024")),
    ):
        session = open_session(simulate_pool(5, 128, 1), Mode.CTR, params)
        for _ in range(5):
            encrypt_file(session, b"x")
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        persist_state(session, str(path))
        document = json.loads(path.read_text())
        assert (document["params"]["s_min"], document["params"]["eps_max"]) == stored
        loaded = load_state(str(path))
        assert loaded == session
        persist_state(loaded, str(again))
        assert again.read_text() == path.read_text()


def test_load_rejects_what_persist_state_never_writes(tmp_path):
    path, document = persisted(tmp_path, 10, 3)
    inf = float("inf")  # json writes and reads it as Infinity; int(inf) raises OverflowError
    for edit, match in (
        (lambda d: d.update(version=2.0), "version"),
        (lambda d: d.update(comment="audited"), "comment"),
        (lambda d: d["params"].update(rounds=8), "rounds"),
        (lambda d: d["counters"].update(bytes_written="24"), "bytes_written"),
        (lambda d: d["params"].update(s_min=inf), "got float"),
        (lambda d: d["params"].update(eps_max=inf), "got float"),
        (lambda d: d.update(key_cost=inf), "got float"),
        (lambda d: d["counters"].update(total_files=inf), "got float"),
    ):
        copy = json.loads(json.dumps(document))
        edit(copy)
        with pytest.raises(StateError, match=match):
            load_tampered(path, copy)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("rotation_factor", [1, 2])
def test_state_round_trip_every_mode(tmp_path, mode, rotation_factor):
    params = SecurityParams.from_bits(16, 14, 4, target_bits=7)  # q_star 7, 3, 6
    session = open_session(simulate_pool(10, 128, 1), mode, params, 8, rotation_factor)
    for _ in range(session.plan.q_star + 1):
        encrypt_file(session, b"x")
    assert session.events
    path, again = tmp_path / "state.json", tmp_path / "again.json"
    persist_state(session, str(path))
    loaded = load_state(str(path))
    assert loaded == session
    persist_state(loaded, str(again))
    assert again.read_text() == path.read_text()


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("rotation_factor", [1, 2, 3])
def test_event_log_is_the_events_encrypt_file_fired(tmp_path, mode, rotation_factor):
    params = SecurityParams.from_bits(16, 14, 4, target_bits=7)  # q_star 7, 3, 6
    session = open_session(simulate_pool(32, 128, 1), mode, params, 8, rotation_factor)
    fired = []
    for _ in range(4 * session.plan.q_star + 1):
        _, event = encrypt_file(session, b"x")
        if event is not None:
            fired.append(event)
    assert len(fired) >= 4
    assert session.events == fired
    assert session.key_ids == [fired[0].old_key_id] + [e.new_key_id for e in fired]
    path = tmp_path / "state.json"
    persist_state(session, str(path))
    assert load_state(str(path)).events == fired


def test_accounting_identity_random_runs():
    rng = random.Random(55)
    for _ in range(20):
        total = rng.randrange(1, 40)
        session = toy_session(pool_size=40)
        for _ in range(total):
            encrypt_file(session, b"x")
        assert session.keys_consumed == math.ceil(total / session.plan.q_star)
        # event log re-derives the same split
        counts = []
        prev = 0
        for event in session.events:
            counts.append(event.at_file_count - prev)
            prev = event.at_file_count
        counts.append(session.total_files - prev)
        assert sum(counts) == session.total_files
        assert all(c == session.per_key_cap for c in counts[:-1])
        assert 0 < counts[-1] <= session.per_key_cap
