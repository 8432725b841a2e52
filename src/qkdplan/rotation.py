"""Key lifecycle engine: pools of QKD-delivered keys, encryption sessions
that rotate lazily on a planned schedule, and auditable persistence.

A session wraps one RotationPlan.  Keys are drawn from a KeyPool only at the
moment the per-key file budget is exhausted (lazy rotation): opening a
session costs one key, and every per_key_cap files thereafter costs one
more.  With rotation_factor 1 the cap is the full planned Q*, so a run of
T files consumes exactly ceil(T / Q*) keys; larger factors rotate
proportionally earlier for defense in depth at the same planned level.
A key's id is its pool position, so a session's key chain runs through
increasing ids: no key serves two stretches of a session.  Rotation i hands
chain key i over to key i+1 once (i+1)*cap files are done, so a session
stores the chain and derives the event log, which cannot leave the schedule.

Every session rule lives in SessionState.__init__, so a session opened
from a pool and one loaded from disk pass the same checks.  Sessions persist
to a versioned JSON document with every count that matters for audit: the
exact parameters, the file size and block width, planned Q*, counters, and
the full rotation event log.  Loading rebuilds the session with the same
compute_q_star call open_session makes and accepts only the document that
session persists, so a hand-edited state file that claims more files per
key, or larger files, than the plan allows, a rotation off the schedule or
a key chain that does not run forward, is rejected rather than trusted.
Loaded sessions are detached (key material is never persisted) and support
accounting and re-persistence but not further encryption.  A state file or
event log is written to a temporary file beside it and then renamed into
place, so a failed write leaves the previous file intact.

Encryption runs the scaled-down block cipher, so demo runs produce real
ciphertext.  empirics._KeySchedule owns it: the subkeys, IV seed and round
tables a key fixes, and the encryption of one file under them.  The session
holds the schedule of its current key only, built when the key is dispensed;
it is never persisted, and a live session cannot be copied or pickled.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import attrgetter

from .advmodel import EcbcDenominator, Mode, SecurityParams, check_key_cost
from .empirics import _P_KEY_MATERIAL, _KeySchedule, _toy_block_bits, as_u64, draw64
from .exactmath import _Record, as_natural, parse_rational, render_rational
from .planner import RotationPlan, compute_q_star

STATE_VERSION = 3

# QKD keys are 128 or 256 bits; the cap keeps a typo from generating or
# reading gigabytes of key material
_MAX_KEY_BITS = 4096


class PoolExhaustedError(RuntimeError):
    """A key was needed and the pool had none left."""


class StateError(ValueError):
    """A state document is malformed, inconsistent, or from another schema."""


class OversizedFileError(ValueError):
    """A file exceeds the per-file size the plan was computed for."""


def _check_key_len(key_len_bits: int) -> None:
    if not 8 <= as_natural(key_len_bits) <= _MAX_KEY_BITS or key_len_bits % 8:
        raise ValueError(f"key_len_bits must be a multiple of 8 in [8, {_MAX_KEY_BITS}]")


class KeyPool:
    """Ordered pool of distinct keys; each is dispensed at most once.

    dispense() returns (key_id, material), the id being the key's position.
    The same material at two positions is rejected, since a rotation from
    one to the other would keep encrypting under the same bytes.  keys may
    be any iterable; it is read once, after the key length and cost are
    checked, and reading stops at the first bad or repeated key.  cost is
    the accounting cost of each key, the same for every key in the pool;
    advmodel.check_key_cost states its rule.
    """

    def __init__(
        self,
        keys: Iterable[bytes],
        key_len_bits: int,
        cost: Fraction = Fraction(1),
        source: str = "",
    ):
        _check_key_len(key_len_bits)
        self.cost = check_key_cost(cost)
        first_id: dict[bytes, int] = {}
        for key_id, material in enumerate(keys):
            if not isinstance(material, bytes) or len(material) * 8 != key_len_bits:
                raise ValueError(f"key {key_id} is not {key_len_bits} bits")
            earlier = first_id.setdefault(material, key_id)
            if earlier != key_id:
                raise ValueError(f"key {key_id} repeats the material of key {earlier}")
        self.key_len_bits = key_len_bits
        self.source = source
        self._keys = list(first_id)  # every key is distinct, so these are all of them, in order
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._keys)

    def remaining(self) -> int:
        return len(self._keys) - self._cursor

    def dispense(self) -> tuple[int, bytes]:
        if self._cursor >= len(self._keys):
            raise PoolExhaustedError(f"pool {self.source or '<anonymous>'} is empty")
        key_id = self._cursor
        self._cursor += 1
        return key_id, self._keys[key_id]


def ingest_keys(path: str, key_len_bits: int, cost: Fraction = Fraction(1)) -> KeyPool:
    """Load a pool from a text file of hex keys, one per line, no separators.
    The file is opened on the pool's first read, after its checks."""
    return KeyPool(_hex_keys(path, key_len_bits), key_len_bits, cost, source=path)


def _hex_keys(path: str, key_len_bits: int) -> Iterator[bytes]:
    hex_len = key_len_bits // 4
    with open(path, encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if len(line) != hex_len:
                raise ValueError(
                    f"{path}:{lineno}: expected {hex_len} hex digits, got {len(line)}"
                )
            try:
                key = bytes.fromhex(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid hex") from exc
            yield key


def simulate_pool(
    count: int, key_len_bits: int, seed: int, cost: Fraction = Fraction(1)
) -> KeyPool:
    """Deterministic stand-in for a QKD delivery: count keys derived from seed.

    Short keys can repeat (two 8-bit keys are equal one time in 256), and
    KeyPool refuses a pool that holds the same material twice; it draws the
    keys one by one, so it stops drawing at the first repeat."""
    as_u64(seed, "seed")
    keys = (
        bytes(draw64(seed, _P_KEY_MATERIAL, i, j) & 0xFF for j in range(key_len_bits // 8))
        for i in range(as_natural(count))
    )
    return KeyPool(keys, key_len_bits, cost, source=f"simulated(seed={seed})")


class RotationEvent(_Record):
    __slots__ = _fields = ("event_index", "old_key_id", "new_key_id", "at_file_count")

    def __init__(
        self,
        event_index: int,
        old_key_id: int,
        new_key_id: int,
        at_file_count: int,  # files completed when the rotation fired
    ) -> None:
        object.__setattr__(self, "event_index", as_natural(event_index))
        object.__setattr__(self, "old_key_id", as_natural(old_key_id))
        object.__setattr__(self, "new_key_id", as_natural(new_key_id))
        object.__setattr__(self, "at_file_count", as_natural(at_file_count))


class SessionState:
    """Mutable state of one encryption session (single-writer).

    It stores only its inputs, key_ids being the pool positions of the keys
    used so far, the last the current key.  __init__ is the one place the
    session rules are checked; the per-key cap, the files under the current
    key and the event log are derived.  Equality leaves out the pool and the
    current key's schedule, which hold the key material, so a session equals
    its persisted and reloaded (detached) twin.
    """

    # _Record's repr shows _fields, and its equality compares _values
    _fields = ("plan", "toy_block_bits", "rotation_factor", "key_cost", "pool", "key_ids", "total_files")
    _values = attrgetter(*(name for name in _fields if name != "pool"))
    __repr__ = _Record.__repr__
    __eq__ = _Record.__eq__
    __hash__ = None  # mutable

    def __init__(
        self,
        plan: RotationPlan,
        toy_block_bits: int,
        rotation_factor: int,
        key_cost: Fraction,
        pool: KeyPool | None,
        key_ids: list[int],
        total_files: int = 0,
    ) -> None:
        self.plan = plan
        self.toy_block_bits = toy_block_bits
        self.rotation_factor = rotation_factor
        self.key_cost = key_cost
        self.pool = pool
        self.key_ids = list(key_ids)
        self.total_files = total_files
        # the current key's cipher, set by _use_key; None on a detached session
        self._key_schedule: _KeySchedule | None = None

        if _toy_block_bits(self.toy_block_bits) % 8:
            raise ValueError("session cipher block_bits must be a whole number of bytes")
        if as_natural(self.rotation_factor) < 1:
            raise ValueError("rotation_factor must be >= 1")
        cap = self.per_key_cap
        if cap < 1:
            raise ValueError(
                f"rotation_factor {self.rotation_factor} exceeds q_star {self.plan.q_star}; "
                "every key would rotate before its first file"
            )
        if self.plan.block_bits % 8:  # else the persisted plan would not load
            raise ValueError("session files must chunk into whole-byte blocks")
        check_key_cost(self.key_cost)
        if not self.key_ids:
            raise ValueError("key_ids must hold at least the current key")
        # ids are pool positions, so each key hands over to a later one
        for i, (old, new) in enumerate(zip([-1] + self.key_ids, self.key_ids)):
            if as_natural(new) <= old:
                raise ValueError(f"event log entry {i - 1} breaks the key chain")
        # Lazy rotation retires each key after cap files, so the current key
        # holds the rest: at least one file once there is any, at most cap.
        under = self.files_under_current_key
        if (self.total_files or len(self.key_ids) > 1) and not 1 <= under <= cap:
            raise ValueError(
                f"total_files {self.total_files} is not {len(self.key_ids) - 1} rotations of "
                f"{cap} files plus {cap} >= files_under_current_key {under} >= 1"
            )

    def __reduce__(self) -> tuple:
        """copy, deepcopy and pickle rebuild a detached session through
        __init__, with a key chain of its own.  A live session refuses: a
        shallow copy would share the chain with it, a deep copy would be a
        second writer encrypting under the same key and IVs, and a pickle
        would hold the pool's key material."""
        if self.pool is not None or self._key_schedule is not None:
            raise TypeError(
                "a live session holds key material and cannot be copied or pickled; "
                "persist_state and load_state give a detached copy"
            )
        return type(self), tuple(getattr(self, name) for name in self._fields)

    @property
    def per_key_cap(self) -> int:
        return self.plan.q_star // self.rotation_factor

    @property
    def current_key_id(self) -> int:
        return self.key_ids[-1]

    @property
    def keys_consumed(self) -> int:
        return len(self.key_ids)

    @property
    def files_under_current_key(self) -> int:
        return self.total_files - (len(self.key_ids) - 1) * self.per_key_cap

    @property
    def total_key_cost(self) -> Fraction:
        return self.keys_consumed * self.key_cost

    def _event(self, i: int) -> RotationEvent:
        """Rotation i: chain key i hands over to key i+1 once (i+1)*cap files are done."""
        return RotationEvent(i, self.key_ids[i], self.key_ids[i + 1], (i + 1) * self.per_key_cap)

    @property
    def events(self) -> list[RotationEvent]:
        return [self._event(i) for i in range(len(self.key_ids) - 1)]


def open_session(
    pool: KeyPool,
    mode: Mode,
    params: SecurityParams,
    file_size_bytes: int | None = None,
    rotation_factor: int = 1,
    toy_block_bits: int = 16,
    block_bits: int | None = None,
) -> SessionState:
    """Plan, then dispense the first key; counters start at zero.  A session
    that fails its checks is rejected before a key leaves the pool."""
    session = SessionState(
        plan=compute_q_star(mode, params, file_size_bytes, block_bits=block_bits),
        toy_block_bits=toy_block_bits,
        rotation_factor=rotation_factor,
        key_cost=pool.cost,
        pool=pool,
        key_ids=[len(pool) - pool.remaining()],  # the id dispense returns next
    )
    _use_key(session, pool.dispense()[1])
    return session


def _use_key(session: SessionState, material: bytes) -> None:
    """Make material the session's current key, dropping the old key's schedule."""
    session._key_schedule = _KeySchedule(
        material, session.toy_block_bits, session.per_key_cap, session.plan.file_size_bytes
    )


def encrypt_file(session: SessionState, data: bytes) -> tuple[bytes, RotationEvent | None]:
    """Encrypt one file, rotating first if the current key's budget is spent.

    Returns the ciphertext and the rotation event, if one fired.  On pool
    exhaustion nothing is encrypted and counters are unchanged.
    """
    if session.pool is None or session._key_schedule is None:
        raise StateError("detached session has no key material; open a fresh session")
    if len(data) > session.plan.file_size_bytes:
        raise OversizedFileError(
            f"file of {len(data)} bytes exceeds planned size "
            f"{session.plan.file_size_bytes}"
        )
    event = None
    if session.files_under_current_key >= session.per_key_cap:
        key_id, material = session.pool.dispense()  # raises PoolExhaustedError when drained
        session.key_ids.append(key_id)
        _use_key(session, material)
        event = session._event(len(session.key_ids) - 2)

    ciphertext = session._key_schedule.encrypt(session.plan.mode, session.total_files, data)
    session.total_files += 1
    return ciphertext, event


def _replace_file(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it, so path holds
    either its old content or all of text, never a part."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="ascii") as handle:
            handle.write(text)
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def export_events(session: SessionState, path: str) -> None:
    """Write the rotation event log as JSON lines, one event per line."""
    _replace_file(path, "".join(json.dumps(event._asdict(), sort_keys=True) + "\n" for event in session.events))


def _document(session: SessionState) -> dict:
    """The schema-v3 state document of a session, the one place its layout
    is written: persist_state writes it, and load_state compares against it."""
    plan = session.plan
    params = plan.params
    return {
        "version": STATE_VERSION,
        "mode": plan.mode.name,
        "params": {
            "lambda_bits": params.lambda_bits,
            "s_min": str(params.s_min),
            "blocks_per_file": params.blocks_per_file,
            "eps_max": render_rational(params.eps_max),
            "ecbc_denominator": params.ecbc_denominator.name,
        },
        "plan": {
            "q_star": str(plan.q_star),
            "file_size_bytes": plan.file_size_bytes,
            "block_bits": plan.block_bits,
        },
        "cipher": {"block_bits": session.toy_block_bits},
        "rotation_factor": session.rotation_factor,
        "per_key_cap": str(session.per_key_cap),
        "key_cost": render_rational(session.key_cost),
        "current_key_id": session.current_key_id,
        "counters": {
            "total_files": str(session.total_files),
            "files_under_current_key": str(session.files_under_current_key),
        },
        "total_key_cost": render_rational(session.total_key_cost),
        "events": [e._asdict() for e in session.events],
    }


def persist_state(session: SessionState, path: str) -> None:
    """Serialize the session's auditable state (never key material)."""
    _replace_file(path, json.dumps(_document(session), indent=2, sort_keys=True) + "\n")


def _stored_text(value: object) -> str:
    """A number persist_state stores as a string.  json.load also yields
    floats such as Infinity, which int() rejects with OverflowError."""
    if not isinstance(value, str):
        raise TypeError(f"number stored as a string required, got {type(value).__name__}")
    return value


def load_state(path: str) -> SessionState:
    """Rebuild a detached session from a state file.

    The session is built from the stored inputs as open_session builds one:
    compute_q_star on the stored mode, parameters, file size and block width
    (which rejects a size that is not blocks_per_file blocks of that width and
    parameters under which no file fits), then SessionState and its session
    rules on the key chain the event log names.  The file is accepted only if
    it is exactly the document persist_state writes for that session, so a
    stored q_star, per-key cap, counter, cost or rotation event the inputs do
    not give, a number of another type or form
    (2.0, "40.9", " 40 ") and an unknown key all fail.  Raises
    FileNotFoundError for a missing path and StateError for anything else.
    """
    with open(path, encoding="ascii") as handle:
        try:
            document = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError and an over-long number are ValueErrors
            raise StateError(f"{path}: not a JSON document ({exc})") from exc

    try:
        if document["version"] != STATE_VERSION:
            raise StateError(
                f"{path}: schema version {document['version']!r}, expected {STATE_VERSION}"
            )
        raw_params, raw_plan = document["params"], document["plan"]
        params = SecurityParams(
            raw_params["lambda_bits"],
            int(_stored_text(raw_params["s_min"])),
            raw_params["blocks_per_file"],
            parse_rational(_stored_text(raw_params["eps_max"])),
            EcbcDenominator[raw_params["ecbc_denominator"]],
        )
        session = SessionState(
            # InfeasibleTargetError is a ValueError: no file fits the ceiling.
            plan=compute_q_star(
                Mode[document["mode"]], params, raw_plan["file_size_bytes"], raw_plan["block_bits"]
            ),
            toy_block_bits=document["cipher"]["block_bits"],
            rotation_factor=document["rotation_factor"],
            key_cost=parse_rational(_stored_text(document["key_cost"])),
            pool=None,
            # event i retires chain key i, and the current key ends the chain
            key_ids=[e["old_key_id"] for e in document["events"]] + [document["current_key_id"]],
            total_files=int(_stored_text(document["counters"]["total_files"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, StateError):
            raise
        raise StateError(f"{path}: malformed or inconsistent state document ({exc})") from exc

    derived = _document(session)
    if json.dumps(document, sort_keys=True) != json.dumps(derived, sort_keys=True):
        stored, recomputed = (
            {k: json.dumps(v, sort_keys=True) for k, v in doc.items()} for doc in (document, derived)
        )
        key = min(k for k in stored.keys() | recomputed.keys() if stored.get(k) != recomputed.get(k))
        raise StateError(
            f"{path}: malformed or inconsistent state document ({key}: stored "
            f"{stored.get(key, 'absent')}, recomputed {recomputed.get(key, 'absent')} from the "
            "stored inputs, the per-key cap and the event log)"
        )
    return session
