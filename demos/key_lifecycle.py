"""A full key lifecycle: dispense, encrypt, rotate on schedule, checkpoint, reload.

Uses a deliberately tiny setting (16-bit toy blocks, 3 files per key) so the
rotation machinery is exercised end to end in a fraction of a second: keys are
drawn from a simulated pool, every rotation is logged, and the session state
survives a JSON round trip with its accounting intact.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from qkdplan import (
    Mode,
    PoolExhaustedError,
    SecurityParams,
    encrypt_file,
    load_state,
    open_session,
    persist_state,
    simulate_pool,
)

params = SecurityParams.from_bits(16, 14, 4, target_bits=9)
pool = simulate_pool(4, 128, seed=2024)
session = open_session(pool, Mode.CTR, params, block_bits=16)
print(f"plan: {session.plan.q_star} files per key, cap {session.per_key_cap}, pool of 4 keys")

rng = random.Random(5)
for index in range(10):
    data = rng.randbytes(rng.randrange(1, 9))
    blob, event = encrypt_file(session, data)
    note = f"  <- rotated {event.old_key_id}->{event.new_key_id}" if event else ""
    print(
        f"file {index}: {len(data)} plaintext bytes -> {len(blob)} ciphertext bytes, "
        f"key #{session.current_key_id}{note}"
    )

print(f"rotations so far: {[(e.old_key_id, e.new_key_id) for e in session.events]}")
print(f"keys consumed: {session.keys_consumed}, total cost {session.total_key_cost}")

# Checkpoint, reload, and confirm the books still balance.
with tempfile.TemporaryDirectory() as checkpoint_dir:
    state_path = Path(checkpoint_dir) / "session.json"
    persist_state(session, state_path)
    reloaded = load_state(state_path)
print(f"state round trip ok: {reloaded == session}")

# Two more files fit under the last key; the twelfth needs a fifth key the
# pool does not have, and the failure leaves the counters untouched.
encrypt_file(session, b"11th")
encrypt_file(session, b"12th")
try:
    encrypt_file(session, b"13th")
except PoolExhaustedError as exc:
    print(f"pool exhausted as planned: {exc}")
print(f"final count: {session.total_files} files under {session.keys_consumed} keys")
