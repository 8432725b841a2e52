"""Frozen ciphertext digests of the toy cipher and of rotation sessions.

The digests were computed before the scalar Feistel moved to per-key round
tables and must not change: a cipher rewrite that alters one output byte,
one rotation event or one byte of a state file fails here.  The benchmark's
ciphertext check reads only lengths and keystream distinctness, so it would
not notice.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from qkdplan.advmodel import Mode, SecurityParams
from qkdplan.empirics import ToyCipherParams, cbc_encrypt, ctr_encrypt, ecbc_mac, toy_prp
from qkdplan.rotation import encrypt_file, export_events, open_session, persist_state, simulate_pool

WIDTHS = range(8, 25)

# SHA-256 over "width:output" lines for every width in [8, 24]
PUBLIC_DIGESTS = {
    "toy_prp": "d14259b7a30d6edc397bd1685e38f780e584b07c70accbada9a98df5f3f7daf3",
    "ctr_encrypt": "7d892b5fbdcfb6989052993e35c4d21b0672b0133fb15b9bbdeb108f043ff5f3",
    "cbc_encrypt": "e324ff576cbf0702e197ed3d7307bcc671032b1f179de29c0f6afde38202dea2",
    "ecbc_mac": "b59c5f1e861091989c4f903853b191be24a8431ad2f0fb8f22ca8cf110de4d97",
}


def _public_outputs(name: str, width: int) -> object:
    rng = random.Random(f"{name}/{width}")
    top = (1 << width) - 1
    blocks = [0, top, 1, top - 1] + [rng.randrange(1 << width) for _ in range(60)]
    key, key2, iv = rng.getrandbits(64), rng.getrandbits(64), rng.randrange(1 << width)
    params = ToyCipherParams(width, key_seed=key)
    if name == "toy_prp":
        return [toy_prp(params, b) for b in blocks]
    if name == "ctr_encrypt":
        return [ctr_encrypt(params, key, top - 2, blocks), ctr_encrypt(params, key2, iv, blocks)]
    if name == "cbc_encrypt":
        return [cbc_encrypt(params, key, 0, blocks), cbc_encrypt(params, key2, iv, blocks)]
    return [ecbc_mac(params, key, key2, blocks[:n]) for n in (1, 2, 3, 17, 64)]


@pytest.mark.parametrize("name", sorted(PUBLIC_DIGESTS))
def test_public_cipher_outputs_are_frozen(name):
    text = "".join(f"{w}:{_public_outputs(name, w)}\n" for w in WIDTHS)
    assert hashlib.sha256(text.encode()).hexdigest() == PUBLIC_DIGESTS[name]


# q_star = 4, 2 and 3 files of 8 bytes per key for CTR, CBC and ECBC-MAC, so
# the 14-file manifest takes 4, 7 and 5 keys
SESSION_PARAMS = SecurityParams.from_bits(16, 14, 4, target_bits=8)
MANIFEST = [0, 1, 8, 5, 2, 8, 7, 3, 8, 4, 6, 8, 1, 8]

# SHA-256 over the ciphertexts, the event log and the state file
SESSION_DIGESTS = {
    (Mode.CTR, 8): "d3441eaae241e223a00fc70e33f3dea28701e11d736d7cf4d26c3cd2802c9405",
    (Mode.CTR, 16): "06b583ea1f00693cf7787d53475cb6ed7a47924ccd7908300ab7a8b6b5894c2b",
    (Mode.CTR, 24): "e173dd98c6b13f102644bfb3b2cb7759730ffecb29f9d44cc550515430b6c7fd",
    (Mode.CBC, 8): "498d5f101f8d104bfcf2f9a16e65275490838cce09e3e4d532551777baaccfd0",
    (Mode.CBC, 16): "216b7d96e1da32cd75eb418b29c94e55e9a3e38a2415ebc41e8f2c25719bdddb",
    (Mode.CBC, 24): "71a15a747921e8f43cf29f0c204bf3d3efbc478829b4e08cd00c32bb3652e61b",
    (Mode.ECBC_MAC, 8): "82ea73630d69ffcaa663c42c1e059e04e48028841a75b5f160ebb2dd610797a7",
    (Mode.ECBC_MAC, 16): "9fdf074622f12c3205c5635ccdd7ed80ff6fdb2246d2e5ee2a43a749203f4aa0",
    (Mode.ECBC_MAC, 24): "82bff8611b0cb1806203b82b4d8d833facc916fa53fe2d9f4dd13af5194188bf",
}


def _session_bytes(mode: Mode, width: int, tmp_path) -> bytes:
    rng = random.Random(f"{mode.name}/{width}")
    session = open_session(
        simulate_pool(8, 128, width), mode, SESSION_PARAMS, 8, cipher=ToyCipherParams(width, key_seed=0)
    )
    out = []
    for size in MANIFEST:
        ciphertext, _ = encrypt_file(session, rng.randbytes(size))
        out.append(len(ciphertext).to_bytes(2, "big") + ciphertext)
    assert len(session.events) >= 3
    events, state = tmp_path / "events.jsonl", tmp_path / "state.json"
    export_events(session, str(events))
    persist_state(session, str(state))
    return b"".join(out) + events.read_bytes() + state.read_bytes()


@pytest.mark.parametrize(("mode", "width"), sorted(SESSION_DIGESTS, key=lambda mw: (mw[0].name, mw[1])))
def test_session_outputs_are_frozen(mode, width, tmp_path):
    digest = hashlib.sha256(_session_bytes(mode, width, tmp_path)).hexdigest()
    assert digest == SESSION_DIGESTS[(mode, width)]
