"""Frozen ciphertext digests of the toy cipher and of rotation sessions.

The digests were computed before the scalar Feistel moved to per-key round
tables and must not change: a cipher rewrite that alters one output byte,
one rotation event or one byte of a state file fails here.  The benchmark's
ciphertext check reads only lengths and keystream distinctness, so it would
not notice.  The sessions whose round tables fill whole, once a key's file
budget covers them, were pinned while every table still filled lazily.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from qkdplan.advmodel import Mode, SecurityParams
from qkdplan.empirics import ToyCipherParams, cbc_encrypt, ctr_encrypt, ecbc_mac, toy_prp
from qkdplan.planner import compute_q_star
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

# SHA-256 over the ciphertexts and the event log, which no change to the
# state file may alter
PAYLOAD_DIGESTS = {
    (Mode.CTR, 8): "91ca4878a02f98ed1b68048904a417743a298c452bc967eb673f0615ff58d886",
    (Mode.CTR, 16): "b01b8d2625252ae7a88101a51cf21c0a2fb9812303e6a6cd0ff6661f1760fae8",
    (Mode.CTR, 24): "7fd2624b964d989ed564802be43033e08af7a21c996664e071aab3db30538a41",
    (Mode.CBC, 8): "5dcd673282fb723a852e39ebe4914498df220c6d99904951fd1ebb8979c858ba",
    (Mode.CBC, 16): "0294ffa95dd8c8053ea758710276ec3088f4b5ca1d06071de4070b5937aeddc2",
    (Mode.CBC, 24): "1700c4ef8e45dbe41b902222a2002845abb17665b7799a312a506e992c0e09b1",
    (Mode.ECBC_MAC, 8): "2f5896fbfbcc8e0f4e8cc4cad9dfc7b62501d6e4a79ec063f623fd0cf93eeb69",
    (Mode.ECBC_MAC, 16): "35a1b405737dc5c45ae727da7dfa6c16b136fef6d341300700719b2c2034dd12",
    (Mode.ECBC_MAC, 24): "c0954e12380fa33f0f841b787bdeadb491d821a3ce0518311dbe903c12246706",
}

# SHA-256 over the state file
STATE_DIGESTS = {
    (Mode.CTR, 8): "9fb41f63b18a7d797103be7da461275769d43775004ee7cc2741cd44206a59b5",
    (Mode.CTR, 16): "74cffb98bbc2f69746a49a769bd8f57f7824b2156657d19fa102d9ec4af9c645",
    (Mode.CTR, 24): "fd6576824c52dbb4e7a1724496b67e54ce8f762666ee1d1887f38bce0b90feed",
    (Mode.CBC, 8): "9994c518756d18a35e0c6a082781201ee6f3207d8984681c7aaee69ae79f942b",
    (Mode.CBC, 16): "a65802b2b28780f3373031d39d6d5c1337b9efb763d5d75cffbb0ab85a079940",
    (Mode.CBC, 24): "685bc3ebfcf3ecfbbb230de110a86fd23f9c94ea4461b9f546924400bdccb1b7",
    (Mode.ECBC_MAC, 8): "b2803ee00952746f16e53fcd35f2cdaba08805c1585a6b1f9f0948747791a359",
    (Mode.ECBC_MAC, 16): "a14b6d2a98d787ce0a411cd73e8745567495492ba39bfc6c6e8d3859d2e5f552",
    (Mode.ECBC_MAC, 24): "24d688f3946b7d2f4d320a4d2a3d0cc6a1661cbc90748e0126b9e02314780175",
}


# Sessions whose per-key budget, per_key_cap * ceil(64 / (width // 8)) blocks,
# reaches the 2**(width // 2) entries of a round table: at width 16 the
# ECBC-MAC cap also reaches them, and every manifest spans three keys.  The
# rotation factors give caps 12, 12 and 339 at width 16 and 240, 255 and 254
# at width 24.
FILL_PARAMS = SecurityParams.from_bits(36, 30, 32, target_bits=7)  # q_star 2880, 511, 1019
FILL_FACTORS = {
    (Mode.CTR, 16): 240,
    (Mode.CTR, 24): 12,
    (Mode.CBC, 16): 42,
    (Mode.CBC, 24): 2,
    (Mode.ECBC_MAC, 16): 3,
    (Mode.ECBC_MAC, 24): 4,
}

# SHA-256 over the ciphertexts and the event log of those sessions
FILL_PAYLOAD_DIGESTS = {
    (Mode.CTR, 16): "292ffdb87e8d208f74bc7449345b33db9129a5d5fb29556f59ebfa65abb66fba",
    (Mode.CTR, 24): "79dcb5ab917012d7cad9808b3dd49317dab6b608ddf41746711d24a35677d93d",
    (Mode.CBC, 16): "b7fb0ecd13992b3726711aef765acabc99cf94c1d412bd4abf6bb3e7a4a66e3a",
    (Mode.CBC, 24): "bd81286ac039ac1506d07d8646412f67730a4389f94e38b3a0a5f36184546883",
    (Mode.ECBC_MAC, 16): "2e9dec56c8520685b1cdf951326f91e5b91996411a51c181b76d9e0d56d1076a",
    (Mode.ECBC_MAC, 24): "db5aeed88da61953886e431151026e8a9674255c6d033e3e79c857aee35bdc35",
}


def _session_bytes(
    mode: Mode, width: int, tmp_path, params=SESSION_PARAMS, file_size=8, rotation_factor=1, files=None
) -> tuple[bytes, bytes]:
    rng = random.Random(f"{mode.name}/{width}")
    session = open_session(
        simulate_pool(8, 128, width), mode, params, file_size, rotation_factor, width, block_bits=16
    )
    manifest = MANIFEST if files is None else [rng.randrange(file_size + 1) for _ in range(files)]
    out = []
    for size in manifest:
        ciphertext, _ = encrypt_file(session, rng.randbytes(size))
        out.append(len(ciphertext).to_bytes(2, "big") + ciphertext)
    assert len(session.events) >= (3 if files is None else 2)
    events, state = tmp_path / "events.jsonl", tmp_path / "state.json"
    export_events(session, str(events))
    persist_state(session, str(state))
    return b"".join(out) + events.read_bytes(), state.read_bytes()


def _by_mode_and_width(digests: dict) -> list:
    return sorted(digests, key=lambda mw: (mw[0].name, mw[1]))


@pytest.mark.parametrize(("mode", "width"), _by_mode_and_width(PAYLOAD_DIGESTS))
def test_session_outputs_are_frozen(mode, width, tmp_path):
    payload, state = (hashlib.sha256(part).hexdigest() for part in _session_bytes(mode, width, tmp_path))
    assert payload == PAYLOAD_DIGESTS[(mode, width)]
    assert state == STATE_DIGESTS[(mode, width)]


@pytest.mark.parametrize(("mode", "width"), _by_mode_and_width(FILL_FACTORS))
def test_filled_session_outputs_are_frozen(mode, width, tmp_path):
    factor = FILL_FACTORS[(mode, width)]
    cap = compute_q_star(mode, FILL_PARAMS, 64, block_bits=16).q_star // factor
    assert cap * -(-64 // (width // 8)) >= 1 << width // 2
    payload, _ = _session_bytes(mode, width, tmp_path, FILL_PARAMS, 64, factor, files=2 * cap + 1)
    assert hashlib.sha256(payload).hexdigest() == FILL_PAYLOAD_DIGESTS[(mode, width)]
