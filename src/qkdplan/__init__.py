"""Exact rotation-interval planning for QKD-keyed symmetric encryption.

How many files may one quantum-delivered key encrypt before the adversary's
advantage crosses a target threshold, and what does rotating across k keys
buy?  The planning math here is exact (arbitrary-precision integers and
rationals end to end); a scaled-down Monte Carlo layer validates the
birthday-style collision terms empirically, and a key lifecycle engine turns
plans into auditable rotation schedules.

Each public name is imported from its module on first access (PEP 562), so
planning never loads the Monte Carlo or rotation modules.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "advmodel": ("EcbcDenominator", "Mode", "SecurityParams", "bound_at"),
    "empirics": (
        "EmpiricalResult", "ToyCipherParams", "TrialConfig", "cbc_encrypt", "ctr_encrypt",
        "ecbc_mac", "estimate_collision_probability", "toy_prp",
    ),
    "exactmath": ("FixedDecimal", "log2_rational", "max_q_quadratic"),
    "planner": (
        "ImprovementReport", "InfeasibleTargetError", "RotationPlan", "SweepRow", "benefit",
        "blocks_per_file", "compute_q_star", "improvement_bits", "sweep_k", "volume_kb", "volume_mb",
    ),
    "rotation": (
        "KeyPool", "OversizedFileError", "PoolExhaustedError", "RotationEvent",
        "SessionState", "StateError", "encrypt_file", "export_events", "ingest_keys", "load_state",
        "open_session", "persist_state", "simulate_pool",
    ),
}  # fmt: skip

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
