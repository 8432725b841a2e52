"""Exact rotation-interval planning for QKD-keyed symmetric encryption.

How many files may one quantum-delivered key encrypt before the adversary's
advantage crosses a target threshold, and what does rotating across k keys
buy?  The planning math here is exact (arbitrary-precision integers and
rationals end to end); a scaled-down Monte Carlo layer validates the
birthday-style collision terms empirically, and a key lifecycle engine turns
plans into auditable rotation schedules.
"""

from .advmodel import (
    EcbcDenominator,
    Mode,
    SecurityParams,
    bound_at,
)
from .empirics import (
    EmpiricalResult,
    ToyCipherParams,
    TrialConfig,
    cbc_encrypt,
    ctr_encrypt,
    ecbc_mac,
    estimate_collision_probability,
    toy_prp,
)
from .exactmath import (
    DegenerateBoundError,
    FixedDecimal,
    log2_rational,
    max_q_quadratic,
)
from .planner import (
    ImprovementReport,
    InfeasibleTargetError,
    RotationPlan,
    SweepRow,
    benefit,
    blocks_per_file,
    compute_q_star,
    improvement_bits,
    sweep_k,
    volume_kb,
    volume_mb,
)
from .rotation import (
    KeyPool,
    KeyRecord,
    OversizedFileError,
    PoolExhaustedError,
    RotationEvent,
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

__version__ = "0.1.0"

__all__ = [
    "DegenerateBoundError",
    "EcbcDenominator",
    "EmpiricalResult",
    "FixedDecimal",
    "ImprovementReport",
    "InfeasibleTargetError",
    "KeyPool",
    "KeyRecord",
    "Mode",
    "OversizedFileError",
    "PoolExhaustedError",
    "RotationEvent",
    "RotationPlan",
    "SecurityParams",
    "SessionState",
    "StateError",
    "SweepRow",
    "ToyCipherParams",
    "TrialConfig",
    "benefit",
    "blocks_per_file",
    "bound_at",
    "cbc_encrypt",
    "compute_q_star",
    "ctr_encrypt",
    "ecbc_mac",
    "encrypt_file",
    "estimate_collision_probability",
    "export_events",
    "improvement_bits",
    "ingest_keys",
    "load_state",
    "log2_rational",
    "max_q_quadratic",
    "open_session",
    "persist_state",
    "simulate_pool",
    "sweep_k",
    "toy_prp",
    "volume_kb",
    "volume_mb",
]
