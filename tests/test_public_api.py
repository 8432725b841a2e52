"""The package's public surface: a name joins it only in a reviewed diff."""

from __future__ import annotations

import importlib
import pkgutil

import qkdplan

PUBLIC = [
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


def test_package_exports_exactly_the_public_names():
    assert sorted(qkdplan.__all__) == PUBLIC


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"qkdplan.{m.name}") for m in pkgutil.iter_modules(qkdplan.__path__)]
    assert len(modules) == 6
    for module in [qkdplan, *modules]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
