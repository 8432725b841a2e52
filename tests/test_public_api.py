"""The package's public surface: a name joins it only in a reviewed diff."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import qkdplan
from qkdplan.exactmath import _Record

PUBLIC = [
    "EcbcDenominator",
    "EmpiricalResult",
    "FixedDecimal",
    "ImprovementReport",
    "InfeasibleTargetError",
    "KeyPool",
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


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from qkdplan import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(qkdplan))
    assert namespace["Mode"] is importlib.import_module("qkdplan.advmodel").Mode
    assert not hasattr(qkdplan, "no_such_name")


def test_every_exported_name_resolves():
    modules = [m.name for m in pkgutil.iter_modules(qkdplan.__path__)]
    assert len(modules) == 6
    for module_name, names in qkdplan._EXPORTS.items():
        module = importlib.import_module(f"qkdplan.{module_name}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"qkdplan._EXPORTS names {missing}, which {module.__name__} does not define"


def test_every_benchmark_span_names_a_package_function():
    # the benchmark's traced runs wrap these by name; read without importing bench
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "spans.py").read_text(encoding="utf-8"))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED"
    )
    missing = [
        f"qkdplan.{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qkdplan.{module}"), name, None))
    ]
    assert wrapped
    assert missing == []


# each exported record's stored fields, in constructor order
RECORD_FIELDS = {
    "EmpiricalResult": ("theoretical_bound", "trials", "collisions"),
    "FixedDecimal": ("scaled", "digits"),
    "ImprovementReport": ("k", "delta_bits"),
    "RotationEvent": ("event_index", "old_key_id", "new_key_id", "at_file_count"),
    "RotationPlan": ("mode", "params", "q_star", "file_size_bytes", "block_bits"),
    "SecurityParams": ("lambda_bits", "s_min", "blocks_per_file", "eps_max", "ecbc_denominator"),
    "SweepRow": ("k", "delta_bits", "benefit"),
    "ToyCipherParams": ("block_bits", "key_seed"),
    "TrialConfig": ("mode", "block_bits", "q_files", "blocks_per_file", "trials", "rng_seed"),
}


def test_record_fields_are_the_constructor_parameters_in_order():
    # pickle and copy rebuild a record positionally from _fields
    for module in pkgutil.iter_modules(qkdplan.__path__):
        importlib.import_module(f"qkdplan.{module.name}")
    found, pending = [], [_Record]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found += subclasses
        pending += subclasses
    records = [record for record in found if record.__module__.startswith("qkdplan.")]
    assert {record.__name__ for record in records} == set(RECORD_FIELDS)
    for record in records:
        parameters = tuple(inspect.signature(record.__init__).parameters)[1:]
        assert parameters == record._fields, record.__qualname__
    exported = {name: getattr(qkdplan, name)._fields for name in PUBLIC if getattr(qkdplan, name) in records}
    assert exported == RECORD_FIELDS


def _package_trees():
    for path in sorted(Path(qkdplan.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_package_lists_the_public_surface():
    # a module-level __all__ would be a second list of public names to keep in step with _EXPORTS
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert found == []


def test_every_draw_names_its_purpose():
    # streams never alias: each purpose is a distinct named constant in empirics' table
    empirics_tree = dict(_package_trees())["empirics.py"]
    purposes = {
        node.targets[0].id: node.value.value
        for node in empirics_tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").startswith("_P_")
    }
    assert len(set(purposes.values())) == len(purposes) >= 5
    bad = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("draw64", "_stream_bases"):
                purpose = node.args[1]
                if not (isinstance(purpose, ast.Name) and purpose.id in purposes):
                    bad.append(f"{name}:{node.lineno}")
    assert bad == []
