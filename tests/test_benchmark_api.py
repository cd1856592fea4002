"""The benchmark under perfbench/ drives lndkit through its public API
and patches named functions when it traces.  These tests load its
workload and tracer modules read-only and check that everything they
use of lndkit still resolves and still gives checked outputs: a field
turned into a property, or a renamed function, fails here first.
"""

import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

import lndkit
import lndkit.cli  # noqa: F401  (kernel-rounds calls lndkit.cli.run)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Import perfbench/<name>.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _run_checks(name: str, seed: int) -> list:
    workload = _load("workloads").WORKLOADS[name]
    pinned = json.loads((BENCH / "data" / "pinned.json").read_text(encoding="utf-8"))
    state = workload.setup(lndkit, seed, pinned)
    outputs, _ = workload.run(lndkit, state)
    return workload.check(lndkit, state, outputs, pinned)


@pytest.mark.parametrize("name", ["kernel-rounds", "orbits", "relations-r4"])
def test_workload_checks_pass_at_seed_zero(name):
    checks = _run_checks(name, 0)
    assert checks
    assert [(n, detail) for n, ok, detail in checks if not ok] == []


def test_kernel_rounds_checks_pass_at_seed_three():
    # a nonzero seed rescales the variables of D, so kernel-rounds runs a
    # different derivation against the same pinned outputs
    checks = _run_checks("kernel-rounds", 3)
    assert checks
    assert [(n, detail) for n, ok, detail in checks if not ok] == []


def test_tracer_targets_resolve():
    # the lookups Tracer.install makes, without patching anything
    for module_name, path, _ in _load("tracer").TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"
