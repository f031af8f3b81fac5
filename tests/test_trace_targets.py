"""The benchmark's traced run wraps functions by module attribute path;
a rename in the package must fail here, not only in ``--trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    # tracing.py imports only the standard library; load it without
    # writing a bytecode cache next to it
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def test_every_trace_target_resolves_in_src():
    package = importlib.import_module("paraprompt")
    assert ROOT / "src" in Path(package.__file__).resolve().parents
    missing = []
    for module_name, attr_path, span in _load_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}:{attr_path} (span {span})")
    assert not missing, missing
