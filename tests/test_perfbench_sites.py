"""Every name the benchmark harness reaches into the package under must exist.

``perfbench/tracing.py`` skips a patch site that no longer resolves, so a
renamed function would silently zero its per-layer metric. These tests
only read ``perfbench/``.
"""
import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass creation looks the defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _package_references(path: Path) -> tuple[set[str], list[str]]:
    """``module.attr`` names a file uses from hhlsim, and those that do not resolve."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, types.ModuleType] = {}
    used: set[str] = set()
    missing: list[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hhlsim")):
            continue
        for a in node.names:
            try:
                target = importlib.import_module(f"{node.module}.{a.name}")
            except ImportError:
                target = getattr(importlib.import_module(node.module), a.name, None)
            if isinstance(target, types.ModuleType):
                aliases[a.asname or a.name] = target
            elif target is None:
                missing.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            module = aliases[node.value.id]
            name = f"{module.__name__.removeprefix('hhlsim.')}.{node.attr}"
            used.add(name)
            if not hasattr(module, node.attr):
                missing.append(name)
    return used, missing


def test_tracer_patch_sites_resolve():
    tracing = _load_tracing()
    assert len(tracing.PATCHES) > 0
    missing = [
        f"{module.__name__}.{attr}"
        for _, sites, _ in tracing.PATCHES
        for module, attr in sites
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_harness_references_resolve():
    for name, expected in (
        ("tracing.py", {"circuit.run"}),
        ("workloads.py", {"circuit.post_select_dm", "hhl.pipeline_circuit", "circuit.run"}),
    ):
        used, missing = _package_references(PERFBENCH / name)
        assert expected <= used, name
        assert missing == [], name
