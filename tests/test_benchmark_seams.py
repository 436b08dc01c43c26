"""Every name the benchmark in perfbench/ imports, binds or rebinds resolves.

The benchmark imports the program by module and name, and its tracer
rebinds module globals and methods by name (`perfbench/trace.py`'s
`_WRAPPED`). A simplification that drops one of these names breaks the
benchmark, so tier-1 checks them here. A name leaves the program and the
benchmark together.
"""

import ast
import inspect
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # `pytest` alone puts only tests/ on the path
    sys.path.insert(0, str(ROOT))

import proxycam.audit.attack as attack
from perfbench.trace import _WRAPPED
from proxycam.runner import run_edge

# names the benchmark reaches as attributes at run time, not by import
REACHED = [
    ("proxycam.audit.attack", "process_frame"),  # the calibrated clock samples on it
    ("proxycam.audit.independence", "erase"),  # the audit round passes it as erase_fn
    ("proxycam.edge.pipeline", "erase"),  # the self-tests substitute a leaky scrubber
]


def benchmark_imports() -> set[tuple[str, str | None]]:
    """(module, name) of every proxycam import in perfbench/, with name
    None for a plain `import proxycam.x`."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("proxycam"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None) for alias in node.names if alias.name.startswith("proxycam")
                )
    return found


def missing(pairs) -> list:
    absent = []
    for owner, attr in pairs:
        try:
            owner = import_module(owner) if isinstance(owner, str) else owner
        except ImportError:
            absent.append((owner, attr))
            continue
        if attr is not None and not hasattr(owner, attr):
            absent.append((owner, attr))
    return absent


def test_every_traced_name_resolves():
    assert missing((owner, attr) for owner, attr, _ in _WRAPPED) == []


def test_every_benchmark_import_resolves():
    imports = benchmark_imports()
    named = {
        ("proxycam.audit", name)
        for name in ("build_gallery", "identity_attack", "mask_independence_audit",
                     "pixel_leak_scan")
    } | {("proxycam.transport.reorder", "OverflowEvent")}
    assert named <= imports
    assert missing(sorted(imports, key=str)) == []
    assert missing(REACHED) == []


def test_run_edge_keeps_the_benchmark_keywords():
    params = inspect.signature(run_edge).parameters
    assert {"collect_outputs", "pregenerated"} <= set(params)


def test_the_attack_calls_process_frame_through_its_module_name(monkeypatch):
    calls = []
    original = attack.process_frame

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(attack, "process_frame", counting)
    attack.identity_attack(attack.build_gallery(2), probe_scenes=1, seed=0, enroll_per_actor=1)
    assert len(calls) == 3 * attack.FRAMES_PER_SCENE
