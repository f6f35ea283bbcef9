"""No production module writes the process environment.

Configuration travels as explicit values -- the engine tier and the
trace-cache root ride a :class:`repro.sim.runner.RunContext` -- and
``os.environ`` is only read, at the CLI or serve boundary.  The one
exemption is the test-support package ``repro.testing``, whose serve
fuzz lane hands fault markers to spawned workers through the
environment.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXEMPT = SRC / "testing"

#: Mapping methods that mutate ``os.environ`` in place.
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ``, or a bare ``environ`` imported from os."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "environ" and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return isinstance(node, ast.Name) and node.id == "environ"


def _targets(node: ast.AST) -> Iterator[ast.AST]:
    """Assignment/deletion targets, unpacking tuple and list targets."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def env_writes(source: str) -> List[int]:
    """Line numbers of every environment write in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in (t for top in targets for t in _targets(top)):
            if isinstance(target, ast.Subscript) \
                    and _is_environ(target.value):
                lines.append(node.lineno)
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in MUTATORS and _is_environ(func.value):
                lines.append(node.lineno)
            if (func.attr == "putenv" and isinstance(func.value, ast.Name)
                    and func.value.id == "os"):
                lines.append(node.lineno)
    return sorted(lines)


def _production_modules() -> List[Path]:
    return sorted(path for path in SRC.rglob("*.py")
                  if EXEMPT not in path.parents)


def test_production_modules_never_write_the_environment():
    modules = _production_modules()
    assert len(modules) > 50, "source tree not found"
    offenders = {
        str(path.relative_to(SRC.parent)): lines
        for path in modules
        if (lines := env_writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


@pytest.mark.parametrize("snippet", [
    'os.environ["REPRO_ENGINE"] = "object"',
    'os.environ["A"], x = "1", 2',
    'os.environ["A"] += "x"',
    'del os.environ["REPRO_ENGINE"]',
    'os.environ.update(REPRO_ENGINE="object")',
    'os.environ.setdefault("REPRO_ENGINE", "object")',
    'os.environ.pop("REPRO_ENGINE", None)',
    'os.environ.clear()',
    'os.putenv("REPRO_ENGINE", "object")',
    'environ["REPRO_ENGINE"] = "object"',
])
def test_detector_catches_every_write_form(snippet):
    assert env_writes(snippet) == [1]


@pytest.mark.parametrize("snippet", [
    'x = os.environ.get("REPRO_ENGINE")',
    'x = os.environ["REPRO_ENGINE"]',
    'env = dict(os.environ); env["REPRO_ENGINE"] = "object"',
    'collect = {k: v for k, v in os.environ.items()}',
])
def test_detector_ignores_reads(snippet):
    assert env_writes(snippet) == []
