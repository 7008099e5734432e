"""Every top-level function and class of the package has a caller in
non-test code: no production code that only tests call.

A name counts as referenced where a non-test file loads it (a name or
an attribute) outside the name's own definition, or spells it as a
string constant that is not a docstring (a ``getattr`` by name, as
perfbench's kernel table does). Docstrings, comments and imports do
not count. Names are matched by spelling, not resolved, so a dead
definition whose name some other code also uses can still hide.

The definitions that only tests call are listed in ``SURVIVORS``, each
with the COVERAGE.md capability it covers; the list has to stay exact.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "ocr_pipeline_ray"

SURVIVORS = {
    "ocr_page": "R1: the single fixed-DPI read the cascade starts from "
                "(F14 severity matrix)",
    "route_strategy": "R3 quality-tier strategy, public form of "
                      "pixels._route",
    "tiled_apply": "P9 patch-tiled denoise on one array",
    "_build_font": "P5-P8 raster font generator of the baked glyph table",
    "logmean_confidence": "A2/A3 geomean/logmean",
    "calibrated_confidence": "A5/A6 calibrated blends",
    "word_hit_rate": "F14 accuracy metrics",
    "field_exact_match": "F14 accuracy metrics",
    "write_payloads": "S6 JSON payload writer (JSONL sink)",
}


def _non_test_files() -> list[Path]:
    out = []
    for p in sorted(REPO.rglob("*.py")):
        dirs = p.relative_to(REPO).parts[:-1]
        if not any(d == "tests" or d.startswith(".") or d == "__pycache__"
                   for d in dirs):
            out.append(p)
    return out


def _references(tree: ast.Module) -> dict[str, list[int]]:
    """Name → line numbers where the code refers to it."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(id(first.value))
    refs: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings and node.value.isidentifier():
            name = node.value
        else:
            continue
        refs.setdefault(name, []).append(node.lineno)
    return refs


def _unreferenced() -> set[str]:
    """Top-level package definitions with no non-test reference."""
    refs = {p: _references(ast.parse(p.read_text()))
            for p in _non_test_files()}
    dead = set()
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            lo, hi = node.lineno, node.end_lineno
            if not any(not (p == path and lo <= line <= hi)
                       for p, r in refs.items()
                       for line in r.get(node.name, ())):
                dead.add(node.name)
    return dead


def test_every_package_definition_has_a_non_test_caller():
    dead = _unreferenced() - set(SURVIVORS)
    assert not dead, (f"defined in ocr_pipeline_ray/ but called only from "
                      f"tests, or not at all: {sorted(dead)}")


def test_survivor_list_is_exact():
    """Each survivor still has no non-test caller (else it leaves the
    list) and COVERAGE.md names it."""
    assert set(SURVIVORS) <= _unreferenced()
    coverage = (REPO / "COVERAGE.md").read_text()
    assert [n for n in SURVIVORS
            if not re.search(rf"(?<!\w){n}(?!\w)", coverage)] == []
