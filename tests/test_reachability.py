"""Every top-level function and class of the package has a caller in
non-test code (no production code that only tests call), and every
defaulted parameter of them has a non-test caller that sets it (no
option that only one value ever uses).

A name counts as referenced where a non-test file loads it (a name or
an attribute) outside the name's own definition, or spells it as a
string constant that is not a docstring (a ``getattr`` by name, as
perfbench's kernel table does). Docstrings, comments and imports do
not count. Names are matched by spelling, not resolved, so a dead
definition whose name some other code also uses can still hide.

The definitions that only tests call are listed in ``SURVIVORS``, each
with the COVERAGE.md capability it covers; the list has to stay exact.
It is empty: code that only tests use (a reference, a grader) lives
under tests/.

A call sets a parameter when it names the callee (a function, a method,
or a class for its ``__init__``; ``X.remote(...)`` calls ``X``) and
passes the parameter by keyword, passes a positional argument at its
index (``self`` / ``cls`` not counted), passes a ``*args`` that starts
at or before that index, or passes ``**kwargs``. As with definitions,
names are matched by spelling. A ``SURVIVORS`` def exists for its tests,
so a test call sets its parameters too. The defaults that only tests
set are listed in ``SEAMS``, each with the test that sets it and what
that checks; that list has to stay exact as well.

State that outlives a task in a worker process (a name a package
function rebinds with ``global``) is listed in ``PROCESS_STATE`` with
its reason; that list has to stay exact too, and no package code sets
an attribute on a package function or class. Every hash join goes
through ``stages/agg.hash_join``, every driver merge of per-batch
partials through ``stages/agg.partial_merge``, and the doc-local
chain's modules never convert to or from pandas.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "ocr_pipeline_ray"

SURVIVORS: dict[str, str] = {}

# (callee, parameter) -> (the test that sets it, what the value checks)
SEAMS = {
    ("read_lines", "max_err"): (
        "tests/test_kernel_differential.py::"
        "test_read_lines_equals_reference_on_corpus",
        "the reader equals the frozen one at another reject margin too"),
    ("read_lines", "physical"): (
        "tests/test_kernel_differential.py::"
        "test_read_lines_equals_reference_on_logical_masks",
        "the logical-mask read that restore_and_read takes"),
    ("degrade_noise", "sigma"): (
        "tests/test_raster_flagship.py::"
        "test_page_unreadable_at_the_pass_bound_is_low_conf",
        "a page too noisy for the bilateral pass bound reads low_conf"),
    ("restore_and_read", "strategy"): (
        "tests/test_pixels.py::test_mismatched_kernels_do_not_restore",
        "a forced wrong kernel does not restore, so the route matters"),
    ("embedding_near_dup_pairs", "n_cells"): (
        "tests/test_similarity.py::"
        "test_near_dup_skewed_cell_split_and_mirror",
        "a tmp corpus sized to split cells, against brute force"),
    ("embedding_near_dup_pairs", "train_sample"): (
        "tests/test_similarity.py::"
        "test_near_dup_skewed_cell_split_and_mirror",
        "a tmp corpus sized to split cells, against brute force"),
    ("embedding_near_dup_pairs", "cell_cap"): (
        "tests/test_similarity.py::"
        "test_near_dup_skewed_cell_split_and_mirror",
        "a tmp corpus sized to split cells, against brute force"),
    ("degradation_bank", "sample_n"): (
        "tests/test_stages_extra.py::test_bank_profile_geometry_recovered",
        "a test-sized page sample"),
    ("tensorize_profile", "sample_n"): (
        "tests/test_tensorize.py::test_profile_rows_over_corpus",
        "a test-sized page sample"),
    ("pixel_restore_bank", "sample_n"): (
        "tests/test_pixels.py::test_pixel_restore_bank_profile",
        "a test-sized page sample"),
    ("_propagate_components", "max_rounds"): (
        "tests/test_dedup.py::"
        "test_unconverged_raises_instead_of_silent_partial",
        "an exhausted round budget raises, never returns partial labels"),
}

# "<module path under the package>:<name>" -> why the name is state that
# outlives a task in its worker process (an ``ast.Global`` binds it)
PROCESS_STATE = {
    "pipelines/dedup.py:_cand": (
        "one candidate id set per worker process, assembled from block "
        "refs once and reused by every later scan task there; a "
        "left_semi join in its place matched the oracle but made "
        "near_dup_pairs_minhash at sf0.01 slower (2.75-3.43 s -> "
        "3.35-5.08 s, 3 runs each, 4 logical CPUs on one core)"),
}


def _files(tests: bool) -> list[Path]:
    out = []
    for p in sorted(REPO.rglob("*.py")):
        dirs = p.relative_to(REPO).parts[:-1]
        if not any(d.startswith(".") or d == "__pycache__" for d in dirs) \
                and any(d == "tests" for d in dirs) == tests:
            out.append(p)
    return out


def _non_test_files() -> list[Path]:
    return _files(tests=False)


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


def test_package_does_not_import_ray_entry():
    """``__ray_entry__`` sits at the repo root; a package module that
    imports it works only where the repo root is on ``sys.path``."""
    importers = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "__ray_entry__" in names:
                importers.append(str(path.relative_to(REPO)))
    assert importers == []


def test_every_join_goes_through_hash_join():
    """``stages/agg.hash_join`` owns the partition count, the aggregator
    resources and the empty-first-block guard of every hash join, so no
    other non-test file calls ``Dataset.join`` (a ``.join`` call with a
    ``join_type=`` keyword) itself."""
    own = PKG / "stages" / "agg.py"
    calls = [f"{path.relative_to(REPO)}:{node.lineno}"
             for path in _non_test_files() if path != own
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "join"
             and any(k.arg == "join_type" for k in node.keywords)]
    assert calls == []


def test_every_driver_merge_goes_through_partial_merge():
    """``stages/agg.partial_merge`` is the one driver-side merge of
    per-batch partials, so no other package file streams a Ray Dataset
    to the driver batch by batch (an ``iter_batches`` call with a
    ``batch_format=`` keyword; pyarrow's ``ParquetFile.iter_batches``
    takes none)."""
    own = PKG / "stages" / "agg.py"
    calls = [f"{path.relative_to(REPO)}:{node.lineno}"
             for path in sorted(PKG.rglob("*.py")) if path != own
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "iter_batches"
             and any(k.arg == "batch_format" for k in node.keywords)]
    assert calls == []


def test_doc_local_chain_stays_in_arrow():
    """The doc-local chain (explode → classify → OCR → rank, fused in
    ``DocLocalExtract``) works on Arrow tables end to end: none of its
    modules converts a batch to or from pandas."""
    chain = [PKG / "stages" / f"{m}.py"
             for m in ("doclocal", "ocr", "classify", "explode")]
    calls = [f"{path.relative_to(REPO)}:{node.lineno}"
             for path in chain
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("to_pandas", "from_pandas")]
    assert calls == []


def _stored_attributes(target: ast.expr) -> list[ast.Attribute]:
    if isinstance(target, ast.Attribute):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for t in target.elts for a in _stored_attributes(t)]
    if isinstance(target, ast.Starred):
        return _stored_attributes(target.value)
    return []


def test_package_process_state_is_listed():
    """Every name a package function rebinds with ``global`` is state
    that a worker process keeps between tasks; each one is listed in
    ``PROCESS_STATE`` with its reason, and the list has to stay exact.
    An attribute set on a package function or class (``f.x = ...``)
    outlives the task the same way, and none is allowed."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PKG.rglob("*.py"))}
    bound = {f"{path.relative_to(PKG).as_posix()}:{name}"
             for path, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Global) for name in node.names}
    assert bound == set(PROCESS_STATE)
    defs = {node.name for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
    set_on_defs = [
        f"{path.relative_to(REPO)}:{attr.lineno}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        for attr in _stored_attributes(target)
        if isinstance(attr.value, ast.Name) and attr.value.id in defs]
    assert set_on_defs == []


def _defaulted() -> list[tuple[str, str, int | None]]:
    """(callee, parameter, call index) of each defaulted parameter of the
    package's top-level functions and class methods; an ``__init__`` is
    called by its class name; the index is None for a keyword-only one."""
    out = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name if m.name == "__init__" else m.name, m,
                         0 if any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in m.decorator_list) else 1)
                        for m in node.body
                        if isinstance(m, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
            else:
                continue
            for name, fn, shift in defs:
                a = fn.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                out += [(name, arg.arg, first + i - shift)
                        for i, arg in enumerate(pos[first:])]
                out += [(name, arg.arg, None)
                        for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None]
    return out


def _calls(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """Callee name → the calls of it under ``tree``."""
    out: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "remote":
            f = f.value
        name = f.id if isinstance(f, ast.Name) \
            else f.attr if isinstance(f, ast.Attribute) else None
        if name is not None:
            out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and any(
        i == index or (isinstance(a, ast.Starred) and i <= index)
        for i, a in enumerate(call.args))


def _set_by(files: list[Path]) -> set[tuple[str, str]]:
    """The (callee, parameter) defaults some call in ``files`` sets."""
    calls: dict[str, list[ast.Call]] = {}
    for p in files:
        for name, cs in _calls(ast.parse(p.read_text())).items():
            calls.setdefault(name, []).extend(cs)
    return {(name, param) for name, param, index in _defaulted()
            if any(_sets(c, param, index) for c in calls.get(name, ()))}


def test_every_parameter_default_has_a_non_test_setter():
    production = _set_by(_files(tests=False))
    tests = _set_by(_files(tests=True))
    unset = {(name, param) for name, param, _index in _defaulted()
             if (name, param) not in production
             and not (name in SURVIVORS and (name, param) in tests)}
    assert sorted(unset - set(SEAMS)) == [], (
        "defaulted parameters that no non-test caller sets: make each "
        "value a constant, or list a test-only one in SEAMS")


def test_seam_list_is_exact():
    """Each seam is still a default that no non-test caller sets, and
    the test it names still sets it."""
    defaulted = {(name, param) for name, param, _index in _defaulted()}
    assert set(SEAMS) <= defaulted
    assert set(SEAMS) & _set_by(_files(tests=False)) == set()
    index = {(name, param): i for name, param, i in _defaulted()}
    for (name, param), (test_id, _why) in SEAMS.items():
        path, test = test_id.split("::")
        fns = [n for n in ast.walk(ast.parse((REPO / path).read_text()))
               if isinstance(n, ast.FunctionDef) and n.name == test]
        assert fns, test_id
        assert any(_sets(c, param, index[name, param])
                   for fn in fns for c in _calls(fn).get(name, ())), \
            (name, param, test_id)
