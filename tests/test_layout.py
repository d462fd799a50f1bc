"""The package holds the protocols; references for checking them live in
the tests.  A function nothing in the package calls is either dead or a
test's reference, and belongs in `tests/` (as `hadamard_reference.py`
and `exact_reference.py` do)."""

import ast
from collections import defaultdict
from pathlib import Path

import hadaldp

# read only from perfbench/, whose tracer wraps them or whose set-up calls
# them; each leaves src/ once the ROADMAP item named beside it lands
ONLY_PERFBENCH = {
    "get_backend",    # item 3 drops perfbench's calls; item 4 deletes it
    "set_backend",    # item 3 drops perfbench's calls; item 4 deletes it
    # evaluates the multiply-shift family for the tracer and the tests;
    # item 3 drops the tracer's wrapper, item 4 deletes it
    "eval_batch",
    "members",        # item 3 drops the tracer's wrapper; item 4 deletes it
    "query_direct",   # item 3 drops perfbench's calls; item 4 deletes it
    "row_estimates",  # item 3 drops perfbench's calls; item 4 deletes it
}
# public API the package never calls itself: the server states'
# serialization, hrr's format v2 and freq_oracle's format v6
PUBLIC_API = {"to_bytes", "from_bytes"}


# names that can start a thread or decide whether to; only backend's
# `second_worker` and the definition of `_worker_count` may use them
THREAD_NAMES = {"ThreadPoolExecutor", "threading", "_thread", "Thread",
                "_worker_count"}
THREAD_HOMES = {("backend", "second_worker"), ("backend", "_worker_count")}


def _package_trees():
    """(module name, parsed source) of every module of the package."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(hadaldp.__file__).parent.glob("*.py"))]


def _unreferenced_defs():
    """Names of the package's functions and methods (dunders aside) that
    no code in the package names outside their own definition."""
    uses = defaultdict(list)    # name -> the nodes that name it
    defs = []
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
            elif isinstance(node, ast.alias):
                uses[node.name.rpartition(".")[2]].append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(node)
    unused = set()
    for fn in defs:
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        inside = {id(node) for node in ast.walk(fn)}
        if all(id(node) in inside for node in uses[fn.name]):
            unused.add(fn.name)
    return unused


def test_every_function_in_the_package_has_a_caller_there():
    unused = _unreferenced_defs()
    allowed = ONLY_PERFBENCH | PUBLIC_API
    assert unused - allowed == set(), \
        "no caller in src/hadaldp; move references to tests/"
    assert allowed - unused == set(), \
        "called in src/hadaldp now, or gone: drop from the allowlists"


def _names(node):
    """The identifiers a node spells out: a name, an attribute, or the
    dotted parts of an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split(".")) | {node.asname}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_one_place_starts_a_thread():
    stray = []
    for module, tree in _package_trees():
        home = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and (module, fn.name) in THREAD_HOMES
                for node in ast.walk(fn)}
        stray += [f"{module}.py:{node.lineno}: {name}"
                  for node in ast.walk(tree) if id(node) not in home
                  for name in _names(node) & THREAD_NAMES]
    assert stray == [], \
        "threads start only in backend.second_worker; ask it for a helper"


def test_second_worker_has_one_caller():
    """The FWHT's slab split is the one work the package runs on two
    threads; a build draws its rows and coins inline."""
    callers = {(module, fn.name) for module, tree in _package_trees()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and "second_worker" in _names(node.func)}
    assert callers == {("backend", "fwht_inplace")}
