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
    "eval_batch",     # item 3 drops the tracer's wrapper; item 4 deletes it
    "members",        # item 3 drops the tracer's wrapper; item 4 deletes it
    "query_direct",   # item 9: moves with item 3 or a later benchmark change
    "row_estimates",  # item 9: moves once item 3 drops the tracer's wrapper
}
# public API the package never calls itself: the server states'
# serialization, hrr's format v2 and freq_oracle's format v4
PUBLIC_API = {"to_bytes", "from_bytes"}


def _unreferenced_defs():
    """Names of the package's functions and methods (dunders aside) that
    no code in the package names outside their own definition."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(hadaldp.__file__).parent.glob("*.py"))]
    uses = defaultdict(list)    # name -> the nodes that name it
    defs = []
    for tree in trees:
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
