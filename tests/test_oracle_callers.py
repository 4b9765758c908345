"""The legacy oracle stays a reference: few library modules may call it.

``core/verifier.py``'s ``verify_randomized`` / ``estimate_acceptance`` are
what the identity matrix pins the engine to.  Library code estimates on the
engine (:mod:`repro.engine`); the only modules outside the verifier that
still call the oracle are the two lower-bound drivers listed below.  A new
caller fails this scan — route it through the engine instead.
"""

import ast
from pathlib import Path

import repro

ORACLE = {"verify_randomized", "estimate_acceptance"}
ALLOWED = {"lowerbounds/crossing_attack.py", "lowerbounds/reductions.py"}


def _calls_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ORACLE:
                return True
    return False


def test_only_the_lower_bound_drivers_call_the_oracle():
    root = Path(repro.__file__).parent
    callers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if _calls_oracle(ast.parse(path.read_text(), filename=str(path)))
    }
    callers.discard("core/verifier.py")
    assert callers == ALLOWED
