"""Dead-code gate: every definition in ``src/`` is reached or named here.

A function, class or method is reached when a reached scope refers to it
through a ``Name`` or ``Attribute`` node (a string or docstring that names
it does not count).  Module-level code and the names in ``__all__`` are
reached to begin with; a reached class reaches its body and its dunder
methods, which Python calls itself.  References are matched by name: a
method by ``obj.name`` only, anything else by ``name`` or ``mod.name``.
Reach is transitive, so a helper that only dead code calls is dead too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "serreweights"

# Unreached definitions kept on purpose: qualified name -> reason.
ALLOWED = {
    "series_oracle.dlog_truncated": "pending item 3 (retire the truncated series)",
    "series_oracle.TensorAlgebra.invert": "pending item 3",
    "series_oracle.TensorAlgebra.sub": "pending item 3",
    "_gf.FiniteField.sub": "pending item 3: only TensorAlgebra.sub calls it",
    "tame_chars.UnramifiedPart.is_trivial": "public method with no package caller",
    "tame_chars.FieldParams.q": "public property of FieldParams, read by tests",
    "_gf.FiniteField.element": "packs coefficients; tests/test_gf.py checks the "
    "packed format against the reference field through it",
    "_gf.FiniteField.coefficients": "unpacks an element, for the same checks",
}


class _Scope:
    def __init__(self, qualname, name=None, is_method=False, is_class=False):
        self.qualname, self.name = qualname, name
        self.is_method, self.is_class = is_method, is_class
        self.refs = []  # (name, is an attribute)
        self.methods = []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(module, tree):
    """The module's scope and every definition's, with the references made
    directly in each (not in a nested definition's body)."""
    root = _Scope(module)
    scopes = []

    def visit(node, scope):
        if isinstance(node, _DEFINITIONS):
            inner = _Scope(
                f"{scope.qualname}.{node.name}", node.name,
                is_method=scope.is_class, is_class=isinstance(node, ast.ClassDef),
            )
            scopes.append(inner)
            if scope.is_class:
                scope.methods.append(inner)
            # Decorators, defaults, annotations and bases run in the
            # enclosing scope; only the body belongs to the definition.
            for field, value in ast.iter_fields(node):
                for part in value if isinstance(value, list) else [value]:
                    if isinstance(part, ast.AST):
                        visit(part, inner if field == "body" else scope)
            return
        if isinstance(node, ast.Name):
            scope.refs.append((node.id, False))
        elif isinstance(node, ast.Attribute):
            scope.refs.append((node.attr, True))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for statement in tree.body:
        visit(statement, root)
    return root, scopes


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreached_definitions(src=SRC):
    roots, scopes, exported = [], [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        root, defined = _scan(path.stem, tree)
        roots.append(root)
        scopes += defined
        exported |= _exported(tree)
    by_name = {}
    for scope in scopes:
        by_name.setdefault(scope.name, []).append(scope)
    reached = set()
    queue = roots + [s for s in scopes if s.name in exported and not s.is_method]

    while queue:
        scope = queue.pop()
        if id(scope) in reached:
            continue
        reached.add(id(scope))
        if scope.is_class:
            queue += [m for m in scope.methods if m.name.startswith("__")
                      and m.name.endswith("__")]
        for name, is_attribute in scope.refs:
            queue += [s for s in by_name.get(name, ())
                      if is_attribute or not s.is_method]
    return {s.qualname for s in scopes if id(s) not in reached}


def test_every_definition_is_reached_or_allowed():
    unreached = unreached_definitions()
    assert sorted(unreached - ALLOWED.keys()) == [], "unreached: remove, or allow with a reason"
    assert sorted(ALLOWED.keys() - unreached) == [], "reached now: drop from ALLOWED"


def test_an_unused_helper_fails_the_gate(tmp_path):
    """The gate's own check: a helper that nothing calls is found, and so is
    one that only that helper calls."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    module = tmp_path / "cohomology.py"
    module.write_text(
        module.read_text()
        + "\n\ndef _unused_helper():\n    return _called_only_by_it()\n"
        + "\n\ndef _called_only_by_it():\n    return 0\n"
    )
    assert unreached_definitions(tmp_path) - ALLOWED.keys() == {
        "cohomology._unused_helper", "cohomology._called_only_by_it",
    }
