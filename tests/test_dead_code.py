"""The package holds only code that production runs: every function, method
(but dunders) and class in src/robustdiff is read somewhere in src/ or
perfbench/ outside its own definition, and so is every module-level constant,
public or private (but dunders), and every public class-level default and
annotated class field. Every name an import binds, in src/ and in tests/, is
read in its module. A reference implementation that only tests call lives in
tests/ (see tests/oracles.py)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustdiff"


def _reads(tree):
    """(name, line) of every name and attribute the code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    the public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _private_definitions(tree):
    """Private module-level functions and classes, and the private methods
    of every class but dunders, which Python itself calls."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _parsed():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def _unused(definitions):
    """How many definitions `definitions(tree)` yields over the package's
    files, and those of them that nothing in src/ or perfbench/ reads
    outside the definition itself."""
    trees = _parsed()
    reads = [(path, name, line) for path, tree in trees.items() for name, line in _reads(tree)]
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in definitions(trees[path]):
            checked += 1
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in own)
                       for where, name, line in reads):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return checked, unused


def test_every_public_definition_is_used():
    checked, unused = _unused(_public_definitions)
    assert checked > 0 and unused == []


def test_every_private_helper_is_used():
    # A helper that nothing calls any more outlived its caller.
    checked, unused = _unused(_private_definitions)
    assert checked > 0 and unused == []


def _assigned_names(body, private=False):
    """(name, line) of every public name, or with `private` every private
    name but dunders, that an assignment in `body` binds or an annotation in
    it declares, such as a dataclass field with no default."""
    for node in body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_") == private
                        and not name.id.startswith("__")):
                    yield name.id, node.lineno


def test_every_constant_and_class_default_is_read():
    # A module constant is read by its name or as a module attribute; a
    # class-level default or field only as an attribute, so a local variable
    # or a parameter of the same name does not count as its reader. A field
    # that a constructor stores and nothing reads is dead state.
    trees = _parsed()
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        classes = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        for name, line in _assigned_names(tree.body):
            checked += 1
            if name not in names | attrs:
                unread.append(f"{path.name}:{line} {name}")
        for cls in classes:
            for name, line in _assigned_names(cls.body):
                checked += 1
                if name not in attrs:
                    unread.append(f"{path.name}:{line} {cls.name}.{name}")
    assert checked > 0 and unread == []


def test_every_private_module_constant_is_read():
    # A private constant is read by its name in its own module, or as an
    # attribute of it anywhere; a same-named local elsewhere does not count.
    # Dunders such as __version__ are read by tools, not by the package.
    trees = _parsed()
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        own = {name for name, _ in _reads(trees[path])}
        for name, line in _assigned_names(trees[path].body, private=True):
            checked += 1
            if name not in own | attrs:
                unread.append(f"{path.name}:{line} {name}")
    assert checked > 0 and unread == []


def _imported_names(tree):
    """(name, line) of every name an import statement binds, but
    `from __future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read():
    # The tests too: an import that no test reads is a leftover.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in read]
    assert unread == []


def _parameters(fn):
    """The names of every parameter of the function or lambda `fn`."""
    a = fn.args
    return [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            if arg is not None]


def test_every_parameter_is_read():
    # A parameter that no body reads is a knob with no effect. Nested
    # functions count as readers of the enclosing function's parameters.
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for name in _parameters(fn):
                if name in ("self", "cls"):
                    continue
                checked += 1
                if name not in read:
                    unread.append(f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({name})")
    assert checked > 0 and unread == []
