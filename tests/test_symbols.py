"""Source hygiene: every top-level name of the package is used."""
import ast
import glob
import os

import scenarioforge

# referenced only by perfbench/tracing.py, which patches them by name
PATCHED_BY_THE_BENCH = {"netgen.lane_centerline", "netgen.point_along",
                        "evalkit.diversity_from_bundles"}


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _referenced(node):
    """The names a node reads: bare, as an attribute or imported."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_every_top_level_name_is_referenced_elsewhere_in_src():
    """Each module-level function, class and constant of src is read
    somewhere in src outside its own definition, except the names the
    bench patches."""
    package = os.path.dirname(scenarioforge.__file__)
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read())
    # name -> where it is read: (module, line)
    reads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            for name in _referenced(node):
                reads.setdefault(name, []).append(
                    (module, getattr(node, "lineno", 0)))
    unused = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined(stmt):
                if name.startswith("__"):
                    continue
                span = range(stmt.lineno, stmt.end_lineno + 1)
                if not any(m != module or line not in span
                           for m, line in reads.get(name, ())):
                    unused.add(f"{module}.{name}")
    assert unused == PATCHED_BY_THE_BENCH


def test_every_parameter_is_read():
    """Each parameter of each function and lambda of src, other than self
    and cls, is read in its body."""
    package = os.path.dirname(scenarioforge.__file__)
    unread = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{module}.{name}({p.arg})" for p in params
                       if p.arg not in ("self", "cls") and p.arg not in read]
    assert unread == []
