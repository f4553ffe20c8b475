import ast
import builtins
import re
from pathlib import Path

import octo_cfs

SRC = Path(octo_cfs.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: Public src functions that no command or acceptance test reaches, kept on purpose: qualified name -> reason.
EXEMPT = {
    "lattice.vacuum_local_correlation": "perfbench/vlc_probe.py calls it; it leaves with that probe",
}

#: Defaulted parameters that no reached call sets, kept on purpose: "module.function(parameter)" -> reason.
UNSET_EXEMPT = {}


def unused_imports(tree: ast.Module) -> list:
    """Names an import binds anywhere in the module that no Name node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom json import dumps, loads\nnp.ones(loads('1'))\n")
    assert unused_imports(tree) == [(1, "os"), (3, "dumps")]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def _scan(module: str, tree: ast.Module):
    """(defs, top): each module-level function and method node by qualified name, such as
    "lattice.sea_kernel" or "lattice.SectorKernel.hermiticity_residual", and the nodes that run on import."""
    defs, top = {}, []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{prefix}.{node.name}"] = node
                top.extend(node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d])
            elif isinstance(node, ast.ClassDef) and prefix == module:
                top.extend(node.bases + node.decorator_list)
                visit(node.body, f"{prefix}.{node.name}")
            else:
                top.append(node)

    visit(tree.body, module)
    return defs, top


def _bindings(module: str, tree: ast.Module, modules) -> dict:
    """What each name read in the module stands for: a package module ("cfs") or a qualified name ("cfs.action")."""
    names = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module or ""
        elif node.level == 0 and (node.module or "").split(".")[0] == "octo_cfs":
            source = node.module[len("octo_cfs"):].lstrip(".")
        else:
            continue
        for alias in node.names:
            if source:
                names[alias.asname or alias.name] = f"{source}.{alias.name}"
            else:
                names[alias.asname or alias.name] = alias.name if alias.name in modules else f"__init__.{alias.name}"
    return names


def _annotated(node, names: dict, classes) -> str | None:
    """The package class an annotation names, as `Cls`, `"Cls"` or `mod.Cls`; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        node = ast.Name(node.value)
    if isinstance(node, ast.Name):
        target = names.get(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        target = f"{names.get(node.value.id)}.{node.attr}"
    else:
        return None
    return target if target in classes else None


def _types(parsed: dict, names: dict):
    """(family, yields) of the package classes in the parsed modules.

    family: each class -> the classes whose members a receiver of it may run: itself, its package ancestors
    and its package descendants. yields: what calling "f()", "Cls()" or "Cls.method()" or reading "Cls.field"
    or a property "Cls.prop" gives, for each package function and class member: the package class its
    annotation names (a class call gives the class), or None.
    """
    classes = {f"{module}.{node.name}": (node, names[module])
               for module, tree in parsed.items() for node in tree.body if isinstance(node, ast.ClassDef)}
    yields, parents = {}, {}
    for module, tree in parsed.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yields[f"{module}.{node.name}()"] = node.returns and _annotated(node.returns, names[module], classes)
    for cls, (node, bound) in classes.items():
        yields[f"{cls}()"] = cls
        parents[cls] = {base for base in (_annotated(b, bound, classes) for b in node.bases) if base}
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yields[f"{cls}.{item.target.id}"] = _annotated(item.annotation, bound, classes)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                prop = any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)
                key = f"{cls}.{item.name}" if prop else f"{cls}.{item.name}()"
                yields[key] = item.returns and _annotated(item.returns, bound, classes)

    def ancestors(cls):
        return {cls}.union(*(ancestors(p) for p in parents[cls]))

    up = {cls: ancestors(cls) for cls in classes}
    family = {cls: [other for other in classes if other in up[cls] or cls in up[other]] for cls in classes}
    return family, yields


def _one(values):
    """The one value all of `values` share, or None."""
    values = set(values)
    return values.pop() if len(values) == 1 else None


def _members(module: str, tree: ast.Module, names: dict, modules, family: dict, yields: dict) -> dict:
    """The qualified members each `receiver.attr` may read, by id of its ast.Attribute node, where the AST tells
    the receiver's package class: `self` (or `cls`) in a method, a package class itself, or a name whose every
    binding is `Cls(...)`, a call or field whose annotation names a package class, or a parameter annotated
    with one. The members are `attr` of that class's family; other receivers are left out.
    """
    rebound = {name for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
    found, memo, scopes = {}, {}, []  # scopes keeps each scope alive, so that no two share an id in memo

    def scope(node, owner):
        """name -> what each binding of a module, function or lambda scope gives: an expression to type, or
        the class an annotation or method receiver fixes, or None. Lambda and comprehension variables bind
        here too, which only hides types."""
        bound = {}
        if not isinstance(node, ast.Module):
            args = node.args
            static = owner and any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            receiver = (args.posonlyargs + args.args)[:1] if owner and not static else []
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]:
                fixed = owner if arg in receiver else arg.annotation and _annotated(arg.annotation, names, family)
                bound.setdefault(arg.arg, []).append(fixed)
        stack = list(node.body) if isinstance(node.body, list) else [node.body]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(node, ast.Module):  # module-level definitions are the names `names` binds
                    bound.setdefault(sub.name, []).append(None)
                continue
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                bound.setdefault(sub.targets[0].id, []).append(sub.value)
                stack.append(sub.value)
                continue
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                bound.setdefault(sub.target.id, []).append(_annotated(sub.annotation, names, family))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound.setdefault(sub.id, []).append(None)
            stack.extend(ast.iter_child_nodes(sub))
        scopes.append(bound)
        return bound

    def denotes(expr, chain):
        """The package module, function or class `expr` names, unless a scope binds the name itself."""
        if isinstance(expr, ast.Name) and not any(expr.id in bound for bound in chain):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute) and (module := denotes(expr.value, chain)) in modules:
            return f"{module}.{expr.attr}"
        return None

    def receiver(expr, chain):
        """The package class whose members `expr.attr` reads: expr is that class or one of its instances."""
        target = denotes(expr, chain)
        return target if target in family else instance(expr, chain)

    def member(expr, chain, suffix):
        cls = receiver(expr.value, chain)
        keys = [f"{other}.{expr.attr}{suffix}" for other in family[cls]] if cls else []
        return _one(yields[key] for key in keys if key in yields)

    def instance(expr, chain):
        """The package class of the instance `expr` gives, or None."""
        if isinstance(expr, ast.Name):
            for depth, bound in enumerate(chain):
                if expr.id not in bound:
                    continue
                key = (id(bound), expr.id)
                if key not in memo:
                    memo[key] = None  # a binding that reads its own name gives no type
                    memo[key] = None if expr.id in rebound else _one(
                        instance(value, chain[depth:]) if isinstance(value, ast.AST) else value
                        for value in bound[expr.id])
                return memo[key]
        elif isinstance(expr, ast.Call):
            target = denotes(expr.func, chain)
            if target:
                return yields.get(f"{target}()")
            if isinstance(expr.func, ast.Attribute):
                return member(expr.func, chain, "()")
        elif isinstance(expr, ast.Attribute):
            return member(expr, chain, "")
        return None

    def visit(node, chain, owner=None):
        if isinstance(node, ast.Attribute) and (cls := receiver(node.value, chain)):
            found[id(node)] = [f"{other}.{node.attr}" for other in family[cls]]
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(sub, [scope(sub, owner), *chain])
            elif isinstance(sub, ast.ClassDef):  # a class body's names are not visible in its methods
                visit(sub, chain, f"{module}.{sub.name}" if node is tree else None)
            else:
                visit(sub, chain)

    visit(tree, [scope(tree, None)])
    return found


def _reads(nodes, names: dict, modules, members: dict):
    """(qualified names, attribute names) the nodes read; `mod.f` of a package module resolves to "mod.f",
    and `receiver.attr` to the members `_members` gives it."""
    qualified, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names:
                qualified.add(names[sub.id])
            elif isinstance(sub, ast.ImportFrom):  # an imported name counts as used
                qualified.update(names[a.asname or a.name] for a in sub.names if (a.asname or a.name) in names)
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and names.get(sub.value.id) in modules:
                    qualified.add(f"{names[sub.value.id]}.{sub.attr}")
                elif id(sub) in members:
                    qualified.update(members[id(sub)])
                else:  # a method of an object whose type the AST does not tell
                    attributes.add(sub.attr)
    return qualified, attributes


def _walk(sources: dict, acceptance: str, kept=()):
    """(defs, walked, roots, members, by_name): each function and method as (node, the names its module binds)
    by qualified name, the qualified names reached, the (nodes, names) that run on import or in the acceptance
    module, the members of each typed attribute read (`_members`), and the walked methods that only a read of
    an attribute of their name, on a receiver of unknown type, reaches."""
    modules = set(sources)
    parsed = {module: ast.parse(text) for module, text in sources.items()}
    names = {module: _bindings(module, tree, modules) for module, tree in parsed.items()}
    family, yields = _types(parsed, names)
    parsed["test_acceptance"] = ast.parse(acceptance)
    names["test_acceptance"] = _bindings("test_acceptance", parsed["test_acceptance"], modules)
    members, defs, roots = {}, {}, []
    for module, tree in parsed.items():
        members.update(_members(module, tree, names[module], modules, family, yields))
        if module in sources:
            module_defs, top = _scan(module, tree)
            defs.update({name: (node, names[module]) for name, node in module_defs.items()})
            roots.append((top, names[module]))
    roots.append((parsed["test_acceptance"].body, names["test_acceptance"]))
    reached, attributes, walked, by_name, todo = set(kept), set(), set(), set(), roots
    while todo:
        for nodes, bound in todo:
            qualified, attrs = _reads(nodes, bound, modules, members)
            reached |= qualified
            attributes |= attrs
        todo = []
        for name, (node, bound) in defs.items():
            method = name.rsplit(".", 1)[1] if name.count(".") == 2 else None
            dunder = method is not None and method.startswith("__") and method.endswith("__")
            if name not in walked and (name in reached or dunder or method in attributes):
                walked.add(name)
                todo.append((node.body, bound))
    by_name = sorted(name for name in walked if name.count(".") == 2 and name not in reached
                     and not name.endswith("__"))
    return defs, walked, roots, members, by_name


def unreached(sources: dict, acceptance: str, kept=()) -> list:
    """Functions and methods, private ones included, of the package modules `sources` (name -> source) that nothing
    reaches; dunder methods are roots, not candidates.

    The roots are the code each module runs on import (which holds the CLI's `main` and, through its
    handler table, every handler), the dunder methods, the whole acceptance module and the names in
    `kept`. A module function is reached by its name as the reading module binds or imports it; a method
    by a read of an attribute of its name on a receiver of its class's family, or, where the AST does not
    tell the receiver's class, on any receiver. A reached function's body reaches further.
    """
    defs, walked, *_ = _walk(sources, acceptance, kept)
    return sorted(name for name in defs if name not in walked and not name.endswith("__"))


def matched_by_name(sources: dict, acceptance: str, kept=()) -> list:
    """The methods `unreached` counts as reached only through an attribute read on a receiver of unknown type."""
    return _walk(sources, acceptance, kept)[4]


def _calls(node, own=frozenset()):
    """(call, parameter names of the innermost function around it) for each call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        own = {arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    if isinstance(node, ast.Call):
        yield node, own
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, own)


def _callees(func, names: dict, defs: dict, modules, members: dict) -> list:
    """The qualified functions a call of `func` may run: a class runs its __init__, a method of a receiver of
    known class is one of the members `_members` gives, and a method of an object whose type the AST does not
    tell is matched by its name, as `unreached` matches them."""
    if isinstance(func, ast.Name):
        target = names.get(func.id)
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and names.get(func.value.id) in modules:
        target = f"{names[func.value.id]}.{func.attr}"
    elif id(func) in members:
        return [name for name in members[id(func)] if name in defs]
    elif isinstance(func, ast.Attribute):
        return [name for name in defs if name.count(".") == 2 and name.rsplit(".", 1)[1] == func.attr]
    else:
        return []
    return [name for name in (target, f"{target}.__init__") if name in defs]


def unset_defaults(sources: dict, acceptance: str, kept=()) -> list:
    """Defaulted parameters, as "module.function(parameter)", of the reached functions that no reached call sets.

    Reached is as in `unreached`; the calls are those of the code it runs or walks. A call sets a parameter by
    position or by keyword, unless it passes its caller's own parameter of the same name; a call that unpacks
    *args or **kwargs sets every parameter.
    """
    defs, walked, roots, members, _ = _walk(sources, acceptance, kept)
    modules, done = set(sources), set()
    for nodes, names in roots + [([defs[name][0]], defs[name][1]) for name in walked]:
        for call, own in (c for node in nodes for c in _calls(node)):
            for target in _callees(call.func, names, defs, modules, members):
                args = defs[target][0].args
                positional = [arg.arg for arg in args.posonlyargs + args.args]
                if target.count(".") == 2:  # a method: its first parameter is the receiver (self or cls)
                    positional = positional[1:]
                if any(isinstance(v, ast.Starred) for v in call.args) or any(k.arg is None for k in call.keywords):
                    done.update((target, arg.arg) for arg in args.posonlyargs + args.args + args.kwonlyargs)
                passed = list(zip(positional, call.args)) + [(k.arg, k.value) for k in call.keywords]
                done.update((target, p) for p, value in passed
                            if not (isinstance(value, ast.Name) and value.id == p and p in own))
    found = []
    for name in sorted(walked):
        args = defs[name][0].args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        found += [f"{name}({arg.arg})" for arg in defaulted if (name, arg.arg) not in done]
    return found


def test_unreached_functions_are_found():
    sources = {
        "octonion": "STRUCTURE = 1\n\ndef epsilon(i):\n    return STRUCTURE\n\ndef basis(i):\n    return i\n",
        "lattice": (
            "from .octonion import basis\n\n"
            "class Spec:\n"
            "    def at(self):\n        return 0\n"
            "    def norm(self):\n        return helper()\n"
            "def helper():\n    return basis(1)\n\n"
            "def _stale():\n    return 0\n\n"
            "def width(spec):\n    return spec.epsilon + spec.norm()\n"
        ),
        "cli": "import sys\nfrom . import lattice\n\ndef main():\n    return lattice.width(None)\n\n"
               "if __name__ == '__main__':\n    sys.exit(main())\n",
    }
    # spec.epsilon is an attribute read, not a read of octonion.epsilon; a private helper counts too
    assert unreached(sources, "") == ["lattice.Spec.at", "lattice._stale", "octonion.epsilon"]
    assert unreached(sources, "from octo_cfs.octonion import epsilon\n") == ["lattice.Spec.at", "lattice._stale"]
    assert unreached(sources, "", kept=["lattice.Spec.at", "lattice._stale"]) == ["octonion.epsilon"]


def test_methods_resolve_through_the_receivers_class():
    sources = {
        "kernel": (
            "class Space:\n"
            "    def basis(self):\n        return self.norm()\n"
            "    def norm(self, order=2):\n        return order\n"
            "    def trace(self):\n        return 0\n"
            "    def rank(self):\n        return 0\n\n"
            "class Chain(Space):\n"
            "    def trace(self):\n        return 2\n\n"
            "class Frame:\n"
            "    space: Space\n"
            "    def basis(self):\n        return 3\n"
            "    def rank(self):\n        return 4\n"
            "    def norm(self, order=2):\n        return order\n"
            "    def width(self):\n        return 5\n\n"
            "def space() -> 'Space':\n    return Space()\n\n"
            "def spectrum(s: Space, frame: Frame):\n    return s.trace() + frame.space.basis()\n"
        ),
        "cli": (
            "from . import kernel\nfrom .kernel import Frame\n\n"
            "def main():\n"
            "    f = Frame()\n"
            "    sp = kernel.space()\n"
            "    return f.rank() + f.norm(order=1) + sp.basis() + kernel.spectrum(sp, f)\n\n"
            "def probe(thing):\n    return thing.width()\n\n"
            "if __name__ == '__main__':\n    main() + probe(None)\n"
        ),
    }
    # by name, any `.basis`, `.rank` or `.trace` read would reach every method of that name
    assert unreached(sources, "") == ["kernel.Frame.basis", "kernel.Space.rank"]
    # `thing` has no annotation: its `.width()` matches Frame.width by name
    assert matched_by_name(sources, "") == ["kernel.Frame.width"]
    # f.norm(order=1) sets Frame.norm's order only; Space.basis calls self.norm() with none
    assert unset_defaults(sources, "") == ["kernel.Space.norm(order)"]
    # a subclass's override runs for a receiver of the base class, and a base method for a subclass receiver
    assert "kernel.Chain.trace" not in unreached(sources, "")
    chained = sources["cli"].replace("f.rank()", "kernel.Chain().rank()")
    assert unreached({**sources, "cli": chained}, "") == ["kernel.Frame.basis", "kernel.Frame.rank"]
    # a name with two bindings of different classes falls back to matching by name
    rebound = sources["cli"].replace("    f = Frame()\n", "    f = Frame()\n    f = kernel.space() if f else f\n")
    assert unreached({**sources, "cli": rebound}, "") == ["kernel.Frame.basis"]
    assert matched_by_name({**sources, "cli": rebound}, "") == ["kernel.Frame.norm", "kernel.Frame.rank",
                                                               "kernel.Frame.width", "kernel.Space.rank"]
    assert unset_defaults({**sources, "cli": rebound}, "") == []


def test_every_public_function_is_reached_by_a_command_or_the_acceptance_suite():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    acceptance = ACCEPTANCE.read_text()
    assert unreached(sources, acceptance, kept=EXEMPT) == [], (
        f"methods reached only by their attribute name: {matched_by_name(sources, acceptance, kept=EXEMPT)}")
    assert set(EXEMPT) <= set(unreached(sources, acceptance))  # each entry needs its exemption


def test_unset_defaults_are_found():
    sources = {
        "lattice": (
            "def sea(mass, spec, gammas=None, tau=1.0, scale=2.0, *, width=3):\n    return mass\n\n"
            "def seas(masses, gammas=None):\n    return [sea(m, 1, gammas) for m in masses]\n\n"
            "def build(masses, tau=0.5):\n    return sea(masses[0], 1, None, tau, width=4) + len(seas(masses))\n\n"
            "def unused(x=1):\n    return x\n\n"
            "class Kernel:\n"
            "    def __init__(self, rel, gammas=None):\n        self.rel = rel\n"
            "    def norm(self, order=2):\n        return order\n"
        ),
        "cli": ("from . import lattice\n\n"
                "def main(argv=None):\n    return lattice.build(argv) + lattice.Kernel(1).norm()\n\n"
                "if __name__ == '__main__':\n    main()\n"),
    }
    acceptance = "from octo_cfs.cli import main as cli_main\n\ncli_main(['vacuum'])\n"
    # forwarding the caller's own gammas or tau into sea sets nothing; unreached `unused` is not checked
    expected = ["lattice.Kernel.__init__(gammas)", "lattice.Kernel.norm(order)", "lattice.build(tau)",
                "lattice.sea(tau)", "lattice.sea(scale)", "lattice.seas(gammas)"]
    assert unset_defaults(sources, acceptance) == expected
    # the acceptance module calls cli.main under an alias
    assert unset_defaults(sources, "") == ["cli.main(argv)"] + expected
    unpacked = acceptance + "from octo_cfs.lattice import Kernel, sea\n\nsea(*[1, 2])\n"
    unpacked += "Kernel(**{'rel': 1}).norm(order=1)\n"
    assert unset_defaults(sources, unpacked) == ["lattice.build(tau)", "lattice.seas(gammas)"]


def test_every_default_of_a_reached_function_is_set_by_a_reached_call():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unset_defaults(sources, ACCEPTANCE.read_text(), kept=EXEMPT)
    assert [name for name in found if name not in UNSET_EXEMPT] == []
    assert set(UNSET_EXEMPT) <= set(found)  # each entry needs its exemption


def reports_outside_emit(tree: ast.Module) -> list:
    """Where a CLI module builds a report's `meta` or its exit code past `_emit`: a `_meta` helper, and each
    cmd_* handler that names EXIT_OK or writes a "meta" key (a dict literal's key or a subscript store)."""
    found = {"defines _meta" for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_meta"}
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == "EXIT_OK":
                found.add(f"{func.name} names EXIT_OK")
            keys = node.keys if isinstance(node, ast.Dict) else (
                [node.slice] if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) else [])
            if any(isinstance(key, ast.Constant) and key.value == "meta" for key in keys):
                found.add(f'{func.name} writes "meta"')
    return sorted(found)


def test_reports_built_outside_emit_are_found():
    tree = ast.parse(
        "def _meta(args):\n    return {}\n\n"
        "def _finish(args):\n    return EXIT_OK\n\n"
        "def cmd_a(args):\n    _emit(args, {'meta': _meta(args), 'x': 1})\n    return EXIT_OK\n\n"
        "def cmd_b(args):\n    payload = {'x': 1}\n    payload['meta'] = {}\n    return _emit(args, payload)\n\n"
        "def cmd_c(args):\n    return _emit(args, {'x': args['meta']}, meta=1)\n"
    )
    # _finish may name EXIT_OK, and cmd_c reads a "meta" key and passes a `meta` parameter: neither builds one
    assert reports_outside_emit(tree) == ['cmd_a names EXIT_OK', 'cmd_a writes "meta"', 'cmd_b writes "meta"',
                                          "defines _meta"]


def test_every_cli_report_leaves_through_emit():
    # _emit builds every report's meta and returns EXIT_OK; a handler returns what _emit returns
    assert reports_outside_emit(ast.parse((SRC / "cli.py").read_text())) == []


def unraised_exceptions(trees: dict) -> list:
    """The exception classes the modules define (subclasses of a builtin exception or of one of theirs, by name) that
    no call and no `raise` in them names: nothing can raise them, so no caller meets them."""
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def name(node):
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    def is_exception(cls):
        if cls in classes:
            return any(is_exception(name(base)) for base in classes[cls].bases)
        builtin = getattr(builtins, cls or "", None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    named = {name(node.func) if isinstance(node, ast.Call) else name(node.exc)
             for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Call, ast.Raise))}
    return sorted(cls for cls in classes if is_exception(cls) and cls not in named)


def test_unraised_exceptions_are_found():
    tree = ast.parse(
        "class A(ValueError):\n    pass\n\nclass B(A):\n    pass\n\nclass C(errors.A):\n    pass\n\n"
        "class D:\n    pass\n\nclass E(RuntimeError):\n    pass\n\n"
        "def f():\n    raise mod.B('x')\n\nFAILURE = A\nstored = [E('y')]\nraise C\n"
    )
    # A is only bound to a name and D is no exception; B and C are raised, and E is built
    assert unraised_exceptions({"m": tree}) == ["A"]


def test_every_exception_class_is_raised_or_built_in_src():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert unraised_exceptions(trees) == []


def eigh_sites(tree: ast.Module) -> list:
    """The function around each use of the `linalg.eigh` solver, as "name" or "Class.name" ("<module>" outside any),
    one entry per use in source order: `np.linalg.eigh`, `numpy.linalg.eigh`, `linalg.eigh` or a name imported from
    numpy.linalg. An attribute merely named `eigh`, such as a measure's `.eigh`, is no use."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                for alias in node.names if alias.name == "eigh"}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            solver = isinstance(child, ast.Attribute) and child.attr == "eigh" and (
                isinstance(child.value, ast.Attribute) and child.value.attr == "linalg"
                or isinstance(child.value, ast.Name) and child.value.id == "linalg")
            if solver or isinstance(child, ast.Name) and child.id in imported:
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_eigh_sites_are_found():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.linalg import eigh as solve\n\n"
        "def f(a):\n    return np.linalg.eigh(a)\n\n"
        "class K:\n    def g(self, a):\n        solver = numpy.linalg.eigh\n        return solver(a)\n\n"
        "def h(m):\n    return m.eigh, np.linalg.eigvalsh(m), solve(m)\n\n"
        "w = linalg.eigh(np.eye(2))\n"
    )
    # m.eigh is an attribute named eigh, and eigvalsh another solver
    assert eigh_sites(tree) == ["f", "K.g", "h", "<module>"]


def test_only_validate_points_decomposes_points_in_cfs():
    # every point set reaches the causal engine as the `Eigh` that validation solved: no second `eigh` in cfs
    source = (SRC / "cfs.py").read_text()
    assert eigh_sites(ast.parse(source)) == ["validate_points"]
    planted = source + "\n\ndef spin_frames_of(a, cfg):\n    return spin_frames(Eigh(a, *np.linalg.eigh(a)), cfg)\n"
    assert eigh_sites(ast.parse(planted)) == ["validate_points", "spin_frames_of"]


def call_sites(tree: ast.Module, name: str) -> list:
    """The top-level function or class around each call of `name`, as a bare name or an attribute, in source order."""
    return [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]


def test_only_the_readers_of_outside_points_validate_in_cfs():
    # a validated point carries its eigenpairs, so the one-pair functions stack them and validate nothing again
    source = (SRC / "cfs.py").read_text()
    assert call_sites(ast.parse(source), "validate_points") == ["validate_point", "points_from_json"]
    planted = source + "\n\ndef spectrum_of(x, y, cfg):\n    return cfs.validate_points(np.array([x, y]), cfg)\n"
    assert call_sites(ast.parse(planted), "validate_points") == ["validate_point", "points_from_json", "spectrum_of"]


def test_the_console_script_and_python_m_enter_through_one_function():
    # pyproject.toml is read as text: tomllib is 3.11+, and requires-python admits 3.10
    script = re.search(r'^octo-cfs = "octo_cfs\.cli:(\w+)"$', PYPROJECT.read_text(), re.MULTILINE)
    guard, = [node for node in ast.parse((SRC / "cli.py").read_text()).body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert script is not None and [ast.unparse(line) for line in guard.body] == [f"sys.exit({script[1]}())"]
