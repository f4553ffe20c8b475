import ast
from pathlib import Path

import octo_cfs

SRC = Path(octo_cfs.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

#: Public src functions that no command or acceptance test reaches, kept on purpose: qualified name -> reason.
EXEMPT = {
    "lattice.vacuum_local_correlation": "perfbench/vlc_probe.py calls it; it leaves with that probe",
    "octonion._OctonionBase.zero": "algebra method: the additive identity of Octonion and ComplexOctonion",
    "octonion.ComplexOctonion.dagger": "algebra method: the adjoint involution of C (x) O",
}

#: Defaulted parameters that no reached call sets, kept on purpose: "module.function(parameter)" -> reason.
UNSET_EXEMPT = {
    "mult_algebra.span_dimension(max_passes)": "decided with ROADMAP item 6's 1024-dimensional span",
}


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


def _reads(nodes, names: dict, modules):
    """(qualified names, attribute names) the nodes read; `mod.f` of a package module resolves to "mod.f"."""
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
                else:  # a method of an object whose type the AST does not tell
                    attributes.add(sub.attr)
    return qualified, attributes


def _walk(sources: dict, acceptance: str, kept=()):
    """(defs, walked, roots): each function and method as (node, the names its module binds) by qualified
    name, the qualified names reached, and the (nodes, names) that run on import or in the acceptance module."""
    modules = set(sources)
    defs, roots = {}, []
    for module, text in sources.items():
        tree = ast.parse(text)
        names = _bindings(module, tree, modules)
        module_defs, top = _scan(module, tree)
        defs.update({name: (node, names) for name, node in module_defs.items()})
        roots.append((top, names))
    tree = ast.parse(acceptance)
    roots.append((tree.body, _bindings("test_acceptance", tree, modules)))
    reached, attributes, walked, todo = set(kept), set(), set(), roots
    while todo:
        for nodes, names in todo:
            qualified, attrs = _reads(nodes, names, modules)
            reached |= qualified
            attributes |= attrs
        todo = []
        for name, (node, names) in defs.items():
            method = name.rsplit(".", 1)[1] if name.count(".") == 2 else None
            dunder = method is not None and method.startswith("__") and method.endswith("__")
            if name not in walked and (name in reached or dunder or method in attributes):
                walked.add(name)
                todo.append((node.body, names))
    return defs, walked, roots


def unreached(sources: dict, acceptance: str, kept=()) -> list:
    """Public functions and methods of the package modules `sources` (name -> source) that nothing reaches.

    The roots are the code each module runs on import (which holds the CLI's `main` and, through its
    handler table, every handler), the dunder methods, the whole acceptance module and the names in
    `kept`. A module function is reached by its name as the reading module binds or imports it; a method,
    whose receiver's type is unknown, by any read of an attribute of its name. A reached function's body
    reaches further.
    """
    defs, walked, _ = _walk(sources, acceptance, kept)
    return sorted(name for name in defs if name not in walked and not name.rsplit(".", 1)[1].startswith("_"))


def _calls(node, own=frozenset()):
    """(call, parameter names of the innermost function around it) for each call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        own = {arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    if isinstance(node, ast.Call):
        yield node, own
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, own)


def _callees(func, names: dict, defs: dict, modules) -> list:
    """The qualified functions a call of `func` may run: a class runs its __init__, and a method of an object
    whose type the AST does not tell is matched by its name, as `unreached` matches it."""
    if isinstance(func, ast.Name):
        target = names.get(func.id)
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and names.get(func.value.id) in modules:
        target = f"{names[func.value.id]}.{func.attr}"
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
    defs, walked, roots = _walk(sources, acceptance, kept)
    modules, done = set(sources), set()
    for nodes, names in roots + [([defs[name][0]], defs[name][1]) for name in walked]:
        for call, own in (c for node in nodes for c in _calls(node)):
            for target in _callees(call.func, names, defs, modules):
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
            "def width(spec):\n    return spec.epsilon + spec.norm()\n"
        ),
        "cli": "import sys\nfrom . import lattice\n\ndef main():\n    return lattice.width(None)\n\n"
               "if __name__ == '__main__':\n    sys.exit(main())\n",
    }
    # spec.epsilon is an attribute read, not a read of octonion.epsilon
    assert unreached(sources, "") == ["lattice.Spec.at", "octonion.epsilon"]
    assert unreached(sources, "from octo_cfs.octonion import epsilon\n") == ["lattice.Spec.at"]
    assert unreached(sources, "", kept=["lattice.Spec.at"]) == ["octonion.epsilon"]


def test_every_public_function_is_reached_by_a_command_or_the_acceptance_suite():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    acceptance = ACCEPTANCE.read_text()
    assert unreached(sources, acceptance, kept=EXEMPT) == []
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
