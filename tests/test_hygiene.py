import ast
from pathlib import Path

import octo_cfs

SRC = Path(octo_cfs.__file__).parent


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
