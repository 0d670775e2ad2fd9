"""splitwald declares numpy as its one dependency, so its modules import
only numpy, the package itself and the standard library. Other packages
may be installed where the tests run; an import of one would pass here and
fail on a clean install."""

import ast
import sys
from pathlib import Path

import splitwald


def test_modules_import_only_numpy_the_package_and_the_standard_library():
    paths = sorted(Path(splitwald.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in ("numpy", "splitwald", *sys.stdlib_module_names):
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
