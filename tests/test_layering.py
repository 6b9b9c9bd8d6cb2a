"""The module layering: the structure definitions stand apart from the
pipeline that builds partitions, so a reader who checks a partition trusts
`core` and `structure` and nothing else; and the simplicial elimination lives
in `decompose` alone.

Imports are read with `ast` from each module's source, including imports
inside functions and under `TYPE_CHECKING`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PKG = SRC / "pentaseven"


def _tree(module: str) -> ast.Module:
    return ast.parse((PKG / f"{module}.py").read_text())


def imports(module: str) -> set[str]:
    """Every module that pentaseven.<module> imports anywhere in its source;
    a relative import names its target as pentaseven.<name>."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(f"pentaseven.{node.module}")
        elif isinstance(node, ast.ImportFrom):  # from . import a, b
            out.update(
                f"pentaseven.{alias.name}" if (PKG / f"{alias.name}.py").exists()
                else "pentaseven"
                for alias in node.names
            )
    return out


def test_structure_imports_only_core_and_the_stdlib():
    outside = {m for m in imports("structure")
               if m.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {"pentaseven.core"}


def test_generate_does_not_import_recognize():
    got = imports("generate")
    assert "pentaseven.structure" in got
    assert "pentaseven.recognize" not in got


def test_recognize_defines_no_structure_name_and_uses_each_it_imports():
    structure_names = {
        node.name for node in _tree("structure").body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    tree = _tree("recognize")
    defined = {
        node.name for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert not defined & structure_names
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "structure"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported and imported <= used


def test_importing_structure_loads_no_pipeline_module():
    script = (
        "import sys\n"
        "import pentaseven.structure\n"
        "print(sorted(m for m in sys.modules if m.startswith('pentaseven')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        ["pentaseven", "pentaseven.core", "pentaseven.structure"])


def test_decompose_alone_holds_the_simplicial_elimination():
    assert "pentaseven._kernels" not in imports("decompose")
    kernels = _tree("_kernels")
    assert not imports("_kernels")
    assigned = [
        target.id for node in kernels.body if isinstance(node, ast.Assign)
        for target in node.targets
    ]
    others = [node for node in kernels.body
              if not isinstance(node, (ast.Assign, ast.Expr))]
    assert assigned == ["BACKEND"] and not others
    core_defs = {node.name for node in _tree("core").body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not core_defs & {"simplicial_seed", "least_simplicial", "_seed_walk"}
