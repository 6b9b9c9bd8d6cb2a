"""The module layering: the structure definitions and the clique-width
expression algebra stand apart from the pipeline that builds partitions and
expressions, so a reader who checks a partition or an expression trusts
`core` and `structure` or `expr` and nothing else; and the simplicial
elimination lives in `decompose` alone.

Imports are read with `ast` from each module's source, including imports
inside functions and under `TYPE_CHECKING`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def package_imports(module: str) -> set[str]:
    """The modules outside the stdlib that pentaseven.<module> imports."""
    return {m for m in imports(module) if m.split(".")[0] not in sys.stdlib_module_names}


def test_structure_imports_only_core_and_the_stdlib():
    assert package_imports("structure") == {"pentaseven.core"}


def test_expr_imports_only_core_and_the_stdlib():
    assert package_imports("expr") == {"pentaseven.core"}


def test_cwd_defines_only_the_pipeline_glue():
    # every other name in cwd comes from the algebra or the pipeline
    tree = _tree("cwd")
    defined = [node for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr))]
    assert {getattr(node, "name", None) for node in defined} == {
        "ExpressionRefusal", "expr_for_class_graph"}
    assert package_imports("cwd") == {
        "pentaseven.core", "pentaseven.decompose", "pentaseven.expr", "pentaseven.recognize"}


def test_cwd_re_exports_only_the_names_perfbench_reads():
    # each name that cwd takes from expr and does not use itself is read as
    # cwd.<name> by perfbench, so the re-export line cannot grow
    tree = _tree("cwd")
    taken = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module == "expr"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read = {
        node.attr for path in (ROOT / "perfbench").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "cwd"
    }
    re_exported = taken - used
    assert re_exported and re_exported <= read


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


def loaded_by_import(module: str) -> list[str]:
    """The package's modules that a fresh `import pentaseven.<module>` loads."""
    script = (
        "import sys\n"
        f"import pentaseven.{module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('pentaseven')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_importing_structure_loads_no_pipeline_module():
    assert loaded_by_import("structure") == [
        "pentaseven", "pentaseven.core", "pentaseven.structure"]


def test_importing_expr_loads_no_pipeline_module():
    assert loaded_by_import("expr") == ["pentaseven", "pentaseven.core", "pentaseven.expr"]


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
