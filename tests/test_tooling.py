"""The test suite's own settings, and rules on the package's source that no
linter here checks."""

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tomllib

import boxspan

pytest_plugins = ["pytester"]

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(pytester):
    """Reporting a hypothesis failure writes a patch through libcst, whose
    import warns; under the suite's warning filters the session must go on
    to the next test rather than stop with an internal error."""
    with open(PYPROJECT, "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)


def test_package_imports_only_the_standard_library_numpy_and_scipy():
    """Every absolute import of the package, function-local ones included,
    names a standard-library module, numpy or scipy, the only dependencies
    the package declares; a module that happens to be installed here would
    pass every other test and still fail where only those are."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    imported = {}
    for path in sorted((ROOT / "src" / "boxspan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert {"numpy", "scipy"} <= set(imported)
    assert {name: where for name, where in imported.items() if name not in allowed} == {}


def test_package_imports_only_names_it_uses():
    """Every name a module of the package imports is read in that module,
    and __init__.py imports exactly the names of __all__.  No linter is
    installed, and an import a simplification leaves behind, such as a
    constant no longer read, passes every other test."""
    unused, exported = {}, None
    for path in sorted((ROOT / "src" / "boxspan").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        if path.name == "__init__.py":
            exported = next(ast.literal_eval(node.value) for node in tree.body
                            if isinstance(node, ast.Assign)
                            and [t.id for t in node.targets] == ["__all__"])
            assert sorted(imported) == sorted(exported)
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert exported
    assert unused == {}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes of a module and of its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def test_every_package_function_is_used_outside_the_tests():
    """Every function and method defined in the package, dunders aside, is
    named in src/ or perfbench/, test modules aside, outside its
    own definition (as a name, an attribute or a word of a string other
    than a docstring), or is exported in boxspan.__all__.  A function only the tests call is a
    test helper, and belongs in the tests."""
    uses: dict[str, list[tuple[pathlib.Path, int]]] = {}
    defined = []
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    words = [node.id]
                elif isinstance(node, ast.Attribute):
                    words = [node.attr]
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in docs):
                    words = re.findall(r"\w+", node.value)
                else:
                    words = []
                for word in words:
                    uses.setdefault(word, []).append((path, node.lineno))
                if top == "src" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((path, node))
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node in defined
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in boxspan.__all__
              and not any(where != path or not node.lineno <= line <= node.end_lineno
                          for where, line in uses.get(node.name, []))]
    assert unused == []


def test_l1_of_coordinate_rows_is_summed_once():
    """No code of the package sums an L1 of its own, ``np.abs(a - b).sum(...)``:
    center selection, the builder and the stretch scan rest on sigma >= L1
    to the bit, which holds for the one sum, geodesic._l1, and they call it."""
    sums = []
    for path in sorted((ROOT / "src" / "boxspan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum" and isinstance(node.func.value, ast.Call)
                    and ast.unparse(node.func.value.func) == "np.abs"
                    and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                            for arg in node.func.value.args)):
                sums.append(f"{path.name}:{node.lineno}")
    assert sums == []

def test_only_dunder_main_runs_as_a_script():
    """``boxspan`` (``cli.entry``) and ``python -m boxspan`` are the ways in:
    no module of the package but ``__main__.py`` has a ``__main__`` block."""
    blocks = []
    for path in sorted((ROOT / "src" / "boxspan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                    and "__main__" in ast.unparse(node.test)):
                blocks.append(f"{path.name}:{node.lineno}")
    assert blocks == []


def test_cli_commands_leave_io_errors_to_main():
    """``cli.main`` maps an OSError to exit 2 for every command, so no
    ``cmd_*`` function has an ``except`` clause that names OSError."""
    path = ROOT / "src" / "boxspan" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 4
    catching = [f"{command.name}:{handler.lineno}" for command in commands
                for handler in ast.walk(command)
                if isinstance(handler, ast.ExceptHandler) and handler.type is not None
                and "OSError" in {n.id for n in ast.walk(handler.type)
                                  if isinstance(n, ast.Name)}]
    assert catching == []


def test_readme_library_example_runs(tmp_path):
    """The python block under "## Library example" in README.md runs to a
    clean exit with src/ on the path, so the names it imports stay exported."""
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_readme_command_line_block_runs(tmp_path):
    """Each ``boxspan`` line of the sh block under "## Command line" in
    README.md, run as ``python -m boxspan`` in one directory with src/ on
    the path, exits 0."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    assert len(lines) == 5 and all(line.startswith("boxspan ") for line in lines)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in lines:
        result = subprocess.run([sys.executable, "-m", *shlex.split(line)], cwd=tmp_path,
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, (line, result.stderr)
