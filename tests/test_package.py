import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sbc"
PERFBENCH = SRC.parents[1] / "perfbench"


# The set-up path that the benchmark times as setup_s.
SETUP = ("import sbc; config = sbc.config_from_dict({'model': {'kind': 'eight-schools', "
         "'parameterization': 'non-centered'}, 'sampler': {'kind': 'hmc'}}); "
         "sbc.model_from_dict(config.model)")
# What a serial run and config parsing must not load: the pool, the run and report layers.
POOL = {"concurrent.futures", "multiprocessing"}
RUN_AND_REPORT = {"sbc.runner", "sbc.samplers", "sbc.ess", "sbc.rankstats", "sbc.report", "csv"}


def loaded_modules(statements: str, *args: str) -> set[str]:
    """The modules a fresh interpreter has loaded once it has run ``statements`` with `sbc`
    importable; ``args`` follow the source directory in ``sys.argv``."""
    probe = (f"import sys; sys.path.insert(0, sys.argv[1]); {statements}\n"
             f"print(' '.join(sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe, str(SRC.parent), *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def sbc_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "sbc" or name.startswith("sbc.")}


def test_import_does_not_load_scipy():
    """`import sbc` stays numpy-only: scipy is a test dependency, and import time is set-up time.

    numpy.random is loaded only when the first random stream is built.
    """
    assert not {"scipy", "numpy.random"} & loaded_modules("import sbc")


def test_import_loads_no_submodule():
    assert sbc_modules(loaded_modules("import sbc")) == {"sbc"}


def test_setup_loads_only_the_config_and_model_layers():
    modules = loaded_modules(SETUP)
    assert sbc_modules(modules) == {"sbc", "sbc.config", "sbc.errors", "sbc.model",
                                    "sbc.models"}
    assert not (POOL | RUN_AND_REPORT) & modules


def test_serial_run_loads_no_pool_and_no_report():
    modules = loaded_modules(
        "import sbc; sbc.run(sbc.config_from_dict({'model': {'kind': 'normal-normal'}, "
        "'sampler': {'kind': 'exact-conjugate'}, 'N': 20, 'L': 9}))")
    assert "sbc.runner" in modules
    assert not (POOL | {"sbc.report"}) & modules


def test_every_export_resolves_to_its_definition():
    """Each name of ``sbc.__all__`` is the object its defining module binds, and ``dir``
    lists it; an unknown name raises AttributeError, and nothing resolved is stored in the
    package."""
    loaded_modules("""
import sbc
before = set(vars(sbc))
for name in sbc.__all__:
    value = getattr(sbc, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert value.__module__.startswith('sbc.') and name in dir(sbc), name
try:
    sbc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError('an unknown name resolved')
added = set(vars(sbc)) - before
assert added == {name[4:] for name in sys.modules if name.startswith('sbc.')}, added
assert not added & set(sbc.__all__), added
""")


def test_model_layer_exports_its_contract_alone():
    """A quantity is called through its own ``batch_evaluator``; no wrapper is exported."""
    loaded_modules("""
import sbc
model = sorted(name for name, module in sbc._EXPORTS.items() if module == 'model')
assert model == ['GenerativeModel', 'PosteriorTarget', 'Quantity', 'UnconstrainingMap',
                 'coordinate', 'posterior_target'], model
assert not hasattr(sbc, 'evaluate') and not hasattr(sbc.model, 'evaluate')
""")


def test_cli_subcommands_load_only_their_layers(tmp_path):
    """``list-models`` and ``list-samplers`` load the config and model layers alone, and
    ``report`` loads no pool."""
    main = "from sbc.cli import main; main(sys.argv[2:])"
    for command in ("list-models", "list-samplers"):
        assert sbc_modules(loaded_modules(main, command)) == {
            "sbc", "sbc.cli", "sbc.config", "sbc.errors", "sbc.model", "sbc.models"}
    config = tmp_path / "config.json"
    config.write_text('{"model": {"kind": "normal-normal"}, "sampler": {"kind": '
                      '"exact-conjugate"}, "N": 20, "L": 9}')
    artifact = tmp_path / "artifact"
    assert not POOL & loaded_modules(main, "run", "--config", str(config),
                                     "--out", str(artifact))
    modules = loaded_modules(main, "report", "--run", str(artifact),
                             "--out", str(tmp_path / "report"))
    assert "sbc.report" in modules and not POOL & modules


def _docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statements of a module and of its classes and functions."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)]


def line_counts(path: Path) -> tuple[int, int]:
    """A module's total lines and its code lines: those neither blank, nor a comment
    alone, nor part of a docstring."""
    source = path.read_text(encoding="utf-8")
    docstring_lines = {line for doc in _docstrings(ast.parse(source))
                       for line in range(doc.lineno, doc.end_lineno + 1)}
    lines = source.splitlines()
    code = [line for number, line in enumerate(lines, 1) if number not in docstring_lines
            and line.strip() and not line.lstrip().startswith("#")]
    return len(lines), len(code)


def _referenced_names(tree: ast.AST, strings: bool = True) -> set[str]:
    """Every name a module uses: loaded names, attributes, keyword arguments, imported
    names, and, with ``strings``, the parts of string constants spelling an identifier or
    a dotted path (hooks and ``getattr`` name their targets that way).  Docstrings are
    skipped."""
    docstrings = {id(doc.value) for doc in _docstrings(tree)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of module-level functions, classes and assigned names, the
    classes' methods and their annotated fields; dunder names are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            out.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (
                            name.id.startswith("__") and name.id.endswith("__")):
                        out.append((name.id, name.id))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((f"{node.name}.{name}", name))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = _parse(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_definition_is_referenced():
    """Each function, class, module-level name, method and class field of `sbc` is used by
    `sbc` or the benchmark somewhere beyond its definition.  The export table in
    `__init__.py` does not count, since its strings name every export; the code there
    does."""
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))
    referenced = _referenced_names(_parse(SRC / "__init__.py"), strings=False)
    for path in sources:
        referenced |= _referenced_names(_parse(path))
    unreferenced = [f"{path.name}: {qualified}"
                    for path in sorted(SRC.glob("*.py"))
                    for qualified, name in _definitions(_parse(path))
                    if name not in referenced]
    assert unreferenced == []


def test_line_counts_skip_blanks_comments_and_docstrings(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('''"""Module docstring
over two lines."""

# A comment.
import math  # a trailing comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return "#not a comment"
''')
    assert line_counts(module) == (14, 4)


if __name__ == "__main__":
    # Net line count of src/sbc: each module's total lines and code lines.
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        counts = line_counts(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'src/sbc':<16}{totals[0]:>7}{totals[1]:>7}")
    # Import footprint of the set-up path: import sbc, parse a config, build its model.
    modules = loaded_modules(SETUP)
    print(f"set-up path loads {' '.join(sorted(sbc_modules(modules)))}; "
          f"{len(modules)} modules in all")
