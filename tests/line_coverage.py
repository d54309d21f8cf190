"""Statement coverage of ``src/condfix`` for a pytest run, with the stdlib only.

A pytest plugin (pytest does not collect this file, which has no ``test_``
prefix). Run it as:

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage

It traces line events in ``src/condfix`` with ``sys.settrace`` and, at the
end of the run, lists each module's statements that no line event reached.
A statement counts as run when a line event lands anywhere within its
lines, so a compound statement counts once its header or any statement in
its body runs. Docstrings and ``global``/``nonlocal`` statements leave no
line events and are left out.

The tracer is installed when the plugin loads, before condfix is imported,
so module-level statements count, and again before every test: a
``RecursionError`` inside a traced frame switches tracing off (as the
deep-nesting tests provoke), and without that every later test would run
untraced.

Tracing makes tier-1 about five times slower (about 145 s against 30 s on
a 2-core host), so a test that bounds wall time, such as
``test_global_timeout_bounds_every_rung``, may fail under the plugin.
"""
import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "condfix"
PREFIX = str(PACKAGE) + "/"

_hits = {}  # file name -> line numbers with a line event, or None if not traced


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    lines = _hits.get(name, False)
    if lines is False:
        lines = _hits[name] = set() if name.startswith(PREFIX) else None
    return None if lines is None else _local


def _install():
    sys.settrace(_global)
    threading.settrace(_global)


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path):
    """(first line, last line, kind) of each statement that should run."""
    tree = ast.parse(path.read_text(), str(path))
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if not _is_docstring(node, parent):
                yield node.lineno, node.end_lineno, type(node).__name__


def unrun(path: Path, hits):
    """The statements of ``path`` that no line event reached, by line."""
    return sorted((first, kind) for first, last, kind in statements(path)
                  if not any(line in hits for line in range(first, last + 1)))


def pytest_runtest_setup(item):
    _install()


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("unrun statements in src/condfix")
    total = raises = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = unrun(path, _hits.get(str(path)) or set())
        total += len(missed)
        raises += sum(kind == "Raise" for _, kind in missed)
        for line, kind in missed:
            write(f"{path.relative_to(PACKAGE.parent)}:{line}: {kind}")
    write(f"{total} statements unrun, {raises} of them raises")


_install()
