"""No feature without a consumer: every definition in ``src/repro`` is used.

The scan parses every module of ``src/repro`` and lists its functions,
classes and methods, and the names its module-level assignments bind
(``__all__`` aside; package ``__init__`` modules are not scanned for
them); dunder methods are left out, because the interpreter calls them.
A definition has a consumer when code names it outside the
definition's own body, in ``src/repro`` or anywhere in ``examples/``,
``benchmarks/`` or ``perfbench/``.  Code names a definition through a
``Name``, an ``Attribute`` or a word of a string literal used as a value,
such as the callables ``perfbench/layers.py`` wraps by name.  Comments,
docstrings and other bare string statements, ``__all__`` entries and
``import`` statements do not count, and neither do package ``__init__``
modules: a mention or a re-export is not a use.  Tests do not count
either: code whose only caller is its own test belongs in ``tests/`` or
nowhere.

The scan matches names, not objects, so a method that only tests call stays
hidden when another class's method of the same name has a consumer; a trace
of what the entry points execute finds those.

:data:`ALLOWED` names the definitions kept on purpose without a consumer,
each with its reason, and an entry that no longer matches an unconsumed
definition fails as stale.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterator, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONSUMER_DIRS = ("examples", "benchmarks", "perfbench")

LEDGER = "model-vs-simulator error ledger: will compare the analytical models with it"
TEST_REFERENCE = "test reference: tests compare product output against it"
HTTP_HOOK = "http.server hook: BaseHTTPRequestHandler calls it by name"

#: Qualified name -> why the definition stays without a consumer.
ALLOWED: Dict[str, str] = {
    "repro.lap.offchip.OffChipTrafficModel": LEDGER,
    "repro.lap.offchip.OffChipTrafficModel.roofline_gflops": LEDGER,
    "repro.lap.offchip.OffChipTrafficModel.transfer_energy_j": LEDGER,
    "repro.kernels.gemm.lac_gemm_steady_state_cycles": LEDGER,
    "repro.kernels.trsm.trsm_unblocked_cycle_estimate": LEDGER,
    "repro.kernels.cholesky.cholesky_unblocked_cycle_estimate": LEDGER,
    "repro.kernels.syrk.lac_syr2k": LEDGER,
    "repro.reference.blas3.ref_syr2k": LEDGER,
    "repro.reference.blas3.ref_gemm": TEST_REFERENCE,
    "repro.reference.blas3.ref_syrk": TEST_REFERENCE,
    "repro.reference.fft_ref.ref_dft": TEST_REFERENCE,
    "repro.reference.fft_ref.ref_fft_radix4": TEST_REFERENCE,
    "repro.reference.factorizations.ref_lu_partial_pivoting": TEST_REFERENCE,
    "repro.reference.factorizations.ref_householder_qr": TEST_REFERENCE,
    "repro.models.chip_model.ChipGEMMModel.sweep_onchip_memory_vs_bandwidth":
        TEST_REFERENCE,
    "repro.models.blas_model.BlasCoreModel.compare_operations": TEST_REFERENCE,
    "repro.serve.server._RequestHandler.do_GET": HTTP_HOOK,
    "repro.serve.server._RequestHandler.do_PUT": HTTP_HOOK,
    "repro.serve.server._RequestHandler.log_message": HTTP_HOOK,
}

#: ``(qualified name, name, file, first line, last line)`` of a definition;
#: the span includes its decorators.
Definition = Tuple[str, str, pathlib.Path, int, int]


def _definitions(body, prefix: str, path: pathlib.Path,
                 assignments: bool = False) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            qualname = f"{prefix}.{node.name}"
            yield qualname, node.name, path, first, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qualname, path)
        elif assignments and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                            and not _is_all(name)):
                        yield (f"{prefix}.{name.id}", name.id, path, node.lineno,
                               node.end_lineno)


def _is_all(target: ast.expr) -> bool:
    return isinstance(target, ast.Name) and target.id == "__all__"


def _uses(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every name the code under ``node`` uses."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(_is_all(target) for target in targets):
            return
    if isinstance(node, ast.Name):
        yield node.id, node.lineno
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        for word in re.findall(r"\w+", node.value):
            yield word, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _uses(child)


def unconsumed_definitions(root: pathlib.Path = ROOT) -> List[str]:
    """Qualified names of ``src/repro`` definitions with no consumer."""
    source = root / "src"
    definitions: List[Definition] = []
    consumers = []
    for path in sorted((source / "repro").rglob("*.py")):
        parts = list(path.relative_to(source).with_suffix("").parts)
        package = parts[-1] == "__init__"
        if package:
            parts.pop()
        else:
            consumers.append(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend(_definitions(tree.body, ".".join(parts), path,
                                        assignments=not package))
    for directory in CONSUMER_DIRS:
        consumers.extend(sorted((root / directory).rglob("*.py")))
    uses: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    for path in consumers:
        tree = ast.parse(path.read_text(), filename=str(path))
        for word, line_no in _uses(tree):
            uses.setdefault(word, []).append((path, line_no))
    return [qualname for qualname, name, path, first, last in definitions
            if all(where == path and first <= line_no <= last
                   for where, line_no in uses.get(name, ()))]


def test_every_definition_has_a_consumer():
    orphans = [name for name in unconsumed_definitions() if name not in ALLOWED]
    assert not orphans, (
        "definitions in src/repro that nothing outside tests/ names; give each "
        f"a consumer, move it into tests/ or delete it: {orphans}")


def test_every_allowlist_entry_is_still_unconsumed():
    stale = sorted(set(ALLOWED) - set(unconsumed_definitions()))
    assert not stale, ("allowlist entries that are gone or now have a "
                       f"consumer: {stale}")


def test_scan_flags_an_unused_function(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.used import helper, orphan\n__all__ = ['helper', 'orphan']\n")
    (package / "used.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def size(self):\n        return len(self)\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro import helper\nhelper()\nprint(getattr(object(), 'Box'))\n")
    assert unconsumed_definitions(tmp_path) == ["repro.used.orphan",
                                                "repro.used.Box.size"]


def test_scan_counts_only_code(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "defs.py").write_text(
        "def in_comment():\n    pass\n\n\n"
        "def in_docstring():\n    pass\n\n\n"
        "def in_all():\n    pass\n\n\n"
        "def in_import():\n    pass\n\n\n"
        "def in_string_value():\n    pass\n\n\n"
        "def in_code():\n    pass\n")
    (package / "user.py").write_text(
        '"""Wraps in_docstring."""\n'
        "from repro.defs import in_import, in_code\n"
        "__all__ = ['in_all']\n\n\n"
        "def run(tracer, owner):\n"
        "    # in_comment\n"
        "    tracer.patch(owner, 'in_string_value', None)\n"
        "    return in_code()\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.user import run\nrun(None, None)\n")
    assert unconsumed_definitions(tmp_path) == [
        "repro.defs.in_comment", "repro.defs.in_docstring",
        "repro.defs.in_all", "repro.defs.in_import"]


def test_scan_flags_an_unread_module_name(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VERSION = '1'\n")
    (package / "consts.py").write_text(
        "READ = 1\n"
        "UNREAD: int = 2\n"
        "PAIR, SPARE = 3, 4\n"
        "TABLE = {}\n"
        "TABLE['key'] = READ\n"
        "__all__ = ['UNREAD']\n\n\n"
        "class Box:\n    size = 5\n\n\n"
        "def total():\n    return READ + PAIR + TABLE['key'] + Box.size\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.consts import total\ntotal()\n")
    assert unconsumed_definitions(tmp_path) == ["repro.consts.UNREAD",
                                                "repro.consts.SPARE"]
