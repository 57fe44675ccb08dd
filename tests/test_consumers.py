"""No feature without a consumer: every definition in ``src/repro`` is used.

The scan parses every module of ``src/repro`` and lists its functions,
classes and methods; dunder methods are left out, because the interpreter
calls them.  A definition has a consumer when its name appears as a whole
word -- in code, a string such as the callables ``perfbench/layers.py``
wraps by name, or a comment -- in ``src/repro`` outside the definition's
own body, or anywhere in ``examples/``, ``benchmarks/`` or ``perfbench/``.
Package ``__init__`` modules do not count: a re-export is not a use.  Tests
do not count either: code whose only caller is its own test belongs in
``tests/`` or nowhere.

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
    "repro.kernels.gemm.lac_gemm_steady_state_cycles": LEDGER,
    "repro.kernels.trsm.trsm_unblocked_cycle_estimate": LEDGER,
    "repro.kernels.cholesky.cholesky_unblocked_cycle_estimate": LEDGER,
    "repro.kernels.syrk.lac_syr2k": LEDGER,
    "repro.reference.blas3.ref_syr2k": LEDGER,
    "repro.reference.blas3.ref_gemm": TEST_REFERENCE,
    "repro.reference.blas3.ref_syrk": TEST_REFERENCE,
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


def _definitions(body, prefix: str, path: pathlib.Path) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            qualname = f"{prefix}.{node.name}"
            yield qualname, node.name, path, first, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qualname, path)


def unconsumed_definitions(root: pathlib.Path = ROOT) -> List[str]:
    """Qualified names of ``src/repro`` definitions with no consumer."""
    source = root / "src"
    definitions: List[Definition] = []
    consumers = []
    for path in sorted((source / "repro").rglob("*.py")):
        parts = list(path.relative_to(source).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        else:
            consumers.append(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend(_definitions(tree.body, ".".join(parts), path))
    for directory in CONSUMER_DIRS:
        consumers.extend(sorted((root / directory).rglob("*.py")))
    uses: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    for path in consumers:
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
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
