"""``docs/paper_map.md`` names only code and tests that exist.

Every backticked repo path must exist, every ``tests/<file>.py::Name``
(``::Class::method`` too) must resolve to a class or def of that file,
and every bare ``TestX`` must be a class defined under ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_MAP = ROOT / "docs" / "paper_map.md"
TOP_DIRS = {"src", "tests", "docs", "bench", "benchmarks", "scripts", "examples"}
#: the legend's "names the primary test" placeholder
PLACEHOLDER = "tests/..."


def _spans():
    return re.findall(r"`([^`\n]+)`", PAPER_MAP.read_text(encoding="utf-8"))


def _paths():
    return sorted(
        {
            s
            for s in _spans()
            if "::" not in s
            and s != PLACEHOLDER
            and re.fullmatch(r"[\w.-]+(/[\w.-]*)+", s)
            and s.split("/")[0] in TOP_DIRS
        }
    )


def _test_ids():
    return sorted({s for s in _spans() if "::" in s})


def _test_classes():
    return sorted({s for s in _spans() if re.fullmatch(r"Test\w+", s)})


def _defs(body):
    return {
        node.name: node
        for node in body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_the_map_names_something_of_each_kind():
    assert _paths() and _test_ids() and _test_classes()


def test_paths_exist():
    assert [p for p in _paths() if not (ROOT / p).exists()] == []


def _resolves(test_id):
    file, *names = test_id.split("::")
    source = ROOT / file
    if not source.is_file():
        return False
    body = ast.parse(source.read_text(encoding="utf-8")).body
    for name in names:
        found = _defs(body).get(name)
        if found is None:
            return False
        body = found.body
    return True


def test_test_ids_resolve():
    assert [t for t in _test_ids() if not _resolves(t)] == []


def test_test_classes_are_defined():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "tests").rglob("*.py")]
    missing = [
        name
        for name in _test_classes()
        if not any(re.search(rf"^class {name}\b", src, re.MULTILINE) for src in sources)
    ]
    assert missing == []
