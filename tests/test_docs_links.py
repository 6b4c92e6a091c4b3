"""The documentation's links and code references must not rot.

Walks ``README.md`` and ``docs/*.md`` and verifies that

* every relative markdown link resolves to an existing file;
* every backticked repo path (``src/...``, ``docs/...``, ``tests/...``,
  ``benchmarks/...``, ``examples/...``) exists;
* every backticked dotted ``repro.*`` reference resolves to a real
  module — and, when it names an attribute, the attribute exists.
"""

import functools
import importlib
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

DOCS = sorted([REPO / "README.md"] + list((REPO / "docs").glob("*.md")))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
PATH_PREFIXES = ("src/", "docs/", "tests/", "benchmarks/", "examples/")
DOTTED_RE = re.compile(r"^repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+$")


def _prose(doc: Path) -> str:
    """Document text with fenced code blocks removed."""
    return FENCE_RE.sub("", doc.read_text(encoding="utf-8"))


@functools.cache
def _tracked() -> frozenset[str] | None:
    """Every path git tracks in ``REPO``, plus every directory above one.

    ``None`` when ``REPO`` is not a git checkout (an unpacked sdist, say),
    or git cannot list it.
    """
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(REPO), "ls-files", "-z"],
                             capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    tracked = set()
    for name in filter(None, out.decode("utf-8").split("\0")):
        parts = name.split("/")
        tracked.update("/".join(parts[:i]) for i in range(1, len(parts) + 1))
    return frozenset(tracked)


def _present(path: str) -> bool:
    """Whether the repo holds ``path``, not just this working tree.

    In a git checkout a path counts only when git tracks it or a file
    under it, so a directory that an earlier run created does not hide
    one that a clean clone lacks.
    """
    tracked = _tracked()
    if tracked is None:
        return (REPO / path).exists()
    return path in tracked


def _doc_ids(paths):
    return [p.relative_to(REPO).as_posix() for p in paths]


def test_doc_set_nonempty():
    names = _doc_ids(DOCS)
    assert "README.md" in names
    assert "docs/ARCHITECTURE.md" in names
    assert "docs/OBSERVABILITY.md" in names


@pytest.mark.parametrize("doc", DOCS, ids=_doc_ids(DOCS))
def test_relative_links_resolve(doc):
    broken = []
    for target in LINK_RE.findall(doc.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = (doc.parent / target.split("#", 1)[0]).resolve()
        if not path.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken links {broken}"


@pytest.mark.parametrize("doc", DOCS, ids=_doc_ids(DOCS))
def test_backticked_paths_exist(doc):
    missing = []
    for token in INLINE_CODE_RE.findall(_prose(doc)):
        token = token.strip()
        if "/" not in token or not token.startswith(PATH_PREFIXES):
            continue
        if any(ch in token for ch in "*{} "):
            continue  # glob patterns and prose
        if not _present(token.rstrip("/")):
            missing.append(token)
    assert not missing, f"{doc.name}: missing paths {missing}"


def _check_dotted(ref: str) -> str | None:
    """Return an error string if ``ref`` doesn't resolve, else None."""
    parts = ref.split(".")
    # Longest prefix that exists on disk as a package or module.
    depth = 1
    if not (SRC / parts[0]).is_dir():
        return f"{ref}: no src/{parts[0]} package"
    for i in range(2, len(parts) + 1):
        candidate = SRC.joinpath(*parts[:i])
        if candidate.is_dir() or candidate.with_suffix(".py").is_file():
            depth = i
        else:
            break
    module = importlib.import_module(".".join(parts[:depth]))
    obj = module
    for attr in parts[depth:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return f"{ref}: {module.__name__} has no attribute {attr!r}"
    return None


@pytest.mark.parametrize("doc", DOCS, ids=_doc_ids(DOCS))
def test_dotted_repro_references_resolve(doc):
    errors = []
    for token in INLINE_CODE_RE.findall(_prose(doc)):
        token = token.strip().rstrip("()")
        if DOTTED_RE.match(token):
            error = _check_dotted(token)
            if error:
                errors.append(error)
    assert not errors, f"{doc.name}: {errors}"
