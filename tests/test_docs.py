"""``docs/`` describes now: a line budget, no PR numbers, pointers that resolve.

A page states current behaviour and current numbers; history lives in
CHANGES.md and git.  A page that outgrows its budget, or cites a PR by
number, has started to carry that history again.  And every pointer into
``docs/`` — a page named by path, and the heading quoted beside it —
must still lead somewhere.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

TOTAL_LINES = 1600
PAGE_LINES = 400

#: Where a pointer into ``docs/`` may sit.
POINTER_ROOTS = (
    "src",
    "tests",
    "examples",
    "docs",
    "README.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

#: A page named by path, and the heading quoted right after it, if any:
#: ``docs/simulator.md``, "Lifetimes" or ``docs/experiments.md`` ("The result cache").
POINTER = re.compile(r'docs/([a-z_]+)\.md`*\)?[,\s#(]*(?:"([A-Z][^"\n]*)")?')


def pages() -> dict[str, list[str]]:
    return {path.name: path.read_text(encoding="utf-8").splitlines() for path in DOCS.glob("*.md")}


def headings(lines: list[str]) -> set[str]:
    """A page's headings, outside fenced code."""
    found, fenced = set(), False
    for line in lines:
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and (match := re.match(r"#+\s+(.*\S)", line)):
            found.add(match.group(1))
    return found


def pointer_files():
    for root in POINTER_ROOTS:
        top = REPO / root
        if top.is_file():
            yield top
            continue
        for path in sorted(top.rglob("*")):
            if path.suffix in {".py", ".md", ".yml"}:
                yield path


def test_the_docs_fit_their_budget_and_cite_no_pr_number():
    docs = pages()
    total = sum(len(lines) for lines in docs.values())
    long_pages = {name: len(lines) for name, lines in docs.items() if len(lines) > PAGE_LINES}
    citations = [
        f"docs/{name}:{number}: {line.strip()}"
        for name, lines in docs.items()
        for number, line in enumerate(lines, 1)
        if re.search(r"\bPR \d+", line)
    ]
    assert total <= TOTAL_LINES, f"docs/ is {total} lines, over {TOTAL_LINES}"
    assert not long_pages, f"pages over {PAGE_LINES} lines: {long_pages}"
    assert not citations, "history belongs in CHANGES.md and git:\n" + "\n".join(citations)


def test_every_pointer_into_the_docs_resolves():
    docs = pages()
    broken = []
    for path in pointer_files():
        text = path.read_text(encoding="utf-8", errors="ignore")
        for match in POINTER.finditer(text):
            page, heading = f"{match.group(1)}.md", match.group(2)
            where = f"{path.relative_to(REPO)}:{text.count(chr(10), 0, match.start()) + 1}"
            if page not in docs:
                broken.append(f"{where}: docs/{page} does not exist")
            elif heading is not None and heading not in headings(docs[page]):
                broken.append(f'{where}: docs/{page} has no heading "{heading}"')
    assert not broken, "\n".join(broken)
