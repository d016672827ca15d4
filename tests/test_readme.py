"""The README's library tour runs, each value it shows is the real one, and
its size limits are the package's."""

from pathlib import Path

from auctionkit.valuations import LIMITS

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> list[str]:
    """The lines of the first python block after the tour's heading."""
    text = README.read_text().split("## Library tour", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_tour_shows_each_value():
    namespace: dict = {}
    shown = 0
    for line in _tour():
        code, _, comment = line.partition("  #")
        if not code.strip() or code.lstrip().startswith("#"):
            continue
        if not comment:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == comment.strip(), line
        shown += 1
    assert shown >= 10


def test_size_limits_section_lists_the_table():
    """Each row of the section's table names one entry of LIMITS and its
    value, and every entry has a row."""
    section = README.read_text().split("## Size limits", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    listed = {entry.strip().strip("`"): int(limit.split()[0].replace(",", ""))
              for entry, limit in rows}
    assert len(listed) == len(rows)
    assert listed == LIMITS
