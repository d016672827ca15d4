"""The README's library tour runs, and each value it shows is the real one."""

from pathlib import Path

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
