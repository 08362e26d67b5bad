"""The README's Library example runs as written."""

from pathlib import Path

from couplefix import Point

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_library_block() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return library.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    """Point starts go in, and the candidate and the brute-force results
    come out as Points; a hand-built map is one function on raw values."""
    namespace: dict = {}
    exec(compile(_first_library_block(), str(README), "exec"), namespace)
    cx, cy = namespace["report"].candidate
    assert isinstance(cx, Point) and isinstance(cy, Point)
    found = namespace["found"]
    assert found and all(isinstance(p, Point) for p in found)
    mid = namespace["mid"]  # a hand-built map takes raw values; evaluate takes Points
    assert mid.fn(1.0, 2.0) == 1.5 and mid.evaluate(Point(1.0), Point(2.0)) == Point(1.5)
