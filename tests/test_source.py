"""Source-level rules for the package."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rees"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so checks must be named raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/rees: {found}"
