"""Rules the library source keeps."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coordinet"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
