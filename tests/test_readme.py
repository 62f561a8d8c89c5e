"""The README's Python API example runs, and each of its top-level lines
``expr  # value`` gives that value."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_api_blocks():
    """The fenced python blocks of the ``## Python API`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_python_api_example_gives_its_commented_values():
    checked = []
    for block in python_api_blocks():
        lines, namespace = block.splitlines(), {}
        for node in ast.parse(block).body:
            comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            if isinstance(node, ast.Expr) and comment.startswith("#"):
                got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                expected = ast.literal_eval(comment[1:].strip())
                assert got == expected, ast.unparse(node)
                checked.append(expected)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == [(9, 1, 2, 0, 3), (1, -1), 2]
