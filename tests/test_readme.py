"""The README's Python examples run and print what their comments say.

Each ```python block runs statement by statement in one namespace. A
statement whose line ends in a comment holding a Python literal, such as
`print(report.kinds())   # ['tangent']`, is an expression whose value
(the argument, for a `print`) must equal that literal.
"""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _literal_comments(source: str) -> dict[int, object]:
    """Line number -> the literal that the line's comment holds."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                out[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return out


def _shown_value(node: ast.Expr) -> ast.expr:
    call = node.value
    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
            and call.func.id == "print":
        return call.args[0]
    return call


def run_block(source: str) -> list[tuple[object, object]]:
    """Run one block; (value, commented literal) for each checked statement."""
    expected = _literal_comments(source)
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if node.end_lineno in expected:
            assert isinstance(node, ast.Expr), ast.unparse(node)
            code = compile(ast.Expression(_shown_value(node)), str(README), "eval")
            checked.append((eval(code, namespace), expected[node.end_lineno]))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return checked


def test_readme_python_examples_print_their_commented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    checked = [pair for block in blocks for pair in run_block(block)]
    assert [literal for _, literal in checked] == [["tangent"], 1.0, True, ([0.5], [1.0], [-0.7]),
                                                   (5, 3)]
    for value, literal in checked:
        assert value == literal
