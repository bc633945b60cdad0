"""The README's python examples run as written and give the values their
comments state, so a change of the public API cannot leave them stale."""

import ast
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def example_values():
    """Run the README's python blocks in order in one namespace; the number of
    blocks and the value of each expression statement, keyed by its source."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    namespace, values = {}, {}
    for block in blocks:
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values[ast.get_source_segment(block, node)] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return len(blocks), values


def test_readme_examples_give_their_commented_values():
    count, values = example_values()
    assert count == 2

    def value(prefix):
        (found,) = [v for source, v in values.items() if source.startswith(prefix)]
        return found

    assert value("ha.gcru_residual(") < 1e-8                                 # holomorphic
    assert np.abs(value("ha.numeric_derivative(").coords - [1, 8]).max() < 1e-6  # 1 + 8 eps
    assert np.abs(value("ha.cif_value(").coords - [1, 3]).max() < 1e-8          # 1 + 3 eps
    assert value("ha.index_spectral(") == (1,)
    # columns 1.25 + 0.5 eps and 5j eps
    assert np.abs(value("g.values(") - [[1.25, 0], [0.5, 5j]]).max() < 1e-12
