"""README.md's examples run as written and give the values their comments state.

Every ```` ```python ```` block runs in one namespace, in order, one statement at a time; the value
of each expression statement is kept under its source text.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def values():
    namespace, found = {}, {}
    for block in re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                found[ast.get_source_segment(block, node)] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return found


def test_three_box_column_and_its_most_negative_entry(values):
    np.testing.assert_allclose(values["dist.table[:, 0]"], [1 / 9, 1 / 9, -1 / 9], rtol=0.0, atol=1e-10)
    assert values["negativity(dist).min_real"] == pytest.approx(-1 / 9, abs=1e-10)


def test_both_overlaps_are_one(values):
    assert values["overlap_from_kd(dist, ActionSpectrum(boxes, (0, 0, math.pi)), 0)"] == pytest.approx(1.0, abs=1e-10)
    assert values["Transformation(dist, (0, 0, math.pi), 0).direct"] == pytest.approx(1.0, abs=1e-10)


def test_pointer_reads_the_weak_value_of_box_3(values):
    probability, mean = values["stats.probability[0], stats.mean[0]"]
    assert probability == pytest.approx(1 / 9, abs=1e-3)
    assert mean == pytest.approx(-1.0, abs=1e-3)
    assert values["stats.mean[2]"] is None


def test_bell_reaches_two_root_two(values):
    assert values['got["<K> = 2 (sin + cos)"]'] == pytest.approx(2 * math.sqrt(2), abs=1e-10)
