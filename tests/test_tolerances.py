"""Every relative tolerance in the tests checks what it states.

``pytest.approx(x, rel=...)`` keeps its default abs = 1e-12, which for
values far below 1 replaces the stated relative tolerance with a much
looser one: ``pytest.approx(5e-5, rel=1e-12)`` accepts 5e-5 * (1 + 1e-8).
A test that states ``rel=`` therefore states ``abs=`` as well.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _rel_only_approx_calls():
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            keywords = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keywords and "abs" not in keywords:
                yield f"{path.name}:{node.lineno}"


def test_every_relative_approx_states_its_absolute_tolerance():
    assert list(_rel_only_approx_calls()) == []
