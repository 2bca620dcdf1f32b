"""Every tolerance in the tests and the verify suites checks what it states.

``pytest.approx(x, rel=...)`` keeps its default abs = 1e-12, which for
values far below 1 replaces the stated relative tolerance with a much
looser one: ``pytest.approx(5e-5, rel=1e-12)`` accepts 5e-5 * (1 + 1e-8).
A test that states ``rel=`` therefore states ``abs=`` as well.

A running maximum ``worst = max(worst, d)`` keeps ``worst`` when ``d`` is
nan, so a gate on it passes a nan deviation.  The package and the
acceptance criteria take the maximum of the whole list instead.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fluctus"


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


def _running_maxima(paths):
    # X = max(X, ...): an assignment whose target is also an argument of max
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "max"
                    and ast.unparse(node.targets[0]) in map(ast.unparse, node.value.args)):
                yield f"{path.name}:{node.lineno}"


def test_no_running_maximum_can_drop_a_nan():
    paths = sorted(PACKAGE.glob("*.py")) + [TESTS / "test_acceptance.py"]
    assert PACKAGE / "verify.py" in paths
    assert list(_running_maxima(paths)) == []


def test_the_running_maximum_guard_finds_one_and_only_one(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("worst = max(worst, d)\nx = max(a, beta)\nworst = max(d, 0.0)\n")
    assert list(_running_maxima([probe])) == ["probe.py:1"]
