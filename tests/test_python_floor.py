import ast
from pathlib import Path

import vloc


def test_every_module_parses_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10. This checks grammar
    # only: a module calling a standard-library API added after 3.10 still
    # passes, so it is no substitute for running the tests under 3.10.
    modules = sorted(Path(vloc.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
