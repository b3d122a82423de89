"""The repository's tools: the allowlist of statements no test runs."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _unexecuted():
    spec = importlib.util.spec_from_file_location(
        "unexecuted", TOOLS / "unexecuted.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_allowlist_gives_a_reason_for_each_statement():
    allowed = _unexecuted().read_allowed(TOOLS / "unexecuted_allow.txt")
    assert {module for module, _ in allowed} == {"src/polagram/cli.py"}
    assert allowed["src/polagram/cli.py", "sys.exit(main())"] == 1


@pytest.mark.parametrize("line", [
    "src/polagram/cli.py: sys.exit(main())",
    "src/polagram/cli.py: sys.exit(main())  -- ",
    "src/polagram/cli.py  -- no statement",
])
def test_an_allowlist_line_without_a_reason_is_refused(tmp_path, line):
    path = tmp_path / "allow.txt"
    path.write_text(f"# a comment\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="allow.txt:3: expected"):
        _unexecuted().read_allowed(path)
