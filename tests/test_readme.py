"""The README agrees with the code: its library example runs, and its
tables of reports and exit codes are the ones the package defines."""

import re
from pathlib import Path

from lefscalc import errors, reports

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _table(heading: str) -> list:
    """The rows of the first table after `heading`, each a list of its
    cells with backticks dropped; the header row and its rule are not
    rows."""
    lines = README[README.index(heading):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_the_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})


def test_the_reports_table_is_reports_fields():
    table = {kind: tuple(fields.split(", ")) for kind, _, fields in _table("### Reports")}
    assert table == reports.FIELDS


def test_the_exit_code_table_lists_each_error_code_and_a_failed_identity():
    documented = {int(code) for code, _ in _table("Exit codes:")}
    kinds = [errors.LefscalcError, *errors.LefscalcError.__subclasses__()]
    assert documented == {0, 1} | {kind.exit_code for kind in kinds}
