import os
from pathlib import Path

import pytest

_LINES: list[str] = []
_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    """Child ``python -m evhybrid`` runs start in tmp dirs, where a relative
    ``PYTHONPATH=src`` resolves to nothing: put the absolute path first."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield


def record_criterion(index: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _LINES.append(f"criterion {index:2d}: {status} - {detail}")


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)
