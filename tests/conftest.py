import os
from pathlib import Path

import numpy as np
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


def dense_conv_output(rows: np.ndarray, live: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    """Scatter the rulebook conv's compact output back to a dense [N, H', W', C]
    array: row i at flat site ``live[i]``, the trailing row everywhere else."""
    n, _, c = rows.shape
    dense = np.repeat(rows[:, -1:], hw[0] * hw[1], axis=1)
    dense[:, live] = rows[:, :-1]
    return dense.reshape(n, *hw, c)


def record_criterion(index: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _LINES.append(f"criterion {index:2d}: {status} - {detail}")


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)
