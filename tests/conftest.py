import os
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable as a plain module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_left():
    # a CLI run with two or more root sets forks, cold or warm; every child
    # must be reaped before the command returns
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left an unreaped child process (waitpid: {pid})")
