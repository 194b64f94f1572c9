import os

import pytest


class ForkSafeLog:
    """A list of text lines kept in a file.

    Each append is one os.write to a file opened with O_APPEND, so lines
    appended by forked processes (the sweep's workers) reach the test too,
    where appends to a Python list in a child are lost.
    """

    def __init__(self, path):
        self.path = path

    def append(self, line):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, f"{line}\n".encode())
        finally:
            os.close(fd)

    def lines(self):
        return self.path.read_text().splitlines() if self.path.exists() else []


@pytest.fixture
def fork_log(tmp_path):
    """fork_log(name) -> a ForkSafeLog in its own file under tmp_path."""
    return lambda name: ForkSafeLog(tmp_path / f"{name}.log")
