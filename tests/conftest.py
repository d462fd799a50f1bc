import threading

import pytest


@pytest.fixture
def thread_starts(monkeypatch):
    """The list of threads started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started
