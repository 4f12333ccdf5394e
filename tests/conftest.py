import os

import pytest

from ekinv import composite


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs this process may run on, as ekinv reads it."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool this process starts."""
    started = []

    class Counted(composite.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(composite, "ProcessPoolExecutor", Counted)
    return started
