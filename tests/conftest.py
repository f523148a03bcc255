import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-horizon integration or full campaign tests")
    config.addinivalue_line("markers", "acceptance: acceptance-gate criteria")


@pytest.fixture
def use_cpus(monkeypatch):
    """Set how many usable CPUs, and so pool workers, the program sees."""
    def use(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use
