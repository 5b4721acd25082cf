"""Shared test set-up."""

import os

from hypothesis import settings

# property tests run whole decodes and supervisor sweeps, whose time per
# example varies with the host's load; a per-example deadline would make
# them flaky without checking anything about the program
settings.register_profile("snaketrack", deadline=None)
settings.load_profile("snaketrack")


def pytest_configure(config):
    # pyproject's `pythonpath` reaches only this process; tests that run the
    # command line start `python -m snaketrack` in a subprocess, so export
    # the checkout's src/ to them as well
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
