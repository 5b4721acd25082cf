"""Shared test set-up."""

import os


def pytest_configure(config):
    # pyproject's `pythonpath` reaches only this process; tests that run the
    # command line start `python -m snaketrack` in a subprocess, so export
    # the checkout's src/ to them as well
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
