"""A pytest plugin that runs tests on blindsig's pow fallback, as on a
machine where neither libcrypto nor libgmp loads (macOS among them):

    PYTHONPATH=src:tests python -m pytest -p pow_fallback tests/test_cli.py

Every exponentiation and unblind's inverse then run on Python's pow. A test
that needs a library skips itself; a command run in a child process still
loads the libraries.
"""

from __future__ import annotations

from blindvote import blindsig


def pytest_configure(config) -> None:
    blindsig._libcrypto = lambda: None
    blindsig._libgmp = lambda: None
