"""Hypothesis profiles: ``ci`` (the default) and ``deep`` (10x ci).

Choose one with hypothesis's own pytest option::

    python -m pytest tests/test_differential.py --hypothesis-profile deep

The oracle and fuzz properties (:func:`tests.oracle.examples`) state
their example counts under ``ci`` and scale with the active profile; a
test without settings of its own runs the profile's count.

The ``fresh_key_memo`` fixture empties the process-wide job key memo.
"""

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=100)
settings.register_profile("deep", max_examples=1000)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("ci")


@pytest.fixture
def fresh_key_memo():
    """The process-wide job key memo, empty, and emptied again after the
    test: an entry outlives a monkeypatched kernel builder, and keys that
    other tests left would turn a counted miss into a hit."""
    from repro.serve.identity import KEY_MEMO

    KEY_MEMO.clear()
    yield KEY_MEMO
    KEY_MEMO.clear()
