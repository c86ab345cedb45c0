"""Test-suite-wide marker wiring (see ``[tool.pytest.ini_options]``).

Three speed tiers partition the suite:

* ``fast`` — tier-1; auto-applied to every test that carries neither
  ``slow`` nor ``campaign``, so ``-m fast`` selects exactly the
  default tier without hand-marking hundreds of tests.
* ``slow`` — tier-2; deselected by the project-wide ``-m "not slow"``
  addopts, re-selected in CI with ``-m slow``.
* ``campaign`` — full-sweep scale; implies ``slow`` (added here) so
  the tier-1 filter never picks a campaign up by accident.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.get_closest_marker("campaign") is not None:
            item.add_marker(pytest.mark.slow)
        if (
            item.get_closest_marker("slow") is None
            and item.get_closest_marker("campaign") is None
        ):
            item.add_marker(pytest.mark.fast)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for one test.

    Returns the list the wrapper appends each call's arguments to (after
    ``self``), so a test can assert which calls a path made.
    """

    def wrap(owner, name):
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap
