import pytest

from stubborn import checks


@pytest.fixture
def replay_draws(monkeypatch):
    """Make the suites draw the given unit values, in order, at any seed.

    `uniform(lo, hi)` returns lo + (hi - lo)*w for the next unit value w,
    as `checks._Uniforms` scales its words, so a scenario once drawn by
    some stream replays exactly from its unit draws.
    """

    def install(units):
        class Replay:
            def __init__(self, seed):
                self._units = iter(units)

            def uniform(self, lo, hi):
                return lo + (hi - lo) * next(self._units)

        monkeypatch.setattr(checks, "_Uniforms", Replay)

    return install
