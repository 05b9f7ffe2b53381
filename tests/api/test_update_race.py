"""Regression: a draw racing ``SamplingSession.update`` is never refused as stale.

``update()`` swaps in the new point set, maintains every cached engine and
only then refreshes the inputs' fingerprints.  A draw that compared the new
points with the old fingerprints inside that window was refused with
``StaleInputError`` (HTTP 409 through the service) although nothing had been
mutated behind the session's back.
"""

import threading

from repro.api.session import SamplingSession
from repro.dynamic.sampler import DynamicSampler


def _in_thread(target, outcome, *args, **kwargs):
    def run():
        try:
            outcome["result"] = target(*args, **kwargs)
        except Exception as exc:  # reported by the asserting thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_draw_during_update_maintenance_is_not_stale(small_uniform_spec, rng, monkeypatch):
    session = SamplingSession.from_spec(small_uniform_spec, algorithm="bbst", eager=False)
    session.draw(8, seed=0)
    maintaining = threading.Event()
    release = threading.Event()
    maintain = DynamicSampler.update

    def blocked_update(self, *args, **kwargs):
        maintaining.set()
        assert release.wait(timeout=30)
        return maintain(self, *args, **kwargs)

    monkeypatch.setattr(DynamicSampler, "update", blocked_update)
    delete_ids = rng.choice(session.s_points.ids, size=4, replace=False)
    updated: dict = {}
    updater = _in_thread(session.update, updated, "s", delete=delete_ids)
    try:
        assert maintaining.wait(timeout=30)
        drawn: dict = {}
        drawer = _in_thread(session.draw, drawn, 8, seed=1)
        # Give the draw time to reach the freshness check while the update is
        # still maintaining the cached engine.
        drawer.join(timeout=0.5)
    finally:
        release.set()
    drawer.join(timeout=30)
    updater.join(timeout=30)
    session.close()

    assert not drawer.is_alive() and not updater.is_alive()
    assert "error" not in updated, updated
    assert updated["result"]["maintained"] == [["bbst", 500.0, 1]]
    assert "error" not in drawn, drawn
    assert len(drawn["result"]) == 8
