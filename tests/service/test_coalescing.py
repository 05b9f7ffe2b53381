"""Coalescing determinism: coalesced == serial == unmanaged twin, bit for bit.

The service's central guarantee: whatever a ``draw(t, seed=s)`` request was
batched with, its reply is a pure function of ``(data, algorithm, t, seed)``.
The three-way test serves the same pinned-seed request schedule (a) through
the coalescer under maximal concurrency, (b) serially through the same core,
and (c) on an unmanaged :class:`~repro.api.session.SamplingSession` twin,
and requires the exact same pairs from all three.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.session import SamplingSession
from repro.errors import InvalidSpecError
from repro.service import ServiceConfig

from service_helpers import ALGORITHM, HALF_EXTENT, make_core, make_spec

# Concurrency/statistics stress: allow far more than the global
# per-test timeout (pytest-timeout; a no-op when the plugin is absent).
pytestmark = pytest.mark.timeout(600)

CLIENTS = 24
SAMPLES = 12
SEED_BASE = 9_000


def test_concurrent_serial_and_twin_draws_are_bit_identical():
    core = make_core(ServiceConfig(coalesce_window=0.01, executor_threads=2))
    spec = make_spec(seed=7, name="tenant-0")  # same data as the bound tenant
    twin = SamplingSession.from_spec(spec, algorithm=ALGORITHM, eager=False)
    try:
        seeds = [SEED_BASE + index for index in range(CLIENTS)]

        async def concurrent():
            return await asyncio.gather(
                *[core.draw(SAMPLES, seed=seed) for seed in seeds]
            )

        coalesced = asyncio.run(concurrent())
        # The long window plus simultaneous submission must actually merge:
        # otherwise this test would pass vacuously with batch size 1.
        assert any(
            result.metadata["coalesced_batch"] > 1 for result in coalesced
        ), "no request was coalesced - the batching path went untested"

        async def serial():
            results = []
            for seed in seeds:
                results.append(await core.draw(SAMPLES, seed=seed))
            return results

        one_by_one = asyncio.run(serial())

        for seed, batched, alone in zip(seeds, coalesced, one_by_one):
            reference = twin.draw(SAMPLES, seed=seed)
            assert batched.id_pairs() == reference.id_pairs(), (
                f"coalesced draw (seed={seed}) diverged from the unmanaged twin"
            )
            assert alone.id_pairs() == reference.id_pairs(), (
                f"serial managed draw (seed={seed}) diverged from the twin"
            )
    finally:
        twin.close()
        core.close()


def test_distinct_draws_coalesce_separately_and_stay_bit_identical():
    core = make_core(ServiceConfig(coalesce_window=0.01, executor_threads=2))
    spec = make_spec(seed=7, name="tenant-0")
    twin = SamplingSession.from_spec(spec, algorithm=ALGORITHM, eager=False)
    try:
        async def scenario():
            plain = [core.draw(SAMPLES, seed=SEED_BASE + i) for i in range(6)]
            distinct = [
                core.draw_distinct(SAMPLES, seed=SEED_BASE + i) for i in range(6)
            ]
            return await asyncio.gather(*plain, *distinct)

        results = asyncio.run(scenario())
        plain, distinct = results[:6], results[6:]
        for index, (p, d) in enumerate(zip(plain, distinct)):
            seed = SEED_BASE + index
            assert p.id_pairs() == twin.draw(SAMPLES, seed=seed).id_pairs()
            assert (
                d.id_pairs()
                == twin.draw_distinct(SAMPLES, seed=seed).id_pairs()
            )
            assert d.metadata["distinct"] is True
    finally:
        twin.close()
        core.close()


def test_max_batch_flush_preserves_determinism():
    core = make_core(
        ServiceConfig(coalesce_window=0.05, coalesce_max_batch=4, executor_threads=2)
    )
    spec = make_spec(seed=7, name="tenant-0")
    twin = SamplingSession.from_spec(spec, algorithm=ALGORITHM, eager=False)
    try:
        seeds = [SEED_BASE + index for index in range(10)]

        async def scenario():
            return await asyncio.gather(
                *[core.draw(SAMPLES, seed=seed) for seed in seeds]
            )

        results = asyncio.run(scenario())
        # 10 requests against max_batch=4 must split into multiple batches
        # without ever waiting out the long window for the full ones.
        assert all(r.metadata["coalesced_batch"] <= 4 for r in results)
        for seed, result in zip(seeds, results):
            assert result.id_pairs() == twin.draw(SAMPLES, seed=seed).id_pairs()
    finally:
        twin.close()
        core.close()


def test_requests_for_different_entries_never_share_a_batch():
    core = make_core(ServiceConfig(coalesce_window=0.01, executor_threads=2))
    try:
        async def scenario():
            wide = core.draw(6, seed=1, half_extent=HALF_EXTENT)
            narrow = core.draw(6, seed=1, half_extent=HALF_EXTENT / 2)
            return await asyncio.gather(wide, narrow)

        wide, narrow = asyncio.run(scenario())
        assert wide.metadata["coalesced_batch"] == 1
        assert narrow.metadata["coalesced_batch"] == 1
        assert wide.id_pairs() != narrow.id_pairs()
    finally:
        core.close()


def test_batch_failure_fans_out_to_every_coalesced_request():
    core = make_core(ServiceConfig(coalesce_window=0.01, executor_threads=2))
    try:
        async def scenario():
            tasks = [
                asyncio.create_task(
                    core.draw(4, seed=index, algorithm="no-such-algorithm")
                )
                for index in range(5)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 5
        assert all(isinstance(outcome, Exception) for outcome in outcomes)
        assert core.stats()["service"]["errors_total"] == 5
        # The failure poisons nothing: the same core keeps serving.
        result = asyncio.run(core.draw(4, seed=0))
        assert len(result) == 4
    finally:
        core.close()


def test_invalid_t_rejected_without_failing_companions():
    core = make_core(ServiceConfig(coalesce_window=0.01, executor_threads=2))
    try:
        async def scenario():
            good = asyncio.create_task(core.draw(4, seed=0))
            with pytest.raises(InvalidSpecError):
                await core.draw(-3, seed=1)
            return await good

        result = asyncio.run(scenario())
        assert len(result) == 4
    finally:
        core.close()



def test_negative_seed_fails_alone_without_failing_its_batch():
    from repro.service.http import _map_exception

    core = make_core(ServiceConfig(coalesce_window=0.05, executor_threads=2))
    twin = SamplingSession.from_spec(
        make_spec(seed=7, name="tenant-0"), algorithm=ALGORITHM, eager=False
    )
    try:
        solo = asyncio.run(core.draw(10, seed=7))

        async def scenario():
            return await asyncio.gather(
                core.draw(10, seed=7), core.draw(10, seed=-1), return_exceptions=True
            )

        good, bad = asyncio.run(scenario())
        assert isinstance(bad, InvalidSpecError)
        assert _map_exception(bad).status == 400
        assert not isinstance(good, BaseException), good
        assert good.id_pairs() == solo.id_pairs()
        # draw_batch checks every seed before it draws anything.
        with pytest.raises(InvalidSpecError):
            twin.draw_batch([(5, 1), (5, -2)])
        assert twin.stats.requests == 0
    finally:
        twin.close()
        core.close()
