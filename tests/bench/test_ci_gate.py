"""Tests of the CI performance gate (measurement plumbing and thresholds)."""

import json

import pytest

from repro.bench.ci_gate import (
    DEFAULT_FACTOR,
    SECTIONS,
    as_baseline,
    compare_to_baseline,
    main,
)


def _payload(values, session=None, parallel=None, dynamic=None, service=None):
    payload = {"meta": {}, "sampling_seconds": dict(values)}
    if session is not None:
        payload["session_speedup"] = dict(session)
    if parallel is not None:
        payload["parallel_speedup"] = dict(parallel)
    if dynamic is not None:
        payload["dynamic_speedup"] = dict(dynamic)
    if service is not None:
        payload["service"] = dict(service)
    return payload


_SERVICE_OK = {
    "coalescing_bit_identity": 1.0,
    "coalescing_ratio": 20.0,
    "request_success": 1.0,
}


class TestCompareToBaseline:
    def test_passes_when_within_factor(self):
        baseline = _payload({"d/A": 0.10})
        current = _payload({"d/A": 0.19})
        assert compare_to_baseline(current, baseline) == []

    def test_fails_on_regression(self):
        baseline = _payload({"d/A": 0.10})
        current = _payload({"d/A": 0.21})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1 and "d/A" in problems[0]

    def test_custom_factor(self):
        baseline = _payload({"d/A": 0.10})
        current = _payload({"d/A": 0.25})
        assert compare_to_baseline(current, baseline, factor=3.0) == []

    def test_missing_rows_reported_on_both_sides(self):
        baseline = _payload({"d/A": 0.1, "d/B": 0.1})
        current = _payload({"d/A": 0.1, "d/C": 0.1})
        problems = compare_to_baseline(current, baseline)
        assert any("d/B" in p for p in problems)
        assert any("d/C" in p for p in problems)

    def test_default_factor_is_two(self):
        assert DEFAULT_FACTOR == pytest.approx(2.0)


class TestSessionReuseGate:
    def test_passes_when_speedup_meets_the_floor(self):
        baseline = _payload({}, session={"d/bbst": 1.5})
        current = _payload({}, session={"d/bbst": 1.5})
        assert compare_to_baseline(current, baseline) == []

    def test_fails_when_structure_reuse_stops_paying(self):
        baseline = _payload({}, session={"d/bbst": 1.5})
        current = _payload({}, session={"d/bbst": 1.02})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "session_reuse d/bbst" in problems[0]
        assert "reuse" in problems[0]

    def test_missing_session_rows_reported_on_both_sides(self):
        baseline = _payload({}, session={"d/bbst": 1.5, "d/kds": 1.3})
        current = _payload({}, session={"d/bbst": 2.0, "d/new": 2.0})
        problems = compare_to_baseline(current, baseline)
        assert any("d/kds" in p for p in problems)
        assert any("d/new" in p for p in problems)

    def test_baselines_without_session_section_still_compare(self):
        # Payloads predating the session gate must not crash the comparison.
        baseline = _payload({"d/A": 0.1})
        current = _payload({"d/A": 0.1}, session={"d/bbst": 2.0})
        problems = compare_to_baseline(current, baseline)
        assert problems == ["session_reuse d/bbst: missing from the committed baseline"]

    def test_as_baseline_halves_speedups_with_a_floor(self):
        current = _payload({"d/A": 0.1}, session={"d/bbst": 5.0, "d/kds": 1.4})
        written = as_baseline(current)
        assert written["sampling_seconds"] == {"d/A": 0.1}
        assert written["session_speedup"]["d/bbst"] == pytest.approx(2.5)
        assert written["session_speedup"]["d/kds"] == pytest.approx(1.05)


class TestParallelGate:
    def test_passes_when_speedup_meets_the_floor(self):
        baseline = _payload({}, parallel={"uniform-100k/bbst": 1.5})
        current = _payload({}, parallel={"uniform-100k/bbst": 1.8})
        assert compare_to_baseline(current, baseline) == []

    def test_fails_below_the_floor(self):
        baseline = _payload({}, parallel={"uniform-100k/bbst": 1.5})
        current = _payload({}, parallel={"uniform-100k/bbst": 1.1})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "parallel_speedup uniform-100k/bbst" in problems[0]

    def test_skipped_measurement_does_not_fail_the_floor(self):
        # A single-core machine (or a run without --parallel) omits the
        # section entirely; the committed floor must not fail it.
        baseline = _payload({"d/A": 0.1}, parallel={"uniform-100k/bbst": 1.5})
        current = _payload({"d/A": 0.1})
        assert compare_to_baseline(current, baseline) == []

    def test_measured_but_missing_row_fails(self):
        baseline = _payload({}, parallel={"uniform-100k/bbst": 1.5})
        current = _payload({}, parallel={})
        problems = compare_to_baseline(current, baseline)
        assert any("missing from the current measurements" in p for p in problems)

    def test_unknown_row_fails(self):
        baseline = _payload({}, parallel={"uniform-100k/bbst": 1.5})
        current = _payload({}, parallel={"uniform-100k/bbst": 2.0, "x/y": 2.0})
        problems = compare_to_baseline(current, baseline)
        assert any("x/y" in p and "committed baseline" in p for p in problems)

    def test_as_baseline_halves_parallel_speedups(self):
        current = _payload({}, parallel={"uniform-100k/bbst": 4.0})
        assert as_baseline(current)["parallel_speedup"]["uniform-100k/bbst"] == pytest.approx(2.0)

    def test_as_baseline_without_parallel_section(self):
        assert "parallel_speedup" not in as_baseline(_payload({"d/A": 0.1}))


class TestDynamicGate:
    def test_passes_when_speedup_meets_the_floor(self):
        baseline = _payload({}, dynamic={"uniform-20k/bbst": 2.0})
        current = _payload({}, dynamic={"uniform-20k/bbst": 5.5})
        assert compare_to_baseline(current, baseline) == []

    def test_fails_below_the_floor(self):
        baseline = _payload({}, dynamic={"uniform-20k/bbst": 2.0})
        current = _payload({}, dynamic={"uniform-20k/bbst": 1.1})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "dynamic_speedup uniform-20k/bbst" in problems[0]
        assert "full rebuild" in problems[0]

    def test_skipped_measurement_does_not_fail_the_floor(self):
        # A run without --dynamic omits the section entirely; the committed
        # floor must not fail it.
        baseline = _payload({"d/A": 0.1}, dynamic={"uniform-20k/bbst": 2.0})
        current = _payload({"d/A": 0.1})
        assert compare_to_baseline(current, baseline) == []

    def test_measured_but_missing_row_fails(self):
        baseline = _payload({}, dynamic={"uniform-20k/bbst": 2.0})
        current = _payload({}, dynamic={})
        problems = compare_to_baseline(current, baseline)
        assert any("missing from the current measurements" in p for p in problems)

    def test_unknown_row_fails(self):
        baseline = _payload({}, dynamic={"uniform-20k/bbst": 2.0})
        current = _payload({}, dynamic={"uniform-20k/bbst": 3.0, "x/y": 3.0})
        problems = compare_to_baseline(current, baseline)
        assert any("x/y" in p and "committed baseline" in p for p in problems)

    def test_as_baseline_halves_dynamic_speedups(self):
        current = _payload({}, dynamic={"uniform-20k/bbst": 6.0})
        assert as_baseline(current)["dynamic_speedup"]["uniform-20k/bbst"] == pytest.approx(3.0)

    def test_as_baseline_without_dynamic_section(self):
        assert "dynamic_speedup" not in as_baseline(_payload({"d/A": 0.1}))

    def test_committed_baseline_holds_the_dynamic_floor(self):
        from pathlib import Path

        committed_path = (
            Path(__file__).resolve().parents[2] / "benchmarks" / "baseline_ci.json"
        )
        committed = json.loads(committed_path.read_text())
        assert committed["dynamic_speedup"]["uniform-20k/bbst"] >= 1.5


class TestServiceGate:
    def test_passes_when_floors_hold(self):
        baseline = _payload({}, service=_SERVICE_OK)
        current = _payload(
            {},
            service={
                "coalescing_bit_identity": 1.0,
                "coalescing_ratio": 25.0,
                "request_success": 1.0,
            },
        )
        assert compare_to_baseline(current, baseline) == []

    def test_fails_when_bit_identity_breaks(self):
        baseline = _payload({}, service=_SERVICE_OK)
        current = _payload({}, service={**_SERVICE_OK, "coalescing_bit_identity": 0.0})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "coalescing_bit_identity" in problems[0]

    def test_fails_when_the_coalescer_stops_merging(self):
        baseline = _payload({}, service=_SERVICE_OK)
        current = _payload({}, service={**_SERVICE_OK, "coalescing_ratio": 1.0})
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "coalescing_ratio" in problems[0]

    def test_skipped_measurement_does_not_fail_the_floor(self):
        baseline = _payload({}, service=_SERVICE_OK)
        assert compare_to_baseline(_payload({}), baseline) == []

    def test_measured_but_missing_metric_fails(self):
        baseline = _payload({}, service=_SERVICE_OK)
        partial = {key: value for key, value in _SERVICE_OK.items()
                   if key != "request_success"}
        problems = compare_to_baseline(_payload({}, service=partial), baseline)
        assert any("request_success" in problem for problem in problems)

    def test_unknown_metric_fails(self):
        baseline = _payload({}, service=_SERVICE_OK)
        current = _payload({}, service={**_SERVICE_OK, "extra": 1.0})
        problems = compare_to_baseline(current, baseline)
        assert any("missing from the committed baseline" in p for p in problems)

    def test_as_baseline_halves_the_ratio_and_keeps_the_booleans(self):
        payload = as_baseline(_payload({}, service=_SERVICE_OK))
        assert payload["service"]["coalescing_bit_identity"] == 1.0
        assert payload["service"]["request_success"] == 1.0
        assert payload["service"]["coalescing_ratio"] == pytest.approx(10.0)

    def test_as_baseline_ratio_floor_stays_above_one(self):
        payload = as_baseline(
            _payload({}, service={**_SERVICE_OK, "coalescing_ratio": 1.3})
        )
        assert payload["service"]["coalescing_ratio"] == pytest.approx(1.2)

    def test_committed_baseline_holds_the_service_floors(self):
        from pathlib import Path

        committed_path = (
            Path(__file__).resolve().parents[2] / "benchmarks" / "baseline_ci.json"
        )
        committed = json.loads(committed_path.read_text())
        assert committed["service"]["coalescing_bit_identity"] == 1.0
        assert committed["service"]["request_success"] == 1.0
        assert committed["service"]["coalescing_ratio"] > 1.0


class TestMainEndToEnd:
    def test_write_baseline_then_gate(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        output = tmp_path / "bench.json"
        # Best-of-3 on both sides (the gate's real default): single-repeat
        # session-speedup measurements are too noisy on loaded machines to
        # reliably clear their own halved floor.
        assert (
            main(
                [
                    "--write-baseline",
                    "--baseline", str(baseline),
                    "--output", str(output),
                    "--repeats", "3",
                ]
            )
            == 0
        )
        written = json.loads(baseline.read_text())
        assert written["sampling_seconds"]
        # Gating against the just-written baseline always passes.
        assert (
            main(
                [
                    "--baseline", str(baseline),
                    "--output", str(output),
                    "--repeats", "3",
                    "--factor", "1000",
                ]
            )
            == 0
        )

    def test_help_lists_every_opt_in_section(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        shown = capsys.readouterr().out
        for section in SECTIONS:
            if section.opt_in:
                assert f"--{section.name}" in shown

    def test_missing_baseline_is_an_error(self, tmp_path):
        code = main(
            [
                "--baseline", str(tmp_path / "nope.json"),
                "--output", str(tmp_path / "bench.json"),
                "--repeats", "1",
            ]
        )
        assert code == 2
