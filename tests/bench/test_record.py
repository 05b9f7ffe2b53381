"""The BENCH recorder's aggregation, on canned ``pathbench/run.py`` output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "benchmarks" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = {
    "workloads": [{"name": "oneshot-skewed"}, {"name": "service-mixed"}],
    "end_to_end": [
        {"name": "draw_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "pairs_per_s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "core.count_s"}],
}


def _stdout(workload, seed, trace, metrics, correct=True, failed=0):
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": "abc",
        "runtime": {"kernel_backend": "numpy"},
    }
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    return "\n".join(["warming up", "record " + json.dumps(record), json.dumps(result)]) + "\n"


def _rows(record, workload, draws, pairs, count_s, failed=0):
    rows = [
        record.parse_run(
            _stdout(workload, seed, 0, {"draw_p50_ms": d, "pairs_per_s": p}, failed=failed)
        )
        for seed, d, p in zip((1, 2, 3), draws, pairs)
    ]
    rows.append(record.parse_run(_stdout(workload, 1, 1, {"core.count_s": count_s})))
    return rows


def test_parse_run_reads_the_record_and_the_last_line(record):
    row = record.parse_run(_stdout("oneshot-skewed", 2, 0, {"draw_p50_ms": 5.0}))
    assert row["record"]["seed"] == 2
    assert row["result"]["metrics"]["draw_p50_ms"]["value"] == 5.0
    with pytest.raises(ValueError):
        record.parse_run('{"correct": true}\n')


def test_aggregate_takes_medians_of_untraced_runs_and_layers_of_the_traced_one(record):
    rows = _rows(record, "oneshot-skewed", [30.0, 10.0, 20.0], [1.0, 3.0, 2.0], 4.5, failed=1)
    out = record.aggregate(rows, BENCHMARK)
    assert set(out) == {"oneshot-skewed"}
    summary = out["oneshot-skewed"]
    assert summary["medians"] == {"draw_p50_ms": 20.0, "pairs_per_s": 2.0}
    assert summary["values"]["draw_p50_ms"] == [30.0, 10.0, 20.0]
    assert summary["per_layer"] == {"core.count_s": 4.5}
    assert summary["seeds"] == [1, 2, 3]
    assert (summary["runs"], summary["attempted"], summary["failed"]) == (4, 40, 3)
    assert summary["correct"] is True


def test_compare_signs_worse_by_each_metrics_direction(record):
    before = _rows(record, "oneshot-skewed", [20.0] * 3, [100.0] * 3, 9.0)
    after = _rows(record, "oneshot-skewed", [10.0] * 3, [70.0] * 3, 4.0)
    parent = {"workloads": record.aggregate(before, BENCHMARK)}
    change = {"workloads": record.aggregate(after, BENCHMARK)}
    rows = record.compare(parent, change, BENCHMARK)["oneshot-skewed"]
    assert rows["draw_p50_ms"]["ratio"] == 0.5
    assert rows["draw_p50_ms"]["worse"] == -0.5 and rows["draw_p50_ms"]["within_bound"]
    assert rows["pairs_per_s"]["worse"] == pytest.approx(0.3)
    assert not rows["pairs_per_s"]["within_bound"]


def test_compare_counts_wins_per_seed_and_reports_the_parents_quartiles(record):
    before = _rows(record, "oneshot-skewed", [20.0, 30.0, 10.0], [100.0, 80.0, 90.0], 9.0)
    after = _rows(record, "oneshot-skewed", [10.0, 35.0, 5.0], [120.0, 80.0, 70.0], 4.0)
    parent = {"workloads": record.aggregate(before, BENCHMARK)}
    change = {"workloads": record.aggregate(after, BENCHMARK)}
    rows = record.compare(parent, change, BENCHMARK)["oneshot-skewed"]
    assert (rows["draw_p50_ms"]["wins"], rows["draw_p50_ms"]["pairs"]) == (2, 3)
    # Higher is better: 120 > 100 wins, the 80 = 80 tie does not.
    assert (rows["pairs_per_s"]["wins"], rows["pairs_per_s"]["pairs"]) == (1, 3)
    assert rows["draw_p50_ms"]["parent_q1"] <= 20.0 <= rows["draw_p50_ms"]["parent_q3"]


def test_main_alternates_which_checkout_runs_first(record, tmp_path, monkeypatch):
    benchmark = dict(BENCHMARK, workloads=[{"name": "oneshot-skewed"}], run_seconds=1)
    checkouts = {}
    for name in ("parent", "change"):
        checkouts[name] = tmp_path / name
        checkouts[name].mkdir()
        (checkouts[name] / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        metrics = {"core.count_s": 1.0} if trace else {"draw_p50_ms": 1.0, "pairs_per_s": 1.0}
        return record.parse_run(_stdout(workload, seed, trace, metrics))

    monkeypatch.setattr(record, "one_run", fake_run)
    output = tmp_path / "BENCH.json"
    argv = ["--output", str(output), "--checkout", str(checkouts["change"])]
    assert record.main(argv + ["--parent", str(checkouts["parent"])]) == 0
    assert [name for name, _, _ in calls] == ["parent", "change", "change", "parent"] * 2
    assert [(seed, trace) for _, seed, trace in calls[::2]] == [(1, 0), (2, 0), (3, 0), (1, 1)]
    document = json.loads(output.read_text())
    assert document["sets"]["change"]["alternated_with"] == "parent"
    assert document["change_vs_parent"]["oneshot-skewed"]["draw_p50_ms"]["pairs"] == 3


def _series(record, seeds, draws):
    """Untraced rows of one workload with the given per-seed ``draw_p50_ms``."""
    return [
        record.parse_run(
            _stdout("oneshot-skewed", seed, 0, {"draw_p50_ms": d, "pairs_per_s": 1.0})
        )
        for seed, d in zip(seeds, draws)
    ]


def _gain(record, parent_draws, change_draws, seeds=None):
    seeds = seeds or range(1, len(parent_draws) + 1)
    parent = {"workloads": record.aggregate(_series(record, seeds, parent_draws), BENCHMARK)}
    change = {"workloads": record.aggregate(_series(record, seeds, change_draws), BENCHMARK)}
    return record.compare(parent, change, BENCHMARK)["oneshot-skewed"]["draw_p50_ms"]


def test_gain_needs_ten_pairs_nine_wins_and_medians_apart_by_the_parents_iqr(record):
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    faster = [60.0, 62.0, 58.0, 61.0, 59.0, 60.0, 61.0, 59.0, 62.0, 58.0]
    row = _gain(record, parent, faster)
    assert (row["pairs"], row["wins"], row["gain"]) == (10, 10, True)
    # Nine pairs are too few, however clear the difference.
    assert not _gain(record, parent[:9], faster[:9])["gain"]
    # Eight wins of ten fall short of nine tenths; a tie wins for neither side.
    row = _gain(record, parent, faster[:8] + [120.0, 110.0])
    assert (row["wins"], row["gain"]) == (8, False)
    row = _gain(record, parent, faster[:9] + [parent[9]])
    assert (row["wins"], row["gain"]) == (9, True)
    # Ten wins, but the medians differ by less than the parent's quartile gap.
    barely = [value - 0.5 for value in parent]
    row = _gain(record, parent, barely)
    assert row["wins"] == 10 and row["parent_q3"] - row["parent_q1"] > 0.5
    assert not row["gain"]


def test_main_runs_the_given_seeds_and_traces_the_first(record, tmp_path, monkeypatch):
    benchmark = dict(BENCHMARK, workloads=[{"name": "oneshot-skewed"}], run_seconds=1)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((seed, trace))
        metrics = {"core.count_s": 1.0} if trace else {"draw_p50_ms": 1.0, "pairs_per_s": 1.0}
        return record.parse_run(_stdout(workload, seed, trace, metrics))

    monkeypatch.setattr(record, "one_run", fake_run)
    output = tmp_path / "BENCH.json"
    argv = ["--output", str(output), "--checkout", str(tmp_path), "--seeds", "7,8"]
    assert record.main(argv) == 0
    assert calls == [(7, 0), (8, 0), (7, 1)]
    summary = json.loads(output.read_text())["sets"]["change"]["workloads"]["oneshot-skewed"]
    assert summary["seeds"] == [7, 8]
