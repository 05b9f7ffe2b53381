"""The paper-scale row script, on canned child output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def paper_scale():
    spec = importlib.util.spec_from_file_location(
        "bench_paper_scale", ROOT / "benchmarks" / "paper_scale.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(peak, seconds, digest="d1", iterations=120_000):
    return {
        "n": 10_000_000,
        "seconds": seconds,
        "gm_s": 4.0,
        "ub_s": 20.0,
        "sampling_s": 3.0,
        "iterations": iterations,
        "pairs_digest": digest,
        "peak_rss_mb": peak,
        "hwm_mb": {"input": 900.0, "gm": 1_500.0, "ub": peak, "sampling": peak},
    }


def test_parse_row_reads_the_last_row_line(paper_scale):
    stdout = "\n".join(
        ["loading", "row " + json.dumps(_row(1.0, 2.0)), "row " + json.dumps(_row(3.0, 4.0))]
    )
    assert paper_scale.parse_row(stdout + "\n")["peak_rss_mb"] == 3.0
    with pytest.raises(ValueError):
        paper_scale.parse_row('{"seconds": 1.0}\n')


def test_summary_compares_the_two_rows(paper_scale):
    rows = {"parent": _row(4_000.0, 40.0), "change": _row(2_600.0, 32.0)}
    summary = paper_scale.summary(rows)
    assert summary["peak_rss_ratio"] == pytest.approx(0.65)
    assert summary["seconds_ratio"] == pytest.approx(0.8)
    assert summary["same_pairs"] is True
    rows["change"] = _row(2_600.0, 31.0, iterations=1)
    assert paper_scale.summary(rows)["same_pairs"] is False
    rows["change"] = _row(2_600.0, 31.0, digest="d2")
    assert paper_scale.summary(rows)["same_pairs"] is False


def test_summary_skips_failed_runs(paper_scale):
    rows = {"parent": {"error": "MemoryError", "returncode": 1}, "change": _row(1.0, 1.0)}
    assert paper_scale.summary(rows) == {}


def test_main_runs_the_parent_first_and_keeps_the_recorders_sets(
    paper_scale, tmp_path, monkeypatch
):
    calls = []

    def fake_run(checkout, n, limit_mb):
        calls.append(checkout.name)
        return _row(2_000.0 if checkout.name == "change" else 4_000.0, 10.0)

    monkeypatch.setattr(paper_scale, "one_run", fake_run)
    output = tmp_path / "BENCH.json"
    output.write_text(json.dumps({"sets": {"parent": {"rows": []}}}))
    code = paper_scale.main(
        ["--output", str(output), "--parent", str(tmp_path / "parent"),
         "--checkout", str(tmp_path / "change"), "--n", "1000"]
    )
    assert code == 0
    assert calls == ["parent", "change"]
    document = json.loads(output.read_text())
    assert document["sets"] == {"parent": {"rows": []}}
    assert document["paper_scale"]["query"]["n"] == 1000
    assert document["paper_scale"]["query"]["t"] == paper_scale.T
    assert document["paper_scale"]["summary"]["peak_rss_ratio"] == pytest.approx(0.5)
