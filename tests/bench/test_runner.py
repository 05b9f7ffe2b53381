"""Tests for the experiment runner / registry."""

import pytest

from repro.bench.runner import EXPERIMENTS, run_all_experiments, run_experiment
from repro.bench.workloads import ExperimentScale


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table2",
            "table3",
            "table4",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "bucketcap",
            "crossover",
            "accuracy",
            "uniformity",
            "vecspeed",
            "kernels",
            "session",
            "parallel",
            "dynamic",
            "manager",
            "service",
            "warmstart",
        }
        assert expected == set(EXPERIMENTS)

    def test_titles_mention_paper_artifacts(self):
        assert "Table II" in EXPERIMENTS["table2"][0]
        assert "Fig. 9" in EXPERIMENTS["fig9"][0]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestRunExperiment:
    def test_single_experiment(self):
        rows = run_experiment("table2", scale=ExperimentScale.SMOKE, datasets=["castreet"])
        assert len(rows) == 1
        assert rows[0]["dataset"] == "castreet"


class TestRunAll:
    def test_subset_run_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        results = run_all_experiments(
            scale=ExperimentScale.SMOKE,
            datasets=["castreet"],
            output_path=report,
            echo=True,
            experiment_ids=["table2", "accuracy"],
        )
        assert set(results) == {"table2", "accuracy"}
        captured = capsys.readouterr()
        assert "Table II" in captured.out
        text = report.read_text()
        assert "# Experiment results" in text
        assert "### Table II" in text

    def test_no_echo(self, capsys):
        run_all_experiments(
            scale=ExperimentScale.SMOKE,
            datasets=["castreet"],
            echo=False,
            experiment_ids=["table2"],
        )
        assert capsys.readouterr().out == ""
