"""CI performance gate: a quick bench smoke with regression thresholds.

Run as ``python -m repro.bench.ci_gate``.  Each gate section is one row of
:data:`SECTIONS`: it runs a registered experiment
(:data:`repro.bench.runner.EXPERIMENTS`) with pinned arguments, reduces the
rows of its repeats into metrics, writes them to ``BENCH_ci.json`` and
compares them with the committed ``benchmarks/baseline_ci.json``:

* ``sampling`` - the Table IV sampling phase of every ``(dataset,
  algorithm)`` on the two smallest proxies, fastest of ``--repeats``, must
  stay within ``--factor`` (default 2) times its baseline;
* ``session_reuse`` - N ``draw()`` requests on one
  :class:`~repro.api.session.SamplingSession` versus N one-shot ``sample()``
  calls must keep the committed minimum speedup (structure reuse must pay);
* ``parallel`` (``--parallel``, multi-core machines only) - the
  shard-parallel engine at ``jobs=4`` on n = m = 100,000 versus the serial
  path, with bit-identical per-shard weight totals;
* ``dynamic`` (``--dynamic``) - incremental insert/delete maintenance versus
  one full rebuild per round, with a maintained state bit-identical to a
  fresh build;
* ``manager`` (``--manager``) - 8 tenants under a ~50% memory budget: the
  budget is never exceeded, every post-eviction draw is bit-identical to a
  never-evicted twin, and evictions actually happened (exact 0/1 floors);
* ``service`` (``--service``, multi-core machines only) - 1,000 concurrent
  keep-alive HTTP clients: every reply bit-identical to an unmanaged twin,
  no failed request, and a minimum coalescing ratio;
* ``kernels`` (``--kernels``, numba machines only) - the compiled backend
  versus its numpy twin at n = m = 1,000,000: a >= 3x sampling-phase floor,
  bit-identical draws and a peak-RSS *ceiling*;
* ``warmstart`` (``--warmstart``) - attaching a saved artifact versus the
  cold build/count pipeline at n = m = 1,000,000: a >= 10x floor and
  bit-identical warm draws.

Speedups whose correctness boolean fails are recorded as 0.0, so a wrong
distribution can never pass a floor.  Every section's outcome is printed as
an explicit ``section <name>: PASS|SKIP|FAIL`` line - a skipped section is
never conflated with a passing one.  The committed baseline holds *generous*
values; refresh it with ``python -m repro.bench.ci_gate --write-baseline``
after intentional performance changes (each metric's slack rule turns the
measurement into its committed floor).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench.runner import EXPERIMENTS
from repro.bench.workloads import ExperimentScale

__all__ = [
    "DEFAULT_FACTOR",
    "Metric",
    "Section",
    "SECTIONS",
    "collect_section",
    "collect_measurements",
    "compare_to_baseline",
    "summarize_sections",
    "as_baseline",
    "main",
]

#: Default allowed slowdown versus the committed baseline.
DEFAULT_FACTOR = 2.0

DEFAULT_BASELINE = Path("benchmarks") / "baseline_ci.json"
DEFAULT_OUTPUT = Path("BENCH_ci.json")

#: How a measurement is held against its committed value.
FLOORS: dict[str, Callable[[float, float, float], bool]] = {
    "minimum": lambda measured, committed, factor: measured < committed,
    "ceiling": lambda measured, committed, factor: measured > committed,
    "factor": lambda measured, committed, factor: measured > factor * committed,
}


def _verbatim(value: float) -> float:
    return value


def _scaled(divisor: float, floor: float) -> Callable[[float], float]:
    """Slack rule: the measurement divided by ``divisor``, never below ``floor``."""
    return lambda value: round(max(floor, value / divisor), 3)


@dataclass(frozen=True)
class Metric:
    """One gated quantity of a section.

    ``name`` is the metric's key in the section payload; ``""`` means the
    payload itself is the metric's map.  A ``per_row`` metric is a map keyed
    by ``dataset/algorithm``, each key reduced over repeats; a scalar metric
    is reduced over every row of every repeat.  ``message`` is formatted
    with ``measured``, ``required`` and ``factor`` when the floor fails.
    """

    name: str
    value: Callable[[dict], float]
    reduce: Callable[[Iterable[float]], float]
    floor: str
    message: str
    per_row: bool = False
    slack: Callable[[float], float] = _verbatim
    shown: str = "{:g}"
    digits: int = 3


@dataclass(frozen=True)
class Section:
    """One gate section: which experiment it runs and how its metrics gate.

    Sections with ``opt_in`` run only under ``--<name>``; ``skip`` names why
    a requested section cannot run on this machine (``None`` when it can).
    ``repeats=None`` follows the ``--repeats`` option.  ``meta`` adds entries
    to the payload's ``meta`` when the section ran.
    """

    name: str
    key: str
    label: str
    experiment: str
    kwargs: dict[str, Any]
    metrics: tuple[Metric, ...]
    repeats: int | None = None
    opt_in: bool = False
    help: str = ""
    skip: Callable[[], str | None] = lambda: None
    meta: Callable[[], dict[str, Any]] = dict


def _row_key(row: dict) -> str:
    return f"{row['dataset']}/{row['algorithm']}"


def _column(name: str) -> Callable[[dict], float]:
    return lambda row: float(row[name])


def _speedup_if(check: str) -> Callable[[dict], float]:
    """The row's speedup, or 0.0 when its correctness boolean ``check`` fails."""
    return lambda row: float(row["speedup"]) if row[check] else 0.0


def _boolean(check: str) -> Callable[[dict], float]:
    return lambda row: 1.0 if row[check] else 0.0


def _success(row: dict) -> float:
    total = row["requests_total"]
    return float(row["requests_ok"]) / float(total) if total else 0.0


def _peak_rss_bytes(row: dict) -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS; the committed ceiling is
    # generous enough that the platform difference never flips the gate).
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def _needs_cpus(minimum: int) -> Callable[[], str | None]:
    def reason() -> str | None:
        cpus = os.cpu_count() or 1
        if cpus >= minimum:
            return None
        return f"only {cpus} CPU(s) available (needs >= {minimum})"

    return reason


def _needs_numba() -> str | None:
    from repro.kernels import numba_available

    if numba_available():
        return None
    return "numba is not installed (pip install repro[numba])"


def _numba_meta() -> dict[str, Any]:
    from repro.kernels import numba_version

    return {"numba": numba_version()}


_DATASETS = ("castreet", "foursquare")
_SAMPLES = 2_000
_SESSION = {"requests": 6, "num_samples": 500}
_PARALLEL = {"jobs": 4, "total_points": 200_000, "num_samples": 10_000}
_DYNAMIC = {"rounds": 5, "batch": 500, "total_points": 40_000, "num_samples": 2_000}
_MANAGER = {"tenants": 8, "rounds": 3, "num_samples": 500}
_SERVICE = {"connections": 1_000, "requests_per_connection": 2, "num_samples": 8}
_KERNEL_SIZE, _KERNEL_SAMPLES = 1_000_000, 100_000
_WARM_POINTS = 2_000_000

_MANAGER_BROKE = (
    "measured {measured:g}, below the required {required:g} "
    f"(tenants={_MANAGER['tenants']}, rounds={_MANAGER['rounds']}) - the "
    "multi-tenant budget or bit-identity guarantee broke"
)
_SERVICE_BROKE = (
    "measured {measured:g}, below the required {required:g} "
    f"(connections={_SERVICE['connections']}, "
    f"requests/conn={_SERVICE['requests_per_connection']}) - the coalescer "
    "stopped merging, shed gate load, or broke the bit-identity contract"
)

#: The eight gate sections, in report order.
SECTIONS: tuple[Section, ...] = (
    Section(
        name="sampling",
        key="sampling_seconds",
        label="",
        experiment="table4",
        kwargs={"datasets": _DATASETS, "num_samples": _SAMPLES},
        meta=lambda: {"datasets": list(_DATASETS), "samples": _SAMPLES},
        metrics=(
            Metric(
                "", _column("sampling_seconds"), min, "factor",
                "sampling phase took {measured:.4f}s, more than {factor:g}x "
                "the baseline {required:.4f}s",
                per_row=True, shown="{:.4f}s", digits=5,
            ),
        ),
    ),
    Section(
        name="session_reuse",
        key="session_speedup",
        label="session_reuse ",
        experiment="session",
        kwargs={"datasets": _DATASETS, **_SESSION},
        meta=lambda: {
            "session_requests": _SESSION["requests"],
            "session_samples": _SESSION["num_samples"],
        },
        metrics=(
            Metric(
                "", _column("speedup"), max, "minimum",
                "session draws only {measured:.2f}x faster than one-shot "
                "sampling, below the required {required:.2f}x - structure "
                "reuse is not paying",
                per_row=True, slack=_scaled(2.0, 1.05), shown="{:.2f}x",
            ),
        ),
    ),
    Section(
        name="parallel",
        key="parallel_speedup",
        label="parallel_speedup ",
        experiment="parallel",
        kwargs=_PARALLEL,
        repeats=2,
        opt_in=True,
        skip=_needs_cpus(2),
        help="also measure the shard-parallel speedup floor "
        f"(jobs={_PARALLEL['jobs']}, n=m={_PARALLEL['total_points'] // 2:,}; "
        "multi-core machines only)",
        metrics=(
            Metric(
                "", _speedup_if("totals_match"), max, "minimum",
                "sharded engine only {measured:.2f}x faster end-to-end than "
                "the serial path, below the required {required:.2f}x "
                f"(jobs={_PARALLEL['jobs']}, "
                f"n=m={_PARALLEL['total_points'] // 2:,})",
                per_row=True, slack=_scaled(2.0, 1.05), shown="{:.2f}x",
            ),
        ),
    ),
    Section(
        name="dynamic",
        key="dynamic_speedup",
        label="dynamic_speedup ",
        experiment="dynamic",
        kwargs=_DYNAMIC,
        repeats=2,
        opt_in=True,
        help="also measure the incremental-update speedup floor "
        f"(rounds={_DYNAMIC['rounds']}, batch={_DYNAMIC['batch']}, "
        f"n=m={_DYNAMIC['total_points'] // 2:,})",
        metrics=(
            Metric(
                "", _speedup_if("state_match"), max, "minimum",
                "incremental maintenance only {measured:.2f}x faster than a "
                "full rebuild per change, below the required {required:.2f}x "
                f"(rounds={_DYNAMIC['rounds']}, batch={_DYNAMIC['batch']}, "
                f"n=m={_DYNAMIC['total_points'] // 2:,}) - or the maintained "
                "state drifted from the fresh-build state",
                per_row=True, slack=_scaled(2.0, 1.05), shown="{:.2f}x",
            ),
        ),
    ),
    Section(
        name="manager",
        key="manager",
        label="manager ",
        experiment="manager",
        kwargs=_MANAGER,
        repeats=1,
        opt_in=True,
        help="also measure the multi-tenant manager floors "
        f"(tenants={_MANAGER['tenants']}, rounds={_MANAGER['rounds']}, "
        "memory budget ~50%% of total prepared bytes)",
        metrics=tuple(
            Metric(name, _column(name), min, "minimum", _MANAGER_BROKE)
            for name in ("budget_adherence", "eviction_bit_identity", "eviction_exercised")
        ),
    ),
    Section(
        name="service",
        key="service",
        label="service ",
        experiment="service",
        kwargs=_SERVICE,
        repeats=1,
        opt_in=True,
        skip=_needs_cpus(2),
        help="also measure the async-service floors "
        f"(connections={_SERVICE['connections']}, "
        f"requests/conn={_SERVICE['requests_per_connection']}; "
        "multi-core machines only)",
        metrics=(
            Metric(
                "coalescing_bit_identity", _column("coalescing_bit_identity"),
                min, "minimum", _SERVICE_BROKE,
            ),
            Metric(
                "coalescing_ratio", _column("coalescing_ratio"), max, "minimum",
                _SERVICE_BROKE, slack=_scaled(2.0, 1.2),
            ),
            Metric("request_success", _success, min, "minimum", _SERVICE_BROKE),
        ),
    ),
    Section(
        name="kernels",
        key="kernels",
        label="kernels ",
        experiment="kernels",
        kwargs={"sizes": (_KERNEL_SIZE,), "num_samples": _KERNEL_SAMPLES},
        repeats=2,
        opt_in=True,
        skip=_needs_numba,
        meta=_numba_meta,
        help="also measure the compiled-kernel floors: numba backend vs "
        f"numpy twin at n=m={_KERNEL_SIZE:,}, same seeds "
        "(explicit SKIP when numba is not installed)",
        metrics=(
            Metric(
                "speedup", _speedup_if("match"), max, "minimum",
                "compiled backend only {measured:.2f}x faster in the sampling "
                "phase than the numpy twin, below the required "
                "{required:.2f}x "
                f"(n=m={_KERNEL_SIZE:,}, t={_KERNEL_SAMPLES:,}) - or the "
                "draws stopped being bit-identical",
                per_row=True, slack=_scaled(2.0, 3.0), shown="{:.2f}x",
            ),
            Metric(
                "bit_identity", _boolean("match"), min, "minimum",
                "measured {measured:g}, below the required {required:g} - the "
                "compiled kernels diverged from their numpy twins",
            ),
            Metric(
                "peak_rss_bytes", _peak_rss_bytes, max, "ceiling",
                "peak RSS {measured:,} bytes exceeds the committed ceiling "
                "{required:,} bytes",
                slack=lambda value: int(value) * 2, shown="{:,}",
            ),
        ),
    ),
    Section(
        name="warmstart",
        key="warm_start",
        label="warm_start ",
        experiment="warmstart",
        kwargs={"sizes": (_WARM_POINTS,), "num_samples": 10_000},
        repeats=1,
        opt_in=True,
        help="also measure the warm-start floors: attaching a saved "
        "prepared-state artifact vs the cold build/count pipeline at "
        f"n=m={_WARM_POINTS // 2:,} (bit-identical draws required)",
        metrics=(
            Metric(
                "speedup", _speedup_if("match"), max, "minimum",
                "attaching the saved artifact was only {measured:.2f}x faster "
                "than the cold build/count pipeline, below the required "
                "{required:.2f}x "
                f"(n=m={_WARM_POINTS // 2:,}) - or the warm draws stopped "
                "being bit-identical",
                # Attach time is tiny, so the ratio jitters hard with disk
                # cache state: quartered, never below the 10x acceptance floor.
                per_row=True, slack=_scaled(4.0, 10.0), shown="{:.2f}x",
            ),
            Metric(
                "bit_identity", _boolean("match"), min, "minimum",
                "measured {measured:g}, below the required {required:g} - the "
                "warm session's draws diverged from the cold session's",
            ),
        ),
    ),
)


def _by_name(section: Section) -> dict[str, Metric]:
    return {metric.name: metric for metric in section.metrics}


def _by_metric(section: Section, payload: dict) -> dict[str, Any]:
    """A section payload keyed by metric name (a ``""`` metric owns all of it).

    The inverse is ``by_metric.get("", by_metric)``.
    """
    return {"": payload} if "" in _by_name(section) else payload


def _entries(section: Section, payload: dict) -> dict[str, tuple[Metric | None, float]]:
    """``label -> (metric, value)`` for every number in a section payload.

    Numbers no metric declares map to ``None``; non-numbers (the committed
    baseline's ``note`` strings) are skipped.
    """
    metrics = _by_name(section)
    entries: dict[str, tuple[Metric | None, float]] = {}
    for name, value in _by_metric(section, payload).items():
        metric = metrics.get(name)
        if metric is not None and metric.per_row:
            for key, number in sorted(value.items()):
                entries[section.label + key] = (metric, number)
        elif isinstance(value, int | float):
            entries[section.label + name] = (metric, value)
    return entries


def collect_section(section: Section, repeats: int = 1) -> dict:
    """Run one section's experiment ``repeats`` times and reduce its metrics."""
    _title, runner = EXPERIMENTS[section.experiment]
    found: dict[str, dict[str, list[float]]] = {m.name: {} for m in section.metrics}
    for _ in range(max(1, repeats)):
        for row in runner(scale=ExperimentScale.SMOKE, **section.kwargs):
            for metric in section.metrics:
                key = _row_key(row) if metric.per_row else ""
                found[metric.name].setdefault(key, []).append(metric.value(row))
    payload: dict[str, Any] = {}
    for metric in section.metrics:
        reduced = {
            key: round(metric.reduce(values), metric.digits)
            for key, values in sorted(found[metric.name].items())
        }
        if metric.per_row:
            payload[metric.name] = reduced
        elif reduced:
            payload[metric.name] = reduced[""]
    return payload.get("", payload)


def collect_measurements(sections: Sequence[Section], repeats: int = 3) -> dict:
    """Measure ``sections`` into one ``BENCH_ci.json`` payload.

    Sections with their own ``repeats`` keep it; the others run
    ``repeats`` times.
    """
    from repro.kernels import runtime_meta

    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }
    payload: dict[str, Any] = {"meta": meta}
    for section in sections:
        payload[section.key] = collect_section(section, section.repeats or repeats)
        meta.update(section.meta())
    meta["repeats"] = repeats
    meta["runtime"] = runtime_meta()
    return payload


def as_baseline(current: dict) -> dict:
    """Turn raw measurements into a committed-baseline payload with slack.

    Every metric's ``slack`` rule maps its measurement to the committed
    value: sampling seconds are written as measured (``--factor`` provides
    the slack), speedup floors are halved or quartered with a minimum, the
    peak-RSS ceiling is doubled, and the exact 0/1 correctness booleans are
    copied verbatim (halving them would make the floors meaningless).
    """
    def with_slack(metric: Metric | None, value: Any) -> Any:
        if metric is None:
            return value
        if metric.per_row:
            return {key: metric.slack(number) for key, number in value.items()}
        return metric.slack(value)

    payload = {key: value for key, value in current.items() if key != "sections"}
    for section in SECTIONS:
        measured = current.get(section.key)
        if measured is None:
            continue
        metrics = _by_name(section)
        written = {
            name: with_slack(metrics.get(name), value)
            for name, value in _by_metric(section, measured).items()
        }
        payload[section.key] = written.get("", written)
    return payload


def compare_to_baseline(
    current: dict, baseline: dict, factor: float = DEFAULT_FACTOR
) -> list[str]:
    """Human-readable regression messages (empty when the gate passes).

    Each committed value is held to its metric's floor kind.  Opt-in
    sections are compared only when the current payload measured them - a
    machine that skipped a section does not fail its floors.  Entries
    missing from either side are failures too, so the baseline cannot
    silently rot when samplers are added or renamed.
    """
    problems: list[str] = []
    for section in SECTIONS:
        measured_payload = current.get(section.key)
        if measured_payload is None and section.opt_in:
            continue
        measured = _entries(section, measured_payload or {})
        committed = _entries(section, baseline.get(section.key) or {})
        for label, (metric, required) in committed.items():
            if metric is None:
                continue
            if label not in measured:
                problems.append(f"{label}: missing from the current measurements")
                continue
            value = measured[label][1]
            if FLOORS[metric.floor](value, required, factor):
                message = metric.message.format(
                    measured=value, required=required, factor=factor
                )
                problems.append(f"{label}: {message}")
        for label in sorted(measured.keys() - committed.keys()):
            problems.append(f"{label}: missing from the committed baseline")
    return problems


def summarize_sections(
    current: dict,
    skip_reasons: dict[str, str],
    problems: list[str] | None = None,
) -> dict[str, dict]:
    """Explicit per-section outcome: PASS, SKIP (with reason) or FAIL.

    A section is SKIP when it was not measured (``skip_reasons`` holds why),
    FAIL when any regression message belongs to it (the section with the
    longest label the message starts with), and PASS only when it was
    actually measured and had no failures.  With ``problems=None`` (no
    comparison ran, e.g. ``--write-baseline``), measured sections are
    reported as MEASURED.
    """
    owned: dict[str, list[str]] = {section.name: [] for section in SECTIONS}
    for problem in problems or []:
        owner = max(
            (section for section in SECTIONS if problem.startswith(section.label)),
            key=lambda section: len(section.label),
        )
        owned[owner.name].append(problem)
    statuses: dict[str, dict] = {}
    for section in SECTIONS:
        if current.get(section.key) is None:
            reason = skip_reasons.get(section.name, "not measured")
            statuses[section.name] = {"status": "SKIP", "reason": reason}
        elif problems is None:
            statuses[section.name] = {"status": "MEASURED", "reason": None}
        elif owned[section.name]:
            statuses[section.name] = {
                "status": "FAIL",
                "reason": "; ".join(owned[section.name]),
            }
        else:
            statuses[section.name] = {"status": "PASS", "reason": None}
    return statuses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the current measurements",
    )
    parser.add_argument(
        "--factor", type=float, default=DEFAULT_FACTOR,
        help="allowed slowdown factor before the gate fails",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per row; the fastest is kept",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the measurements to --baseline instead of gating",
    )
    for section in SECTIONS:
        if section.opt_in:
            parser.add_argument(f"--{section.name}", action="store_true", help=section.help)
    args = parser.parse_args(argv)

    skip_reasons: dict[str, str] = {}
    selected: list[Section] = []
    for section in SECTIONS:
        if section.opt_in and not getattr(args, section.name):
            skip_reasons[section.name] = f"not requested (pass --{section.name})"
        elif (reason := section.skip()) is not None:
            skip_reasons[section.name] = reason
            print(
                f"warning: --{section.name} requested but {reason}; skipping "
                f"the {section.name} section",
                file=sys.stderr,
            )
        else:
            selected.append(section)
    current = collect_measurements(selected, repeats=args.repeats)
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    for section in selected:
        for label, (metric, value) in _entries(section, current[section.key]).items():
            print(f"  {label}: {metric.shown.format(value)}")

    def report(problems: list[str] | None) -> None:
        sections = summarize_sections(current, skip_reasons, problems=problems)
        current["sections"] = sections
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        for name, row in sections.items():
            reason = f" ({row['reason']})" if row["status"] == "SKIP" else ""
            print(f"section {name}: {row['status']}{reason}")

    if args.write_baseline:
        report(None)
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(as_baseline(current), indent=2) + "\n")
        print(f"baseline refreshed at {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    problems = compare_to_baseline(current, baseline, factor=args.factor)
    report(problems)
    if problems:
        print("performance gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"performance gate passed (factor {args.factor:g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
