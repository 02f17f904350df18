"""The benchmark's workloads and the checks applied to every operation.

An operation is one method arm run on one dataset. A trial is every arm of
the workload on one dataset: a simulate.run_trial call on the desk
workloads, and one `dpadapt run` per arm on the shared CSV for csv-100k.
Ground-truth labels stay in the benchmark and are used only for scoring.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from dpadapt import cli, engine, simulate
# Bound at import, so a tracer installed later does not see the benchmark's
# own regeneration of the data it scores against.
from dpadapt.simulate import MethodConfig, Scenario, data_rng, generate

ALPHA = 0.1
S0 = 0.45


@dataclass
class ArmResult:
    """One operation; scaled_ms is ms on the SpeedProbe reference scale."""

    arm: str
    ms: float | None = None
    scaled_ms: float | None = None
    rejected: np.ndarray | None = None
    errors: tuple[str, ...] = ()


@dataclass
class TrialResult:
    ms: float
    scaled_ms: float
    arms: list[ArmResult]
    labels: np.ndarray


class Capture:
    """Keeps what the arms returned so their outputs can be checked.

    Wraps simulate.run_method, which also records when each arm ran, and
    run_dp_adapt / run_adapt_nonprivate as simulate and cli see them. The adaptive wrappers call through the engine
    module's attribute, so a tracer installed on top still sees the call.
    """

    def __init__(self, patcher):
        self.rejected: dict[str, np.ndarray] = {}
        self.reports: dict[str, engine.RejectionReport] = {}
        self.windows: dict[str, tuple[float, float]] = {}
        self.report = None
        run_method = simulate.run_method

        @functools.wraps(run_method)
        def capture_run_method(cfg, x, p, rng):
            self.report = None
            start = time.perf_counter()
            out = run_method(cfg, x, p, rng)
            self.windows[cfg.name] = (start, time.perf_counter())
            self.rejected[cfg.name] = np.asarray(out)
            if self.report is not None:
                self.reports[cfg.name] = self.report
            return out

        patcher.replace_attr(simulate, "run_method", capture_run_method)
        for mod in (simulate, cli):
            for name in ("run_dp_adapt", "run_adapt_nonprivate"):
                patcher.replace_attr(mod, name, self._adaptive(name))

    def _adaptive(self, name):
        @functools.wraps(getattr(engine, name))
        def capture(*args, **kwargs):
            self.report = getattr(engine, name)(*args, **kwargs)
            return self.report

        return capture

    def clear(self):
        self.rejected.clear()
        self.reports.clear()
        self.windows.clear()
        self.report = None


def reference_bh(p: np.ndarray, alpha: float) -> np.ndarray:
    """Step-up BH written independently of dpadapt.baselines, for the bh arm check."""
    n = p.size
    sorted_p = np.sort(p)
    below = np.nonzero(sorted_p <= alpha * np.arange(1, n + 1) / n)[0]
    if below.size == 0:
        return np.empty(0, dtype=int)
    return np.nonzero(p <= sorted_p[below[-1]])[0]


def check_arm(arm: str, rejected, n: int, p: np.ndarray, report) -> list[str]:
    """Output checks shared by every workload; returns the failures found."""
    errors = []
    rejected = np.asarray(rejected)
    if rejected.size and (rejected.min() < 0 or rejected.max() >= n):
        errors.append(f"{arm}: rejected index out of range")
    if np.unique(rejected).size != rejected.size:
        errors.append(f"{arm}: rejected indices repeat")
    if arm == "bh" and not np.array_equal(np.sort(rejected), reference_bh(p, ALPHA)):
        errors.append("bh: rejections differ from the reference step-up procedure")
    if arm in ("adapt", "dp-adapt"):
        if report is None:
            errors.append(f"{arm}: no adaptive report captured")
            return errors
        if report.rejected and report.trajectory[-1][3] > ALPHA:
            errors.append(f"{arm}: final fdr_hat {report.trajectory[-1][3]} exceeds alpha")
        if max(report.final_thresholds) > S0:
            errors.append(f"{arm}: a final threshold exceeds s0")
        if sorted(report.rejected) != sorted(int(i) for i in rejected):
            errors.append(f"{arm}: returned rejections differ from the report")
    return errors


class DeskWorkload:
    """Monte Carlo trials through simulate.run_trial, one worker."""

    def __init__(self, name, scenario, methods, nonprivate_arm, quality_trials):
        self.name = name
        self.scenario = scenario
        self.methods = tuple(methods)
        self.arms = tuple(m.name for m in self.methods)
        self.nonprivate_arm = nonprivate_arm
        self.quality_trials = quality_trials
        self.seed = None

    def prepare(self, seed: int, workdir: str):
        self.seed = seed

    def sizes(self) -> dict:
        n = self.scenario.total_n
        return {"n": n, "m": {m.name: (n if m.name == "adapt" else m.resolved_m(n)) for m in self.methods}}

    def run_trial(self, i: int, capture: Capture, probe, tracer=None) -> TrialResult:
        capture.clear()
        with probe.sampling():
            start = time.perf_counter()
            _, failures = simulate.run_trial(self.scenario, self.methods, self.seed, i)
            end = time.perf_counter()
        probe.mark()
        _, p, labels = generate(self.scenario, data_rng(self.seed, i))
        failed = {f.method: f.error for f in failures}
        arms = []
        for arm in self.arms:
            if arm in failed:
                arms.append(ArmResult(arm, errors=(f"{arm}: {failed[arm]}",)))
                continue
            rejected = capture.rejected[arm]
            errors = check_arm(arm, rejected, p.size, p, capture.reports.get(arm))
            arms.append(ArmResult(arm, *probe.measure(*capture.windows[arm]), rejected, tuple(errors)))
        return TrialResult(*probe.measure(start, end), arms, labels)


class CsvWorkload:
    """`dpadapt run` (cli.main, in process) on one ~100k-row CSV, one seed per trial."""

    name = "csv-100k"
    arms = ("bh", "dp-adapt", "dp-bh")
    nonprivate_arm = "bh"
    quality_trials = 3
    scenario = Scenario(kind="grid", grid_side=317, pattern=1, beta=3.5)
    m = 1000
    flags = {"bh": [], "dp-adapt": ["--m", str(m), "--mu", "0.24"], "dp-bh": ["--m", str(m)]}

    def prepare(self, seed: int, workdir: str):
        """Write the input CSV; this is the benchmark's own preparation and is not timed."""
        self.seed = seed
        self.workdir = workdir
        x, self.p, self.labels = simulate.gen_grid(self.scenario, np.random.default_rng(seed))
        self.ids = [f"h{i:06d}" for i in range(self.p.size)]
        self.path = os.path.join(workdir, "input.csv")
        with open(self.path, "w") as fh:
            fh.write("id,p,x1,x2\n")
            fh.writelines(
                f"{rid},{float(pv)!r},{float(a)!r},{float(b)!r}\n"
                for rid, pv, a, b in zip(self.ids, self.p, x[:, 0], x[:, 1])
            )

    def sizes(self) -> dict:
        return {"n": int(self.p.size), "m": {"bh": int(self.p.size), "dp-adapt": self.m, "dp-bh": self.m}}

    def run_trial(self, i: int, capture: Capture, probe, tracer=None) -> TrialResult:
        arms = []
        trial_ms = scaled_ms = 0.0
        for arm in self.arms:
            capture.clear()
            if tracer is not None:
                tracer.arm = arm
            prefix = os.path.join(self.workdir, f"{arm}-{i}")
            argv = ["run", "--input", self.path, "--method", arm, "--alpha", str(ALPHA),
                    "--s0", str(S0), "--seed", str(1000 * self.seed + i), "--out-prefix", prefix,
                    *self.flags[arm]]
            messages = io.StringIO()
            with probe.sampling(), contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                start = time.perf_counter()
                code = cli.main(argv)
                end = time.perf_counter()
            probe.mark()
            ms, scaled = probe.measure(start, end)
            if tracer is not None:
                tracer.arm = None
            trial_ms += ms
            scaled_ms += scaled
            arms.append(self._check(arm, code, messages.getvalue(), prefix, capture.report, ms, scaled))
        return TrialResult(trial_ms, scaled_ms, arms, self.labels)

    def _check(self, arm, code, messages, prefix, report, ms, scaled_ms) -> ArmResult:
        if code != 0:
            return ArmResult(arm, errors=(f"{arm}: exit code {code}: {messages.strip()}",))
        report_path, rows_path = f"{prefix}.report.json", f"{prefix}.rejections.csv"
        with open(report_path) as fh:
            written = json.load(fh)
        with open(rows_path) as fh:
            row_ids = [line.split(",", 1)[0] for line in fh.read().splitlines()[1:]]
        os.remove(report_path)
        os.remove(rows_path)
        rejected = np.asarray(written["rejected"], dtype=int)
        errors = check_arm(arm, rejected, self.p.size, self.p, report)
        if written["n_rejected"] != len(row_ids):
            errors.append(f"{arm}: report n_rejected {written['n_rejected']} != {len(row_ids)} rows")
        elif not errors and sorted(row_ids) != sorted(self.ids[j] for j in rejected):
            errors.append(f"{arm}: rejections.csv ids differ from the report")
        return ArmResult(arm, ms, scaled_ms, rejected, tuple(errors))


def make(name: str):
    if name == "nsi-desk":
        return DeskWorkload(
            "nsi-desk",
            Scenario(kind="no_side_info", n=10_000, t=50),
            [MethodConfig(arm) for arm in simulate.METHOD_NAMES],
            nonprivate_arm="adapt",
            quality_trials=6,
        )
    if name == "grid-desk":
        return DeskWorkload(
            "grid-desk",
            Scenario(kind="grid", grid_side=50, pattern=1, beta=3.5),
            [MethodConfig("dp-adapt", mu=0.24, m=125), MethodConfig("adapt"), MethodConfig("dp-bh", m=125)],
            nonprivate_arm="adapt",
            quality_trials=20,
        )
    if name == "csv-100k":
        return CsvWorkload()
    raise KeyError(name)
