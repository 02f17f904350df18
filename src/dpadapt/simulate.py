"""Scenario generators, trial execution, and campaign aggregation.

Scenarios mirror two benchmark designs: a label-free mixture where only the
p-values are observed, and a two-dimensional grid whose coordinates are the
side information. Truth labels are produced for scoring only and never reach
the methods, which see exactly (x, p).

Reproducibility contract: trial i draws its data from the substream
(base_seed, i, 0) and method j inside trial i from (base_seed, i, 1 + j), so
every method arm sees identical data within a trial and campaigns are
deterministic for a given base seed regardless of worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from ._normal import normal_cdf
from .baselines import BHConfig, bh, dp_bh, dp_bonf
from .engine import RunResult, run_adapt_nonprivate, run_dp_adapt
from .privacy import NoiseSpec, PrivacyBudget, check_count, check_level, check_positive
from .selection import check_rounds
from .transform import kernel_by_name
from .twogroup import TwoGroupUpdater

# Truth-region constants for the grid design. On the full 100x100 grid the
# member counts are exactly 120 / 116 / 118 for patterns 1 / 2 / 3; coarser
# grids scale the counts by point density (about 30 at 50x50).
_PATTERN_RADIUS_SQ = 150.0
_PATTERN2_CENTER = 65.0
_PATTERN3_SUM_SCALE = 100.0
_PATTERN3_DIFF_SCALE = 15.0
_PATTERN3_LEVEL = 0.2


@dataclass(frozen=True)
class Scenario:
    """One simulation design; n is ignored for grids (it is grid_side**2)."""

    kind: str = "no_side_info"
    n: int = 10_000
    t: int = 50
    beta: float = 4.0
    null_dist: str = "uniform"
    pattern: int = 1
    grid_side: int = 50

    def __post_init__(self):
        if self.kind not in ("no_side_info", "grid"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.null_dist not in ("uniform", "beta22", "pow_cubic"):
            raise ValueError(f"unknown null distribution {self.null_dist!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.kind == "no_side_info":
            if not 0 <= self.t <= self.n or self.n < 1:
                raise ValueError("need n >= 1 and 0 <= t <= n")
        else:
            if self.pattern not in (1, 2, 3):
                raise ValueError(f"pattern must be 1, 2, or 3, got {self.pattern!r}")
            if self.grid_side < 2:
                raise ValueError("grid_side must be at least 2")

    @property
    def total_n(self) -> int:
        return self.n if self.kind == "no_side_info" else self.grid_side**2


# The MethodConfig fields each arm reads, in the order its run meets them:
# the only per-method field list. "budget" stands for the budget the arm
# spends, echoed as its mu and the (epsilon, delta) pair it was built from
# (None when it was built from mu). dp-bh spends a Laplace (epsilon, delta)
# budget directly.
ARM_FIELDS = {
    "dp-adapt": ("em_iters", "refit_every", "kernel", "budget", "m", "noise_family", "delta_g", "alpha", "s0"),
    "adapt": ("em_iters", "refit_every", "m", "alpha", "s0"),
    "dp-bh": ("alpha", "nu", "eta", "epsilon", "delta", "m"),
    "dp-bonf": ("kernel", "budget", "delta_g", "alpha"),
    "bh": ("alpha",),
}
METHOD_NAMES = tuple(ARM_FIELDS)

# How resolved(n) reads one field: the value the run uses, with defaults
# filled for n hypotheses, passed through the rule the run applies to it.
_RESOLVE = {
    "alpha": lambda cfg, n: check_level("alpha", cfg.alpha),
    "nu": lambda cfg, n: check_level("nu", cfg.resolved_nu(n)),
    "eta": lambda cfg, n: check_positive("eta", cfg.resolved_eta()),
    "epsilon": lambda cfg, n: check_positive("epsilon", cfg.epsilon),
    "delta": lambda cfg, n: check_level("delta", cfg.delta),
    "delta_g": lambda cfg, n: check_positive("delta_g", cfg.delta_g),
    "m": lambda cfg, n: check_rounds(cfg.resolved_m(n), n),
    "s0": lambda cfg, n: check_level("s0", cfg.s0, 0.5),
    "em_iters": lambda cfg, n: check_count("em_iters", cfg.em_iters),
    "refit_every": lambda cfg, n: check_count("refit_every", cfg.refit_every, optional=True),
    # the spec itself, which replays exactly; a kernel's name rounds its bound
    "kernel": lambda cfg, n: kernel_by_name(cfg.kernel) and cfg.kernel,
    "noise_family": lambda cfg, n: NoiseSpec(cfg.noise_family, 0.0).family,
}


@dataclass(frozen=True)
class MethodConfig:
    """Per-arm configuration; None fields resolve to scenario-derived defaults.

    These are the only method defaults in the package: `dpadapt run` and
    `dpadapt simulate` build their arms from this class. budget() is the one
    budget rule, for the arms whose ARM_FIELDS row holds "budget". m defaults
    to 5% of the hypotheses (at least 10; adapt takes them all), nu to
    0.5*alpha/n, and eta to delta_g. An explicit m is used as given, so one
    larger than n fails in the mechanisms that peel; resolved(n) refuses it,
    and every other setting no data can rescue, before a run.
    """

    name: str
    alpha: float = 0.1
    delta_g: float = 1e-4
    epsilon: float = 0.5
    delta: float = 1e-3
    mu: float | None = None
    m: int | None = None
    s0: float = 0.45
    em_iters: int = 5
    refit_every: int | None = None
    eta: float | None = None
    nu: float | None = None
    kernel: str = "gaussian"
    noise_family: str = "gaussian"

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; choose from {METHOD_NAMES}")

    def budget(self) -> PrivacyBudget:
        """The budget this arm spends.

        Laplace peel noise is calibrated from (epsilon, delta), so an arm that
        reads its noise_family and draws laplace noise spends mu =
        ed_to_gdp(epsilon, delta), the exact duality. Otherwise it is mu when
        given, else the campaign convention 4*epsilon/sqrt(10*log(1/delta)),
        which puts the Gaussian-mode noise on the same footing as the
        Laplace-mode scale of the private BH arm. It is computed once per
        instance (ed_to_gdp is a bisection); the class is frozen, so the
        value cannot go stale.
        """
        return self._budget

    @cached_property
    def _budget(self) -> PrivacyBudget:
        if self.noise_family == "laplace" and "noise_family" in ARM_FIELDS[self.name]:
            return PrivacyBudget.from_epsilon_delta(self.epsilon, self.delta)
        if self.mu is not None:
            return PrivacyBudget.from_mu(self.mu)
        check_positive("epsilon", self.epsilon)
        check_level("delta", self.delta)
        mu = 4.0 * self.epsilon / math.sqrt(10.0 * math.log(1.0 / self.delta))
        return PrivacyBudget.from_mu(mu)

    def resolved_m(self, n: int) -> int:
        if self.name == "adapt":
            return n
        if self.m is not None:
            return self.m
        return min(n, max(10, round(0.05 * n)))

    def resolved_nu(self, n: int) -> float:
        return self.nu if self.nu is not None else 0.5 * self.alpha / n

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else self.delta_g

    def resolved(self, n: int) -> dict:
        """The fields this arm reads, resolved for n hypotheses: its run's echo.

        Checks them in the order the run meets them, so it raises the
        ValueError every run of this arm on n hypotheses raises.
        """
        echo = {}
        for key in ARM_FIELDS[self.name]:
            if key == "budget":
                echo |= vars(self.budget())
            else:
                echo[key] = _RESOLVE[key](self, n)
        return echo


@dataclass(frozen=True)
class TrialReport:
    method: str
    trial: int
    fdp: float
    power: float
    n_reject: int
    wall_time_ms: float
    arm: int


@dataclass(frozen=True)
class TrialFailure:
    method: str
    trial: int
    error: str
    arm: int


@dataclass(frozen=True)
class AggregateRow:
    method: str
    trials_ok: int
    n_failed: int
    fdr: float
    fdr_se: float
    power: float
    power_se: float
    mean_n_reject: float
    mean_wall_time_ms: float
    arm: int


@dataclass(frozen=True)
class CampaignResult:
    scenario: Scenario
    methods: tuple[MethodConfig, ...]
    base_seed: int
    trials: tuple[TrialReport, ...]
    aggregates: tuple[AggregateRow, ...]
    failures: tuple[TrialFailure, ...]


def _draw_nulls(null_dist: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if null_dist == "uniform":
        return rng.random(size)
    if null_dist == "beta22":
        return rng.beta(2.0, 2.0, size)
    # density 4 p^3 on [0, 1]: inverse CDF is U ** (1/4)
    return rng.random(size) ** 0.25


def gen_no_side_info(scenario: Scenario, rng: np.random.Generator):
    """Mixture without covariates: alternatives Phi(xi - beta), nulls as configured."""
    if scenario.kind != "no_side_info":
        raise ValueError("scenario kind must be no_side_info")
    n, t = scenario.n, scenario.t
    p_alt = normal_cdf(rng.standard_normal(t) - scenario.beta)
    p_null = _draw_nulls(scenario.null_dist, n - t, rng)
    p = np.concatenate([np.atleast_1d(p_alt), p_null])
    labels = np.zeros(n, dtype=bool)
    labels[:t] = True
    return None, p, labels


def grid_truth(x1: np.ndarray, x2: np.ndarray, pattern: int) -> np.ndarray:
    if pattern == 1:
        return x1**2 + x2**2 <= _PATTERN_RADIUS_SQ
    if pattern == 2:
        c = _PATTERN2_CENTER
        return (x1 - c) ** 2 + (x2 - c) ** 2 <= _PATTERN_RADIUS_SQ
    return (x1 + x2) ** 2 / _PATTERN3_SUM_SCALE**2 + (
        x2 - x1
    ) ** 2 / _PATTERN3_DIFF_SCALE**2 <= _PATTERN3_LEVEL


def gen_grid(scenario: Scenario, rng: np.random.Generator):
    """Equispaced grid on [-100, 100]^2; one-sided p-values 1 - Phi(z).

    Members of the truth region get z ~ N(beta, 1); conservative null options
    replace the null p-values directly.
    """
    if scenario.kind != "grid":
        raise ValueError("scenario kind must be grid")
    side = scenario.grid_side
    v = np.linspace(-100.0, 100.0, side)
    g1, g2 = np.meshgrid(v, v, indexing="ij")
    x1, x2 = g1.ravel(), g2.ravel()
    labels = grid_truth(x1, x2, scenario.pattern)
    z = rng.standard_normal(x1.size) + scenario.beta * labels
    p = 1.0 - normal_cdf(z)
    if scenario.null_dist != "uniform":
        nulls = ~labels
        p[nulls] = _draw_nulls(scenario.null_dist, int(nulls.sum()), rng)
    return np.column_stack([x1, x2]), p, labels


def generate(scenario: Scenario, rng: np.random.Generator):
    if scenario.kind == "no_side_info":
        return gen_no_side_info(scenario, rng)
    return gen_grid(scenario, rng)


def fdp_and_power(rejected, labels: np.ndarray) -> tuple[float, float]:
    rejected = np.asarray(rejected, dtype=int)
    false_rej = int(np.count_nonzero(~labels[rejected]))
    return false_rej / max(rejected.size, 1), (rejected.size - false_rej) / max(int(labels.sum()), 1)


def _fixed_rejections(p: np.ndarray, rejected: np.ndarray, private: bool) -> RunResult:
    """A baseline's RunResult: the rejected rows, no steps.

    bh (private False) keeps the rows' raw p-values. The private baselines'
    budgets do not cover raw p-values, so their noisy_p is NaN.
    """
    rows = np.asarray(rejected, dtype=int)
    return RunResult(
        rejected=tuple(rows.tolist()),
        private=private,
        selected=rows,
        noisy_p=np.full(rows.size, np.nan) if private else p[rows],
        final_thresholds=np.full(rows.size, np.nan),
    )


def run_arm(cfg: MethodConfig, x, p: np.ndarray, rng: np.random.Generator) -> RunResult:
    """Execute one arm on (x, p): the only map from a method name to a procedure.

    The procedure's arguments are the arm's resolved(n) echo, its budget
    the cfg.budget() that echo reads, and its RunResult is returned as the
    procedure gave it.
    """
    a = cfg.resolved(int(p.size))
    if cfg.name == "bh":
        return _fixed_rejections(p, bh(p, a["alpha"]), False)
    if cfg.name == "dp-bh":
        return _fixed_rejections(p, dp_bh(p, BHConfig(**a), rng), True)
    if cfg.name == "dp-bonf":
        rejected = dp_bonf(p, a["delta_g"], kernel_by_name(a["kernel"]), cfg.budget(), a["alpha"], rng)
        return _fixed_rejections(p, rejected, True)
    updater = TwoGroupUpdater(em_iters=a["em_iters"], refit_every=a["refit_every"])
    if cfg.name == "adapt":
        return run_adapt_nonprivate(p, x, a["alpha"], updater, s0=a["s0"])
    return run_dp_adapt(
        p, x, kernel_by_name(a["kernel"]), a["delta_g"], cfg.budget(), a["m"], a["alpha"], updater, rng,
        s0=a["s0"], noise_family=a["noise_family"],
    )


def run_method(cfg: MethodConfig, x, p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Execute one arm on (x, p); returns the rejected rows of its RunResult as an array."""
    return np.asarray(run_arm(cfg, x, p, rng).rejected, dtype=int)


def data_rng(base_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(trial, 0)))


def method_rng(base_seed: int, trial: int, method_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=(trial, 1 + method_index))
    )


def run_trial(scenario: Scenario, methods, base_seed: int, trial: int):
    x, p, labels = generate(scenario, data_rng(base_seed, trial))
    reports: list[TrialReport] = []
    failures: list[TrialFailure] = []
    for mi, cfg in enumerate(methods):
        rng = method_rng(base_seed, trial, mi)
        start = time.perf_counter()
        try:
            rejected = run_method(cfg, x, p, rng)
        except Exception as exc:  # recorded, never silently dropped
            failures.append(TrialFailure(cfg.name, trial, f"{type(exc).__name__}: {exc}", mi))
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        fdp, power = fdp_and_power(rejected, labels)
        reports.append(
            TrialReport(cfg.name, trial, fdp, power, int(np.size(rejected)), elapsed_ms, mi)
        )
    return reports, failures


def _mean_se(values) -> tuple[float, float]:
    """The mean of values and its Monte Carlo standard error (0.0 for one value)."""
    v = np.array(values)
    return float(v.mean()), (float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0)


def run_campaign(
    scenario: Scenario,
    methods,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> CampaignResult:
    """Run all method arms over independent trials and aggregate.

    Records are keyed by arm position; a failed arm/trial pair is left out of
    the aggregates but counted. The result is identical for any worker count.
    An empty method list, or a trial or worker count below 1, is refused.
    """
    check_count("trials", trials)
    check_count("workers", workers)
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must name at least one arm")
    jobs = (repeat(scenario), repeat(methods), repeat(base_seed), range(trials))
    if workers > 1:
        # imported here: the process pool loads multiprocessing, which no other run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, *jobs))
    else:
        results = list(map(run_trial, *jobs))
    all_reports = sorted((r for reports, _ in results for r in reports), key=lambda r: (r.arm, r.trial))
    all_failures = sorted((f for _, failures in results for f in failures), key=lambda f: (f.arm, f.trial))
    aggregates = []
    for arm, cfg in enumerate(methods):
        rows = [r for r in all_reports if r.arm == arm]
        failed = sum(1 for f in all_failures if f.arm == arm)
        if rows:
            aggregates.append(AggregateRow(
                cfg.name, len(rows), failed, *_mean_se([r.fdp for r in rows]), *_mean_se([r.power for r in rows]),
                float(np.mean([r.n_reject for r in rows])), float(np.mean([r.wall_time_ms for r in rows])), arm,
            ))
        else:
            aggregates.append(AggregateRow(cfg.name, 0, failed, *[math.nan] * 6, arm))
    return CampaignResult(scenario, methods, base_seed, tuple(all_reports), tuple(aggregates), tuple(all_failures))
