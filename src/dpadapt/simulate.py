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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._normal import normal_cdf
from .baselines import BHConfig, bh, dp_bh, dp_bonf
from .engine import RejectionReport, run_adapt_nonprivate, run_dp_adapt
from .privacy import PrivacyBudget
from .transform import kernel_by_name
from .twogroup import TwoGroupUpdater

METHOD_NAMES = ("dp-adapt", "adapt", "dp-bh", "dp-bonf", "bh")

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
        if self.kind == "no_side_info":
            if not 0 <= self.t <= self.n:
                raise ValueError("need 0 <= t <= n")
        else:
            if self.pattern not in (1, 2, 3):
                raise ValueError(f"pattern must be 1, 2, or 3, got {self.pattern!r}")
            if self.grid_side < 2:
                raise ValueError("grid_side must be at least 2")

    @property
    def total_n(self) -> int:
        return self.n if self.kind == "no_side_info" else self.grid_side**2


@dataclass(frozen=True)
class MethodConfig:
    """Per-arm configuration; None fields resolve to scenario-derived defaults.

    These are the only method defaults in the package: `dpadapt run` and
    `dpadapt simulate` build their arms from this class. mu defaults to
    4*epsilon/sqrt(10*log(1/delta)), the campaign convention that puts the
    Gaussian-mode noise on the same footing as the Laplace-mode scale for the
    private BH arm. m defaults to 5% of the hypotheses (at least 10), nu to
    0.5*alpha/n, and eta to delta_g. An explicit m is used as given, so one
    larger than n fails in the mechanisms that peel.
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
    zero_noise: bool = False

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; choose from {METHOD_NAMES}")

    def resolved_mu(self) -> float:
        if self.mu is not None:
            return self.mu
        return 4.0 * self.epsilon / math.sqrt(10.0 * math.log(1.0 / self.delta))

    def resolved_m(self, n: int) -> int:
        if self.m is not None:
            return self.m
        return min(n, max(10, round(0.05 * n)))

    def resolved_nu(self, n: int) -> float:
        return self.nu if self.nu is not None else 0.5 * self.alpha / n

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else self.delta_g

    def resolved(self, n: int) -> dict:
        """Every field, with mu, m, nu and eta resolved for n hypotheses."""
        return asdict(self) | {
            "mu": self.resolved_mu(),
            "m": self.resolved_m(n),
            "nu": self.resolved_nu(n),
            "eta": self.resolved_eta(),
        }


@dataclass(frozen=True)
class TrialReport:
    method: str
    trial: int
    fdp: float
    power: float
    n_reject: int
    wall_time_ms: float


@dataclass(frozen=True)
class TrialFailure:
    method: str
    trial: int
    error: str


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
    n_reject = rejected.size
    false_rej = int(np.count_nonzero(~labels[rejected])) if n_reject else 0
    true_rej = n_reject - false_rej
    n_alt = int(labels.sum())
    fdp = false_rej / max(n_reject, 1)
    power = true_rej / max(n_alt, 1)
    return fdp, power


def run_arm(
    cfg: MethodConfig, x, p: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, RejectionReport | None]:
    """Execute one arm on (x, p): the only map from a method name to a procedure.

    Returns the rejected indices and, for adapt and dp-adapt, the run's
    report (None for bh, dp-bh and dp-bonf).
    """
    n = p.size
    if cfg.name == "bh":
        return bh(p, cfg.alpha), None
    if cfg.name == "dp-bh":
        config = BHConfig(
            nu=cfg.resolved_nu(n),
            eta=cfg.resolved_eta(),
            alpha=cfg.alpha,
            epsilon=cfg.epsilon,
            delta=cfg.delta,
            m=cfg.resolved_m(n),
        )
        return dp_bh(p, config, rng, zero_noise=cfg.zero_noise), None
    if cfg.name == "dp-bonf":
        budget = PrivacyBudget.from_mu(cfg.resolved_mu())
        rejected = dp_bonf(
            p, cfg.delta_g, kernel_by_name(cfg.kernel), budget, cfg.alpha, rng, zero_noise=cfg.zero_noise
        )
        return rejected, None
    updater = TwoGroupUpdater(em_iters=cfg.em_iters, refit_every=cfg.refit_every)
    if cfg.name == "adapt":
        report = run_adapt_nonprivate(p, x, cfg.alpha, updater, rng, s0=cfg.s0)
        return np.asarray(report.rejected, dtype=int), report
    # dp-adapt
    if cfg.noise_family == "laplace":
        budget = PrivacyBudget.from_epsilon_delta(cfg.epsilon, cfg.delta)
    else:
        budget = PrivacyBudget.from_mu(cfg.resolved_mu())
    report = run_dp_adapt(
        p,
        x,
        kernel_by_name(cfg.kernel),
        cfg.delta_g,
        budget,
        cfg.resolved_m(n),
        cfg.alpha,
        updater,
        rng,
        s0=cfg.s0,
        noise_family=cfg.noise_family,
        zero_noise=cfg.zero_noise,
    )
    return np.asarray(report.rejected, dtype=int), report


def run_method(cfg: MethodConfig, x, p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Execute one arm on (x, p); returns rejected indices."""
    return run_arm(cfg, x, p, rng)[0]


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
            failures.append(TrialFailure(cfg.name, trial, f"{type(exc).__name__}: {exc}"))
            continue
        elapsed_ms = (time.perf_counter() - start) * 1e3
        fdp, power = fdp_and_power(rejected, labels)
        reports.append(
            TrialReport(cfg.name, trial, fdp, power, int(np.size(rejected)), elapsed_ms)
        )
    return reports, failures


def _trial_worker(args):
    scenario, methods, base_seed, trial = args
    return run_trial(scenario, methods, base_seed, trial)


def run_campaign(
    scenario: Scenario,
    methods,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> CampaignResult:
    """Run all method arms over independent trials and aggregate.

    Failed method/trial pairs are excluded from the aggregates but recorded
    with a count. The result is identical for any worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    methods = tuple(methods)
    jobs = [(scenario, methods, base_seed, i) for i in range(trials)]
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_worker, jobs))
    else:
        results = [_trial_worker(j) for j in jobs]
    all_reports: list[TrialReport] = []
    all_failures: list[TrialFailure] = []
    for reports, failures in results:
        all_reports.extend(reports)
        all_failures.extend(failures)
    order = {cfg.name: i for i, cfg in enumerate(methods)}
    all_reports.sort(key=lambda r: (order[r.method], r.trial))
    all_failures.sort(key=lambda f: (order[f.method], f.trial))
    aggregates = []
    for cfg in methods:
        rows = [r for r in all_reports if r.method == cfg.name]
        failed = sum(1 for f in all_failures if f.method == cfg.name)
        if rows:
            fdps = np.array([r.fdp for r in rows])
            powers = np.array([r.power for r in rows])
            k = len(rows)
            fdr_se = float(fdps.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
            power_se = float(powers.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
            aggregates.append(
                AggregateRow(
                    method=cfg.name,
                    trials_ok=k,
                    n_failed=failed,
                    fdr=float(fdps.mean()),
                    fdr_se=fdr_se,
                    power=float(powers.mean()),
                    power_se=power_se,
                    mean_n_reject=float(np.mean([r.n_reject for r in rows])),
                    mean_wall_time_ms=float(np.mean([r.wall_time_ms for r in rows])),
                )
            )
        else:
            aggregates.append(
                AggregateRow(cfg.name, 0, failed, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
            )
    return CampaignResult(
        scenario=scenario,
        methods=methods,
        base_seed=base_seed,
        trials=tuple(all_reports),
        aggregates=tuple(aggregates),
        failures=tuple(all_failures),
    )


def full_scale(scenario: Scenario) -> Scenario:
    """Benchmark-scale variant (n=100000, or the 100x100 grid) of a scenario."""
    if scenario.kind == "no_side_info":
        return replace(scenario, n=100_000, t=100)
    return replace(scenario, grid_side=100)
