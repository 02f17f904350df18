"""Span tracing of dpadapt's public functions, installed from outside the library.

Every traced call records a span [name, start, end, parent, op] where op is
the (trial, arm) pair the call served, so self time is attributed per arm.
Counters are taken at the same boundaries from the call's arguments and
result. The wrappers replace module attributes and class methods; restore()
puts the originals back, so traced and untraced passes share one process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

MODULES = ("simulate", "cli", "io", "engine", "selection", "baselines", "twogroup", "transform", "privacy")


class Patcher:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, modules, original, replacement):
        """Rebind every module attribute that refers to `original`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def replace_attr(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _pool_draws(n: int, m: int) -> int:
    # A peel round over a pool of k draws k noise values, then one more for the
    # released value; the pool shrinks by one per round.
    return m * n - m * (m - 1) // 2 + m


def _peel_counts(args, out):
    n, m = len(args["pvalues"]), int(args["m"])
    return {"selection.rounds": m, "selection.noise_draws": _pool_draws(n, m)}


def _dp_bh_counts(args, out):
    return {"baselines.dp_bh_draws": _pool_draws(len(args["pvalues"]), args["config"].m)}


def _em_counts(args, out):
    return {"twogroup.refits": 1, "twogroup.em_rows": args["masked"].size}


def _step_counts(args, out):
    return {"engine.steps": out.stop_t}


def _ingest_counts(args, out):
    return {"io.ingest_rows": out.n}


# (module, attribute, counter, [(metric, "total" | "self")]).
# "total" adds the span's whole duration; "self" adds it minus the traced
# calls made inside it.
TRACED = (
    ("simulate", "run_trial", None, [("simulate.trial_self_ms", "self")]),
    ("simulate", "run_method", None, [("simulate.trial_self_ms", "self"), ("arm_ms", "total")]),
    ("simulate", "generate", None, [("simulate.generate_ms", "total")]),
    ("cli", "main", None, [("cli.run_self_ms", "self"), ("arm_ms", "total")]),
    ("cli", "cmd_run", None, [("cli.run_self_ms", "self")]),
    ("io", "ingest_csv", _ingest_counts, [("io.ingest_ms", "total")]),
    ("io", "write_text_atomic", None, [("io.write_ms", "self")]),
    ("io", "write_rejections_csv", None, [("io.write_ms", "self")]),
    ("io", "report_json", None, [("io.write_ms", "self")]),
    ("engine", "run_dp_adapt", _step_counts, [("engine.loop_self_ms", "self")]),
    ("engine", "run_adapt_nonprivate", _step_counts, [("engine.loop_self_ms", "self")]),
    ("selection", "mirror_peel", _peel_counts, [("selection.mirror_peel_ms", "total")]),
    ("baselines", "bh", None, [("baselines.bh_ms", "total")]),
    ("baselines", "dp_bh", _dp_bh_counts, [("baselines.dp_bh_ms", "total")]),
    ("baselines", "dp_bonf", None, [("baselines.dp_bonf_ms", "total")]),
    ("twogroup", "TwoGroupUpdater.propose", None, [("twogroup.propose_self_ms", "self")]),
    ("twogroup", "em_fit", _em_counts, [("twogroup.em_fit_ms", "total")]),
    ("twogroup", "null_probability", None, [("twogroup.null_probability_ms", "total")]),
    ("transform", "TransformKernel.quantile", None, [("transform.quantile_ms", "total")]),
    ("privacy", "calibrate_gaussian", None, [("privacy.ms", "self")]),
    ("privacy", "calibrate_laplace", None, [("privacy.ms", "self")]),
    ("privacy", "compose", None, [("privacy.ms", "self")]),
    ("privacy", "ed_to_gdp", None, [("privacy.ms", "self")]),
    ("privacy", "gdp_to_ed", None, [("privacy.ms", "self")]),
)

# Ratios taken over the whole run: metric -> (numerator, denominator, scale).
RATIOS = {
    "selection.ns_per_draw": ("selection.mirror_peel_ms", "selection.noise_draws", 1e6),
    "engine.us_per_step": ("engine.loop_self_ms", "engine.steps", 1e3),
    "io.ingest_rows_per_s": ("io.ingest_rows", "io.ingest_ms", 1e3),
}


def _span_name(module_name: str, attr: str) -> str:
    return f"{module_name}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans and counters while installed; the benchmark sets `trial`
    before each trial and `arm` before each call that serves one arm.
    simulate.run_method sets `arm` itself from its config argument."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.trial = None
        self.arm = None
        self._stack: list[int] = []
        self._patcher = Patcher()
        self._metrics = {_span_name(mod, attr): metrics for mod, attr, _, metrics in TRACED}

    def install(self):
        pkg = importlib.import_module("dpadapt")
        modules = [pkg] + [importlib.import_module(f"dpadapt.{m}") for m in MODULES]
        for module_name, attr, counter, _ in TRACED:
            mod = importlib.import_module(f"dpadapt.{module_name}")
            name = _span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patcher.replace_attr(cls, method, self._wrap(name, cls.__dict__[method], counter))
            else:
                original = getattr(mod, attr)
                self._patcher.replace_everywhere(modules, original, self._wrap(name, original, counter))

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)
        sets_arm = name == "simulate.run_method"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (counter or sets_arm) else None
            outer_arm = self.arm
            if sets_arm:
                self.arm = bound["cfg"].name
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, (self.trial, self.arm)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.arm = outer_arm
            if counter:
                for key, value in counter(bound, out).items():
                    self.counts[span[4]][key] += value
            return out

        return traced

    def per_op(self) -> dict[tuple, dict[str, float]]:
        """Layer metrics summed per (trial, arm); times in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total = end - start
            for metric, kind in self._metrics[name]:
                out[op][metric] += 1e3 * (total if kind == "total" else total - child[i])
        for op, counts in self.counts.items():
            for key, value in counts.items():
                out[op][key] += value
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,trial,arm\n")
            for name, start, end, parent, (trial, arm) in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{trial},{arm}\n")


def summarize(per_op: dict, names) -> tuple[dict, dict]:
    """Per-layer metrics as medians over trials of per-trial sums (ratios from
    run totals), plus per arm the median of each metric over trials and each
    time's share of the arm's whole span (arm_ms)."""
    by_trial: dict = defaultdict(lambda: defaultdict(float))
    by_arm: dict = defaultdict(lambda: defaultdict(list))
    totals: dict = defaultdict(float)
    arm_totals: dict = defaultdict(lambda: defaultdict(float))
    for (trial, arm), values in per_op.items():
        for key, value in values.items():
            by_trial[trial][key] += value
            by_arm[arm][key].append(value)
            totals[key] += value
            arm_totals[arm][key] += value
    trials = list(by_trial.values())
    layers = {}
    for name in names:
        if name in RATIOS:
            num, den, scale = RATIOS[name]
            layers[name] = scale * totals[num] / totals[den] if totals[den] else 0.0
        else:
            layers[name] = statistics.median(t.get(name, 0.0) for t in trials) if trials else 0.0
    arms = {}
    for arm, values in by_arm.items():
        summary = {key: statistics.median(vals) for key, vals in sorted(values.items())}
        whole = arm_totals[arm].get("arm_ms")
        if whole:
            summary["share"] = {
                key: value / whole for key, value in sorted(arm_totals[arm].items())
                if key.endswith("_ms") and key != "arm_ms"
            }
        arms[arm or "trial"] = summary
    return layers, arms
