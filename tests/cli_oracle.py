"""Reference `dpadapt run` dispatch, kept as a test oracle for `cli.cmd_run`.

This is the original command: its own parser with per-flag defaults, a
branch per method that calls the procedure directly, and the budget built
from --mu or the --epsilon/--delta pair by exact duality. `cli.cmd_run` now
builds a `MethodConfig` and runs it through `simulate.run_arm`; on the same
flags it must write the same rejections.csv byte for byte and a report.json
that keeps every key this one writes.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from dpadapt.baselines import BHConfig, bh, dp_bh, dp_bonf
from dpadapt.engine import run_adapt_nonprivate, run_dp_adapt
from dpadapt.io import IngestError, ingest_csv, report_json, write_rejections_csv, write_text_atomic
from dpadapt.privacy import PrivacyBudget
from dpadapt.transform import kernel_by_name
from dpadapt.twogroup import TwoGroupUpdater

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

PRESETS = {
    "bottomly-like": {
        "mu": 0.25,
        "delta_g": 3e-5,
        "m": 2500,
        "kernel": "gaussian",
        "alpha": 0.1,
    }
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_run_parser() -> _Parser:
    run = _Parser(prog="dpadapt run")
    run.add_argument("--input", required=True)
    run.add_argument("--method", choices=("dp-adapt", "adapt", "dp-bh", "dp-bonf", "bh"), default="dp-adapt")
    run.add_argument("--alpha", type=float)
    run.add_argument("--mu", type=float)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--delta", type=float)
    run.add_argument("--delta-g", type=float, dest="delta_g")
    run.add_argument("--m", type=int)
    run.add_argument("--s0", type=float, default=0.45)
    run.add_argument("--kernel", default=None)
    run.add_argument("--noise-family", choices=("gaussian", "laplace"), default="gaussian")
    run.add_argument("--em-iters", type=int, default=5)
    run.add_argument("--refit-every", type=int)
    run.add_argument("--eta", type=float)
    run.add_argument("--nu", type=float)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--preset", choices=sorted(PRESETS))
    run.add_argument("--out-prefix", default="dpadapt-run")
    return run


def _budget_from_args(args) -> PrivacyBudget:
    has_mu = args.mu is not None
    has_ed = args.epsilon is not None or args.delta is not None
    if has_mu and has_ed:
        raise UsageError("give either --mu or the --epsilon/--delta pair, not both")
    if has_mu:
        return PrivacyBudget.from_mu(args.mu)
    if args.epsilon is None or args.delta is None:
        raise UsageError("a budget needs --mu, or both --epsilon and --delta")
    return PrivacyBudget.from_epsilon_delta(args.epsilon, args.delta)


def cmd_run(args) -> int:
    if args.preset:
        for key, value in PRESETS[args.preset].items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in (("alpha", 0.1), ("delta_g", 1e-4), ("kernel", "gaussian")):
        if getattr(args, key) is None:
            setattr(args, key, value)
    dataset = ingest_csv(args.input)
    n = dataset.n
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    m = args.m if args.m is not None else min(n, max(10, round(0.05 * n)))
    config_echo = {
        "input": os.fspath(args.input),
        "method": args.method,
        "alpha": args.alpha,
        "seed": args.seed,
        "n": n,
    }
    report = None
    if args.method == "bh":
        rejected = bh(dataset.p, args.alpha)
        noisy = dataset.p
        thresholds = np.full(n, np.nan)
    elif args.method == "dp-bh":
        budget_cfg = BHConfig(
            nu=args.nu if args.nu is not None else 0.5 * args.alpha / n,
            eta=args.eta if args.eta is not None else args.delta_g,
            alpha=args.alpha,
            epsilon=args.epsilon if args.epsilon is not None else 0.5,
            delta=args.delta if args.delta is not None else 1e-3,
            m=m,
        )
        rejected = dp_bh(dataset.p, budget_cfg, rng)
        noisy = np.full(n, np.nan)  # the budget does not cover raw p-values
        thresholds = np.full(n, np.nan)
        config_echo.update({"m": m, "nu": budget_cfg.nu, "eta": budget_cfg.eta})
    elif args.method == "dp-bonf":
        budget = _budget_from_args(args)
        rejected = dp_bonf(dataset.p, args.delta_g, kernel_by_name(args.kernel), budget, args.alpha, rng)
        noisy = np.full(n, np.nan)
        thresholds = np.full(n, np.nan)
        config_echo.update({"mu": budget.mu, "delta_g": args.delta_g})
    elif args.method == "adapt":
        updater = TwoGroupUpdater(em_iters=args.em_iters, refit_every=args.refit_every)
        report = run_adapt_nonprivate(dataset.p, dataset.x, args.alpha, updater, s0=args.s0)
        config_echo = {"method": "adapt", "n": n, "m": n, "alpha": args.alpha, "s0": args.s0,
                       "private": report.private}
    else:  # dp-adapt
        budget = _budget_from_args(args)
        kernel = kernel_by_name(args.kernel)
        updater = TwoGroupUpdater(em_iters=args.em_iters, refit_every=args.refit_every)
        report = run_dp_adapt(
            dataset.p,
            dataset.x,
            kernel,
            args.delta_g,
            budget,
            m,
            args.alpha,
            updater,
            rng,
            s0=args.s0,
            noise_family=args.noise_family,
        )
        config_echo = {
            "method": "dp-adapt", "n": n, "m": m, "alpha": args.alpha, "s0": args.s0,
            "delta_g": args.delta_g, "mu": budget.mu, "epsilon": budget.epsilon, "delta": budget.delta,
            "noise_family": args.noise_family, "kernel": kernel.name, "private": report.private,
        }

    if report is not None:
        selected_pos = {sel: k for k, sel in enumerate(report.selected)}
        rejected_ids = [dataset.ids[i] for i in report.rejected]
        rows = [
            (
                dataset.ids[i],
                report.noisy_p[selected_pos[i]],
                report.final_thresholds[selected_pos[i]],
            )
            for i in report.rejected
        ]
        json_text = report_json(report, args.seed, config_echo, extra={"input": os.fspath(args.input),
                                                                       "rejected_ids": rejected_ids})
    else:
        rows = [(dataset.ids[i], float(noisy[i]), float(thresholds[i])) for i in rejected]
        payload = {
            "rejected": [int(i) for i in rejected],
            "rejected_ids": [dataset.ids[i] for i in rejected],
            "n_rejected": int(len(rejected)),
            "config": config_echo,
            "seed": args.seed,
        }
        json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_text_atomic(f"{args.out_prefix}.report.json", json_text)
    write_rejections_csv(f"{args.out_prefix}.rejections.csv", rows)
    return EXIT_OK


def main(argv) -> int:
    """`dpadapt run` with the old exit-code mapping; argv omits the `run` word."""
    try:
        return cmd_run(build_run_parser().parse_args(argv))
    except UsageError:
        return EXIT_USAGE
    except IngestError:
        return EXIT_DATA
    except ValueError:
        return EXIT_USAGE
