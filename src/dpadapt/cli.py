"""Command-line surface: run on a CSV, drive simulation campaigns, budget calculator.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation. A flat key=value config file can seed any flag; explicit flags
win. Every artifact embeds the resolved configuration and seed so runs can
be replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io as _stdio
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .engine import StallError
# Unused here, but the benchmark's output capture replaces these two names on
# this module, so they must stay bound.
from .engine import run_adapt_nonprivate, run_dp_adapt  # noqa: F401
from .io import IngestError, ingest_csv, write_rejections_csv, write_text_atomic, report_json
from .privacy import calibrate_gaussian, calibrate_laplace, compose, ed_to_gdp, gdp_to_ed
from .selection import BudgetAuditError
from .simulate import METHOD_NAMES, MethodConfig, Scenario, full_scale, run_arm, run_campaign

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# Gene-expression style defaults: tight sensitivity, generous selection size.
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


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="dpadapt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dpadapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one method on an ingested CSV")
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("--input", required=True, help="CSV with columns id, p, x1[, x2, ...]")
    run.add_argument("--method", choices=METHOD_NAMES, default="dp-adapt")
    run.add_argument("--alpha", type=float)
    run.add_argument("--mu", type=float)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--delta", type=float)
    run.add_argument("--delta-g", type=float, dest="delta_g")
    run.add_argument("--m", type=int)
    run.add_argument("--s0", type=float)
    run.add_argument("--kernel")
    run.add_argument("--noise-family", choices=("gaussian", "laplace"))
    run.add_argument("--em-iters", type=int)
    run.add_argument("--refit-every", type=int)
    run.add_argument("--eta", type=float)
    run.add_argument("--nu", type=float)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--preset", choices=sorted(PRESETS))
    run.add_argument("--out-prefix", default="dpadapt-run")

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    sim.add_argument("--config", help="key=value config file; flags override")
    sim.add_argument("--scenario", choices=("no-side-info", "grid"), default="no-side-info")
    sim.add_argument("--pattern", type=int, choices=(1, 2, 3), default=1)
    sim.add_argument("--null", choices=("uniform", "beta22", "pow-cubic"), default="uniform")
    sim.add_argument("--beta", type=float, default=4.0)
    sim.add_argument("--n", type=int, default=10_000)
    sim.add_argument("--t", type=int, default=50)
    sim.add_argument("--grid-side", type=int, default=50)
    sim.add_argument("--full-scale", action="store_true", help="benchmark-scale sizes")
    sim.add_argument("--methods", default="dp-adapt,dp-bh", help="comma-separated arms")
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--mu", type=float)
    sim.add_argument("--epsilon", type=float)
    sim.add_argument("--delta", type=float)
    sim.add_argument("--delta-g", type=float, dest="delta_g")
    sim.add_argument("--m", type=int)
    sim.add_argument("--s0", type=float)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--seed", type=int, required=True, help="base seed (mandatory)")
    sim.add_argument("--out-dir", default="dpadapt-sim")

    priv = sub.add_parser("privacy", help="budget calculator")
    priv.add_argument("--mu", type=float)
    priv.add_argument("--epsilon", type=float)
    priv.add_argument("--delta", type=float)
    priv.add_argument("--delta-g", type=float, dest="delta_g")
    priv.add_argument("--m", type=int)
    priv.add_argument("--compose", help="comma-separated mu values to compose")
    return parser


def _apply_config_file(parser, argv):
    """Pre-scan for --config and install its values as parser defaults."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        values = _read_config_file(known.config)
        for action in parser._subparsers._group_actions[0].choices.values():
            usable = {a.dest for a in action._actions}
            action.set_defaults(**{k: v for k, v in values.items() if k in usable})


def cmd_privacy(args) -> int:
    printed = False
    if args.compose:
        mus = [float(v) for v in args.compose.split(",") if v.strip()]
        print(f"composed_mu = {compose(mus).mu!r}")
        printed = True
    if args.mu is not None and args.epsilon is not None:
        print(f"delta = {gdp_to_ed(args.mu, args.epsilon)!r}")
        printed = True
    elif args.epsilon is not None and args.delta is not None:
        print(f"mu = {ed_to_gdp(args.epsilon, args.delta)!r}")
        printed = True
    if args.delta_g is not None:
        if args.mu is not None:
            print(f"gaussian_scale = {calibrate_gaussian(args.delta_g, args.mu).scale!r}")
            printed = True
        if args.m is not None and args.epsilon is not None and args.delta is not None:
            scale = calibrate_laplace(args.delta_g, args.m, args.epsilon, args.delta).scale
            print(f"laplace_scale = {scale!r}")
            printed = True
    if not printed:
        raise UsageError(
            "nothing to compute; give --compose, --mu with --epsilon, "
            "--epsilon with --delta, or --delta-g combinations"
        )
    return EXIT_OK


_METHOD_FIELDS = {f.name for f in dataclasses.fields(MethodConfig)}


def _method_config(name: str, args) -> MethodConfig:
    """The arm `name` with every method parameter the flags set; MethodConfig supplies the rest."""
    given = {k: v for k, v in vars(args).items() if k in _METHOD_FIELDS and v is not None}
    return MethodConfig(name=name, **given)


def _resolve_run_budget(args) -> None:
    """Check the budget flags of `run` and turn an (epsilon, delta) pair into mu.

    `run` converts by the exact duality mu = ed_to_gdp(epsilon, delta), and
    keeps the pair so the report echoes it. The GDP arms get no default
    budget on the command line; dp-bh falls back to MethodConfig's
    (epsilon, delta).
    """
    has_mu = args.mu is not None
    has_ed = args.epsilon is not None or args.delta is not None
    if has_mu and has_ed:
        raise UsageError("give either --mu or the --epsilon/--delta pair, not both")
    if has_mu and args.noise_family == "laplace":
        raise UsageError("laplace noise is calibrated from --epsilon/--delta, not --mu")
    if args.epsilon is not None and args.delta is not None:
        args.mu = ed_to_gdp(args.epsilon, args.delta)
    elif args.mu is None and args.method in ("dp-adapt", "dp-bonf"):
        raise UsageError("a budget needs --mu, or both --epsilon and --delta")


def cmd_run(args) -> int:
    # Resolution order: explicit flag > preset > MethodConfig default.
    if args.preset:
        for key, value in PRESETS[args.preset].items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    _resolve_run_budget(args)
    cfg = _method_config(args.method, args)
    dataset = ingest_csv(args.input)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    rejected, report = run_arm(cfg, dataset.x, dataset.p, rng)

    source = os.fspath(args.input)
    resolved = cfg.resolved(dataset.n)
    rejected_ids = [dataset.ids[i] for i in rejected]
    if report is not None:
        selected_pos = {sel: k for k, sel in enumerate(report.selected)}
        rows = [
            (
                dataset.ids[i],
                report.noisy_p[selected_pos[i]],
                report.final_thresholds[selected_pos[i]],
            )
            for i in report.rejected
        ]
        json_text = report_json(report, args.seed, extra={
            "input": source, "rejected_ids": rejected_ids, "resolved": resolved,
        })
    else:
        rows = [(dataset.ids[i], float(dataset.p[i]), float("nan")) for i in rejected]
        payload = {
            "rejected": [int(i) for i in rejected],
            "rejected_ids": rejected_ids,
            "n_rejected": int(len(rejected)),
            "config": {"input": source, "method": cfg.name, "seed": args.seed,
                       "n": dataset.n} | resolved,
            "resolved": resolved,
            "seed": args.seed,
        }
        json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_text_atomic(f"{args.out_prefix}.report.json", json_text)
    write_rejections_csv(f"{args.out_prefix}.rejections.csv", rows)
    print(f"{len(rows)} rejections -> {args.out_prefix}.report.json, {args.out_prefix}.rejections.csv")
    return EXIT_OK


def _trials_csv(result) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "method", "trial", "fdp", "power", "n_reject", "wall_time_ms"])
    label = result.scenario.kind
    for r in result.trials:
        writer.writerow(
            [label, r.method, r.trial, "%.17g" % r.fdp, "%.17g" % r.power, r.n_reject,
             "%.3f" % r.wall_time_ms]
        )
    return buf.getvalue()


def _aggregate_csv(result) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "trials_ok", "n_failed", "fdr", "fdr_se", "power", "power_se",
         "mean_n_reject", "mean_wall_time_ms"]
    )
    for a in result.aggregates:
        writer.writerow(
            [a.method, a.trials_ok, a.n_failed, "%.17g" % a.fdr, "%.17g" % a.fdr_se,
             "%.17g" % a.power, "%.17g" % a.power_se, "%.17g" % a.mean_n_reject,
             "%.3f" % a.mean_wall_time_ms]
        )
    return buf.getvalue()


def cmd_simulate(args) -> int:
    scenario = Scenario(
        kind=args.scenario.replace("-", "_"),
        n=args.n,
        t=args.t,
        beta=args.beta,
        null_dist=args.null.replace("-", "_"),
        pattern=args.pattern,
        grid_side=args.grid_side,
    )
    if args.full_scale:
        scenario = full_scale(scenario)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    methods = [_method_config(name, args) for name in names]
    result = run_campaign(scenario, methods, args.trials, args.seed, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    write_text_atomic(os.path.join(args.out_dir, "trials.csv"), _trials_csv(result))
    write_text_atomic(os.path.join(args.out_dir, "aggregate.csv"), _aggregate_csv(result))
    manifest = {
        "scenario": vars(result.scenario) | {"total_n": result.scenario.total_n},
        "methods": [m.resolved(result.scenario.total_n) for m in result.methods],
        "trials": args.trials,
        "seed": args.seed,
        "failures": [vars(f) for f in result.failures],
        "versions": {
            "dpadapt": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    write_text_atomic(
        os.path.join(args.out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    for a in result.aggregates:
        print(
            f"{a.method}: fdr={a.fdr:.4f} (se {a.fdr_se:.4f}) "
            f"power={a.power:.4f} (se {a.power_se:.4f}) over {a.trials_ok} trials"
            + (f", {a.n_failed} failed" if a.n_failed else "")
        )
    print(f"artifacts -> {args.out_dir}/trials.csv, aggregate.csv, manifest.json")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.command == "privacy":
            return cmd_privacy(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_simulate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngestError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (StallError, BudgetAuditError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
