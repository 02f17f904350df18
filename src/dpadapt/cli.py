"""Command-line surface: run on a CSV, drive simulation campaigns, budget calculator.

Exit codes: 0 success; 1 usage error (a bad flag, config key or value, a
setting the data cannot meet, such as an --m above the row count, or an
unusable output location), and nothing is written; 2 data error (an input
io.ingest_csv refuses); 3 internal error (an invariant violation, or a
linear solve that failed).

--config names a flat key=value file (UTF-8, # comments) whose values
become flag defaults, so an explicit flag wins. It may supply the flags a
subcommand requires, input for run and seed for simulate. A key no
subcommand defines, or help or config, is a usage error; a key of another
subcommand is allowed, so one file serves run and simulate. Each value is
converted and checked as its flag's would be, whichever subcommand runs.

The two commands turn a budget into a GDP mu by different rules. run needs
--mu or the --epsilon/--delta pair for dp-adapt and dp-bonf, and converts
the pair by the exact duality mu = ed_to_gdp(epsilon, delta); both at once
is an error, as is --noise-family laplace with --mu. simulate without --mu
takes MethodConfig.budget()'s campaign convention. dp-bh spends its
(epsilon, delta) pair either way.

run writes <prefix>.rejections.csv, with columns id, noisy_p, threshold
(RunResult says what a baseline lists), and <prefix>.report.json, whose
keys every method shares: rejected (row indices), rejected_ids,
n_rejected, private, trajectory ({t, a, r, fdr_hat} per step), stop_t,
model (the updater's diagnostics), config, input, seed and versions.
simulate writes trials.csv (a row per arm and trial) and aggregate.csv (a
row per arm, with Monte Carlo standard errors), keyed by the arm's
position in --methods, and manifest.json. run checks its --out-prefix
directory before it reads the input, and simulate its --out-dir and every
arm before the first trial.

Every artifact echoes what each arm read, MethodConfig.resolved(n): a
report's config (with the input and seed) and a manifest's methods entries.
An arm echoes only the fields it reads, so a budget appears only where one
was spent, and the echo alone replays the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .engine import StallError
# Unused here, but the benchmark's output capture replaces these two names on
# this module, so they must stay bound.
from .engine import run_adapt_nonprivate, run_dp_adapt  # noqa: F401
from .io import (
    IngestError, ingest_csv, report_json, write_csv_atomic, write_rejections_csv, write_text_atomic,
)
from .privacy import BudgetAuditError, compose, ed_to_gdp, gdp_to_ed, peel_noise
from .simulate import ARM_FIELDS, METHOD_NAMES, MethodConfig, Scenario, run_arm, run_campaign

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _seed(text: str) -> int:
    """--seed's type: a non-negative integer, as SeedSequence takes, checked as the flags are read."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")


def build_parser() -> _Parser:
    parser = _Parser(prog="dpadapt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dpadapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the budget flags every subcommand takes
    budget = _Parser(add_help=False)
    budget.add_argument("--mu", type=float)
    budget.add_argument("--epsilon", type=float)
    budget.add_argument("--delta", type=float)
    budget.add_argument("--delta-g", type=float, dest="delta_g")
    budget.add_argument("--m", type=int)
    # and those `run` and `simulate` add: the config file and the method
    # parameters that MethodConfig fills when they are unset
    method = _Parser(add_help=False, parents=[budget])
    method.add_argument("--config", help="key=value config file; flags override")
    method.add_argument("--alpha", type=float)
    method.add_argument("--s0", type=float)

    run = sub.add_parser("run", parents=[method], help="run one method on an ingested CSV")
    run.add_argument("--input", required=True, help="CSV with columns id, p, x1[, x2, ...]")
    run.add_argument("--method", choices=METHOD_NAMES, default="dp-adapt")
    run.add_argument("--kernel")
    run.add_argument("--noise-family", choices=("gaussian", "laplace"))
    run.add_argument("--em-iters", type=int)
    run.add_argument("--refit-every", type=int)
    run.add_argument("--eta", type=float)
    run.add_argument("--nu", type=float)
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--out-prefix", default="dpadapt-run")

    sim = sub.add_parser("simulate", parents=[method], help="run a Monte Carlo campaign")
    sim.add_argument("--scenario", choices=("no-side-info", "grid"), default="no-side-info")
    sim.add_argument("--pattern", type=int, choices=(1, 2, 3), default=1)
    sim.add_argument("--null", choices=("uniform", "beta22", "pow-cubic"), default="uniform")
    sim.add_argument("--beta", type=float, default=4.0)
    sim.add_argument("--n", type=int, default=10_000)
    sim.add_argument("--t", type=int, default=50)
    sim.add_argument("--grid-side", type=int, default=50)
    sim.add_argument("--methods", default="dp-adapt,dp-bh", help="comma-separated arms")
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--seed", type=_seed, required=True, help="base seed (mandatory)")
    sim.add_argument("--out-dir", default="dpadapt-sim")

    priv = sub.add_parser("privacy", parents=[budget], help="budget calculator")
    priv.add_argument("--compose", help="comma-separated mu values to compose")
    return parser


def _apply_config_file(parser, argv):
    """Install the --config file's values as parser defaults; refuse a key no subcommand defines,
    and the keys help and config, which every subcommand defines but a file cannot act on."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        values = _read_config_file(known.config)
        for key in ("help", "config"):
            if key in values:
                raise UsageError(f"{known.config}: key {key} cannot be set in a config file")
        subparsers = parser._subparsers._group_actions[0].choices.values()
        dests = [{a.dest for a in action._actions} for action in subparsers]
        unknown = sorted(set(values).difference(*dests))
        if unknown:
            raise UsageError(f"{known.config}: unknown key {', '.join(unknown)}")
        for action in subparsers:
            given = {}
            for flag in action._actions:
                if flag.dest in values:
                    given[flag.dest] = _config_value(known.config, flag, values[flag.dest])
                    # argparse checks required flags on the command line alone
                    flag.required = False
            action.set_defaults(**given)


def _config_value(path, flag, text):
    """A config file's text for flag, converted and checked as on the command line: argparse
    converts a default with the flag's type but never checks it against the flag's choices."""
    try:
        value = text if flag.type is None else flag.type(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{path}: {flag.dest}={text!r}: {flag.option_strings[0]} {exc}") from None
    except ValueError:
        raise UsageError(f"{path}: {flag.dest}={text!r} is not a valid {flag.type.__name__}") from None
    if flag.choices is not None and value not in flag.choices:
        allowed = ", ".join(map(str, flag.choices))
        raise UsageError(f"{path}: {flag.dest}={text!r} is not one of {allowed}")
    return value


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
    # per-round peel noise for --m rounds (one release without --m)
    if args.delta_g is not None:
        if args.mu is not None:
            rounds = 1 if args.m is None else args.m
            print(f"gaussian_scale = {peel_noise('gaussian', args.delta_g, rounds, mu=args.mu).scale!r}")
            printed = True
        if args.m is not None and args.epsilon is not None and args.delta is not None:
            noise = peel_noise("laplace", args.delta_g, args.m, epsilon=args.epsilon, delta=args.delta)
            print(f"laplace_scale = {noise.scale!r}")
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
    keeps the pair for dp-bh and laplace dp-adapt, which spend it. The arms
    whose ARM_FIELDS row holds a budget get no default one on the command
    line; dp-bh falls back to MethodConfig's (epsilon, delta).
    """
    has_mu = args.mu is not None
    has_ed = args.epsilon is not None or args.delta is not None
    if has_mu and has_ed:
        raise UsageError("give either --mu or the --epsilon/--delta pair, not both")
    if has_mu and args.noise_family == "laplace":
        raise UsageError("laplace noise is calibrated from --epsilon/--delta, not --mu")
    if args.epsilon is not None and args.delta is not None:
        args.mu = ed_to_gdp(args.epsilon, args.delta)
    elif args.mu is None and "budget" in ARM_FIELDS[args.method]:
        raise UsageError("a budget needs --mu, or both --epsilon and --delta")


def _versions() -> dict:
    """What produced an artifact. numpy does not promise the same Generator
    streams across releases (NEP 19), so a seed alone cannot replay a run."""
    return {"dpadapt": __version__, "numpy": np.__version__, "python": sys.version.split()[0]}


def _writable_dir(directory: str, missing_ok: bool = False) -> bool:
    """Whether files can be written in directory; with missing_ok, whether makedirs could also create it."""
    found = os.path.abspath(directory)
    while missing_ok and not os.path.lexists(found):
        found = os.path.dirname(found)
    return os.path.isdir(found) and os.access(found, os.W_OK | os.X_OK)


def cmd_run(args) -> int:
    _resolve_run_budget(args)
    cfg = _method_config(args.method, args)
    # checked before ingest: a run that cannot write its output must not spend its budget
    out_dir = os.path.dirname(args.out_prefix) or "."
    if not _writable_dir(out_dir):
        raise UsageError(f"--out-prefix directory {out_dir} does not exist or is not writable")
    dataset = ingest_csv(args.input)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    result = run_arm(cfg, dataset.x, dataset.p, rng)

    source = os.fspath(args.input)
    rejected_ids = [dataset.ids[i] for i in result.rejected]
    # what the arm read; with the input and seed, it alone replays the run
    config = {"method": cfg.name, "n": dataset.n, "private": result.private}
    config |= cfg.resolved(dataset.n) | {"input": source, "seed": args.seed}
    write_text_atomic(f"{args.out_prefix}.report.json", report_json(result, args.seed, config, extra={
        "input": source,
        "rejected_ids": rejected_ids,
        "versions": _versions(),
    }))
    keep = np.isin(result.selected, result.rejected)  # rejected keeps selection order
    rows = zip(rejected_ids, result.noisy_p[keep], result.final_thresholds[keep])
    write_rejections_csv(f"{args.out_prefix}.rejections.csv", rows)
    print(f"{len(rejected_ids)} rejections -> {args.out_prefix}.report.json, {args.out_prefix}.rejections.csv")
    return EXIT_OK


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
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    methods = [_method_config(name, args) for name in names]
    # resolving checks each arm before anything is written, so a setting
    # every trial would refuse is a usage error, as in `run`
    echoes = [{"name": cfg.name} | cfg.resolved(scenario.total_n) for cfg in methods]
    if not _writable_dir(args.out_dir, missing_ok=True):
        raise UsageError(f"--out-dir {args.out_dir} cannot be created or is not writable")
    result = run_campaign(scenario, methods, args.trials, args.seed, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv_atomic(
        os.path.join(args.out_dir, "trials.csv"),
        ["scenario", "arm", "method", "trial", "fdp", "power", "n_reject", "wall_time_ms"],
        (
            [result.scenario.kind, r.arm, r.method, r.trial, "%.17g" % r.fdp, "%.17g" % r.power,
             r.n_reject, "%.3f" % r.wall_time_ms]
            for r in result.trials
        ),
    )
    write_csv_atomic(
        os.path.join(args.out_dir, "aggregate.csv"),
        ["arm", "method", "trials_ok", "n_failed", "fdr", "fdr_se", "power", "power_se",
         "mean_n_reject", "mean_wall_time_ms"],
        (
            [a.arm, a.method, a.trials_ok, a.n_failed, "%.17g" % a.fdr, "%.17g" % a.fdr_se,
             "%.17g" % a.power, "%.17g" % a.power_se, "%.17g" % a.mean_n_reject,
             "%.3f" % a.mean_wall_time_ms]
            for a in result.aggregates
        ),
    )
    manifest = {
        "scenario": vars(result.scenario) | {"total_n": result.scenario.total_n},
        "methods": echoes,
        "trials": args.trials,
        "seed": args.seed,
        "failures": [vars(f) for f in result.failures],
        "versions": _versions(),
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
    except (StallError, BudgetAuditError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
