"""Command-line front end.

Verbs: benchmark, sanity, hpo, convergence, train.  All state flows from
the config file plus --set overrides; --seed replaces the master seed.
Progress goes to stderr, data to the output files.  Exit codes: 0 success,
1 configuration error, 2 runtime or data error, 3 sanity-check failure.
"""
import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DataFormatError
from .runconfig import load_config
from .runner import log, run_benchmark, run_convergence, run_hpo, run_sanity, run_train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SANITY = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xaimeta",
        description="Stress-test explanation-quality estimators for noise "
        "resilience and adversary reactivity.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("benchmark", "run the configured meta-evaluation and write reports"),
        ("sanity", "reproduce the adversarial-estimator expectations"),
        ("hpo", "grid-search estimator hyperparameters by meta-consistency"),
        ("convergence", "correlate meta-evaluation vectors across estimators"),
        ("train", "train the configured model and save it"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, repeatable (e.g. --set run.k=3)",
        )
    return parser


def _load(args):
    config = load_config(args.config, overrides=args.overrides)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out is not None:
        config = replace(config, output=args.out)
    return config


def cmd_benchmark(config) -> int:
    run_benchmark(config)
    return EXIT_OK


def cmd_sanity(config) -> int:
    outcome = run_sanity(config)
    header = f"{'test':<5} {'estimator':<34} {'criterion':<8} {'value':>10} {'std':>8}  expected"
    print(header)
    print("-" * len(header))
    for row in outcome.rows:
        lo, hi = row["expected"]
        expected = f"= {lo!r}" if lo == hi else f"[{lo!r}, {hi!r}]"
        flag = "" if row["ok"] else "  <-- FAIL"
        print(
            f"{row['test']:<5} {row['estimator']:<34} {row['criterion']:<8} "
            f"{row['value']:>10.4f} {row['std']:>8.4f}  {expected}{flag}"
        )
    print("sanity check:", "PASS" if outcome.passed else "FAIL")
    return EXIT_OK if outcome.passed else EXIT_SANITY


def cmd_hpo(config) -> int:
    ranked = run_hpo(config)
    print(f"{'rank':<5} {'mc':>8}  cell")
    for rank, row in enumerate(ranked, start=1):
        print(f"{rank:<5} {row['mc']:>8.4f}  {row['cell']}")
    best = ranked[0]
    print(f"best cell: {best['cell']} (MC {best['mc']:.4f})")
    return EXIT_OK


def cmd_convergence(config) -> int:
    summary = run_convergence(config)
    print(f"{'estimator pair':<60} {'corr':>8}  category")
    for row in summary["pairs"]:
        kind = "within" if row["within_category"] else "cross"
        name = " / ".join(row["pair"])
        print(f"{name:<60} {row['correlation']:>8.4f}  {kind}")
    print(f"mean within-category correlation: {summary['mean_within']:.4f}")
    print(f"mean cross-category correlation:  {summary['mean_cross']:.4f}")
    return EXIT_OK


def cmd_train(config) -> int:
    path, acc = run_train(config)
    print(f"model saved to {path}; training accuracy {acc:.4f}")
    return EXIT_OK


COMMANDS = {
    "benchmark": cmd_benchmark,
    "sanity": cmd_sanity,
    "hpo": cmd_hpo,
    "convergence": cmd_convergence,
    "train": cmd_train,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.verb](_load(args))
    except (ConfigError, FileNotFoundError) as exc:
        log(f"configuration error: {exc}")
        return EXIT_CONFIG
    except DataFormatError as exc:
        log(f"data error: {exc}")
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failures keep a stable exit code for CI
        log(f"runtime error: {type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
