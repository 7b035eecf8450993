"""Command-line front end: run configured experiments, list what exists.

Exit codes: 0 on success, 2 for configuration problems, 3 when the
numerics fail (solver divergence, degenerate root structure and such).
"""

import argparse
import sys
import time

from .errors import ConfigError, NumericalError
from .experiments import EXPERIMENT_KINDS, emit, load_config, run_experiment
from .version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtytx",
        description="Closed-form and Monte-Carlo analysis of a crosstalk-"
        "coupled nonlinear multi-branch transmitter.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config")
    run.add_argument("--out", help="output path (default: from config, else <experiment>.<format>)")
    run.add_argument("--format", choices=("csv", "json"),
                     help="output format (default: from config or path suffix, else csv)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")

    sub.add_parser("list-experiments", help="print the supported experiment kinds")
    return parser


def _resolve_output(args, config):
    fmt = args.format
    if fmt is None:
        fmt = config.get("format")
        if fmt is not None and fmt not in ("csv", "json"):
            raise ConfigError("config format must be csv or json")
    out = args.out if args.out is not None else config.get("output")
    if out is not None and not isinstance(out, str):
        raise ConfigError("output path must be a string")
    if fmt is None and out is not None and out.endswith(".json"):
        fmt = "json"
    if fmt is None:
        fmt = "csv"
    if out is None:
        out = "%s.%s" % (config.get("experiment", "experiment"), fmt)
    return out, fmt


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0

    try:
        config = load_config(args.config)
        out, fmt = _resolve_output(args, config)
        started = time.perf_counter()
        table = run_experiment(config, n_threads=args.threads, seed_override=args.seed)
        elapsed = time.perf_counter() - started
        emit(table, fmt, out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    print(
        "%s: %d rows -> %s (%.2f s)"
        % (table.metadata["experiment"], len(table.rows), out, elapsed)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
