"""Command-line entry point.

Subcommands: simulate, sweep, classify, table2, plotdata.  All outputs
are CSV/JSON; nothing is plotted directly, the files are laid out for
external plotting tools.

Exit codes: 0 success, 2 configuration error, 3 ingestion error (also
an input or config file that cannot be read, or an ``--outdir`` that
cannot be created or written), 4 computation error.  Codes 2, 3 and 4
come only from the typed errors of ``_EXIT_CODES``; any other exception
is a bug and ends the run with a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BubbleLabError, IngestError, InvalidConfig
from .regression import MODEL_PRICE, MODEL_RETURN
from .series import (
    MIN_WINDOW,
    ExperimentParams,
    Window,
    discrete_returns,
    excess_series,
    load_csv,
)
from .sweep import write_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_COMPUTE = 4

# Exception classes -> exit code; the first matching row wins, so
# InvalidConfig and IngestError keep their own codes ahead of the
# BubbleLabError they subclass.
_EXIT_CODES = (
    (InvalidConfig, EXIT_CONFIG),
    ((IngestError, UnicodeDecodeError, OSError), EXIT_INGEST),
    (BubbleLabError, EXIT_COMPUTE),
)

_PARAM_KEYS = {
    "r": ("r", float),
    "D": ("dividend", float),
    "H": ("n_traders", int),
    "p_min": ("p_min", float),
    "p_max": ("p_max", float),
}


def parse_params(text: str) -> ExperimentParams:
    """Build market constants from `r=..,D=..,H=..` style overrides."""
    if not text:
        return ExperimentParams()
    kwargs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidConfig(f"malformed parameter override {chunk!r}")
        key, _, val = chunk.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise InvalidConfig(f"unknown parameter {key!r}")
        field, conv = _PARAM_KEYS[key]
        try:
            kwargs[field] = conv(val.strip())
        except ValueError:
            raise InvalidConfig(f"bad value for parameter {key!r}: {val!r}") from None
    return ExperimentParams(**kwargs)


def _build_agents(preset: str, params: ExperimentParams) -> tuple:
    """Agent presets for simulate; `bubble` mixes price-anchoring traders
    with one naive follower."""
    from .market import AgentSpec

    h = params.n_traders
    # one spec per kind of trader, repeated: run shares twins anyway
    if preset == "fundamentalist":
        return (AgentSpec.fundamentalist(),) * h
    if preset == "rational":
        return (AgentSpec.rational_bubble(rate=params.r, scale=5.0,
                                          anchor=params.fundamental),) * h
    if preset == "bubble":
        return (AgentSpec.price_anchor(a=math.log(1.09), b=1e-4),) * (h - 1) + (AgentSpec.naive(),)
    # "noise", the one preset left: argparse's choices, and
    # _apply_config_file's check of them, refuse any other
    return (AgentSpec.fundamentalist(),) * (h - 1) + (AgentSpec.noise(sigma=5.0),)


def _parse_pair(text: str, what: str, conv=float) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InvalidConfig(f"{what} needs two comma-separated values, got {text!r}")
    try:
        return conv(parts[0]), conv(parts[1])
    except ValueError:
        raise InvalidConfig(f"bad {what} value {text!r}") from None


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _write_table(path: Path, header: str, t0: int, rows) -> None:
    """Write a plot table: ``header``, then one line per row of floats,
    led by its time t0, t0 + 1, ..."""
    lines = [header]
    for t, row in enumerate(rows, start=t0):
        lines.append(f"{t}," + ",".join(f"{v:.17g}" for v in row))
    _write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
#
# Each imports the modules only it runs (classify, growth, market), so the
# others start without loading them.
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .market import SimConfig, run

    params = parse_params(args.params)
    try:
        agents = _build_agents(args.agents, params)
    except MemoryError:  # a repeat of a spec past the longest tuple
        raise InvalidConfig(f"n_traders {params.n_traders} is more than a tuple holds") from None
    if args.initial_prices:
        initial = _parse_pair(args.initial_prices, "initial prices")
    elif args.agents == "bubble":
        initial = (66.0, 72.0)  # ignite the feedback rules above the fundamental
    else:
        initial = (params.fundamental, params.fundamental)
    config = SimConfig(
        params=params,
        agents=agents,
        horizon=args.horizon,
        seed=args.seed,
        return_noise_sigma=args.noise_sigma,
        mistrade_prob=args.mistrade_prob,
        initial_prices=initial,
    )
    result = run(config)
    outdir = _outdir(args)
    result.write_csv(outdir / "simulation.csv")
    print(f"wrote {outdir / 'simulation.csv'}")
    _write(outdir / "simulation.json", result.to_json() + "\n")
    return EXIT_OK


def _write_grids(args, excess, outdir: Path, prefix: str) -> dict:
    """Sweep both models over the whole series and write each grid as
    ``<prefix><model>_grid.csv`` as it is swept, holding no grid; returns
    the grid summaries by model."""
    one_sided = args.confidence == "one-sided"
    summaries = {}
    for model in (MODEL_PRICE, MODEL_RETURN):
        path = outdir / f"{prefix}{model}_grid.csv"
        summaries[model] = write_grid(path, excess, model, None, args.min_window, one_sided)
        print(f"wrote {path}")
    return summaries


def cmd_sweep(args) -> int:
    params = parse_params(args.params)
    series, _ = load_csv(args.input, params)
    excess = excess_series(series, params)
    outdir = _outdir(args)
    summary = {"input": str(args.input), "t0": series.t0, "n": len(series)}
    summary.update(_write_grids(args, excess, outdir, ""))
    _write(outdir / "sweep_summary.json", json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    from .classify import classify_series

    params = parse_params(args.params)
    series, _ = load_csv(args.input, params)
    window = Window(*_parse_pair(args.window, "--window", int)) if args.window else None
    verdict = classify_series(
        series,
        params,
        theta=args.theta,
        min_window=args.min_window,
        one_sided=args.confidence == "one-sided",
        window=window,
    )
    outdir = _outdir(args)
    _write(outdir / "verdict.json", verdict.to_json() + "\n")
    print(verdict.summary_line())
    return EXIT_OK


def cmd_table2(args) -> int:
    from .growth import table2, table2_csv

    rows = table2(steps=args.steps, a1=args.a1, a2=args.a2, b2=args.b2)
    outdir = _outdir(args)
    _write(outdir / "table2.csv", table2_csv(rows))
    return EXIT_OK


def cmd_plotdata(args) -> int:
    params = parse_params(args.params)
    series, forecasts = load_csv(args.input, params)
    outdir = _outdir(args)

    _write_table(outdir / "plot_prices.csv", "t,price", series.t0,
                 ((v,) for v in series.values))

    if forecasts:
        header = "t," + ",".join(f"h{h + 1}" for h in range(len(forecasts)))
        _write_table(outdir / "plot_forecasts.csv", header, series.t0, zip(*forecasts))
    else:
        print("input has no forecast columns; plot_forecasts.csv skipped")

    rets = discrete_returns(series)
    pairs = zip(rets.values, rets.values[1:])
    _write_table(outdir / "plot_returns.csv", "t,return_current,return_next,diagonal",
                 rets.t0, ((r, r_next, r) for r, r_next in pairs))

    _write_grids(args, excess_series(series, params), outdir, "plot_")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


def build_parser():
    """Returns the top-level parser plus argparse's own map of each
    subcommand's name to its parser (config-file defaults must be set on
    the subparsers directly: argparse subparsers re-parse into a fresh
    namespace).  Each subcommand takes exactly the options it reads:
    ``common`` ones everywhere, the ``market`` constants where a series or
    a run needs them, and the ``fitting`` options where both feedback
    models are swept."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--outdir",
        default=os.environ.get("BUBBLELAB_OUTDIR", "."),
        help="output directory (default: $BUBBLELAB_OUTDIR or the current directory)",
    )
    common.add_argument("--config", default=None, help="key=value defaults file")
    market = argparse.ArgumentParser(add_help=False, parents=[common])
    market.add_argument("--params", default="",
                        help="market constant overrides, e.g. r=0.05,D=3,H=6")
    fitting = argparse.ArgumentParser(add_help=False, parents=[market])
    fitting.add_argument("--input", required=True, help="price series CSV")
    fitting.add_argument(
        "--min-window", type=int, default=MIN_WINDOW, dest="min_window",
        help="smallest calibration window in price points",
    )
    fitting.add_argument(
        "--confidence", choices=("two-sided", "one-sided"), default="two-sided",
        help="interpretation of the 95%% lower confidence bounds",
    )

    parser = argparse.ArgumentParser(
        prog="bubblelab",
        description="Laboratory asset-market simulator and bubble calibration toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bubblelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[market],
                       help="run the forecasting market and write its series")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--horizon", type=int, default=50, help="number of simulated periods")
    p.add_argument("--agents", default="bubble",
                   choices=("fundamentalist", "rational", "bubble", "noise"),
                   help="composition of the trader group")
    p.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma",
                   help="std-dev of Gaussian noise on each log-forecast")
    p.add_argument("--mistrade-prob", type=float, default=0.0, dest="mistrade_prob",
                   help="per-agent-period probability of a misplaced decimal")
    p.add_argument("--initial-prices", default="", dest="initial_prices",
                   help="two seed prices, e.g. 66,72")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[fitting],
                       help="fit both feedback models on every window of a series")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", parents=[fitting],
                       help="label a series per the bubble taxonomy")
    p.add_argument("--theta", type=float, default=0.2,
                   help="significant-fraction threshold for the anchoring labels, in (0, 1]")
    p.add_argument("--window", default="",
                   help="explicit start,end bubble window (skips detection)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table2", parents=[common],
                       help="emit the exponential-vs-feedback comparison table")
    p.add_argument("--steps", type=int, default=23, help="last time step of the table")
    p.add_argument("--a1", type=float, default=math.log(1.1),
                   help="log-growth of the exponential column")
    p.add_argument("--a2", type=float, default=math.log(1.09),
                   help="base log-growth of the feedback column")
    p.add_argument("--b2", type=float, default=1e-4,
                   help="feedback coefficient of the feedback column")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("plotdata", parents=[fitting],
                       help="emit plot-ready CSVs for a series")
    p.set_defaults(func=cmd_plotdata)

    return parser, sub.choices


def _apply_config_file(commands, argv) -> None:
    """Load key=value defaults from --config; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    # Options come from the subcommands' own actions, so a file value
    # parses and is checked exactly like the same flag would be.  A
    # required option must be given as a flag, so it is no config key.
    actions = {
        action.dest: action
        for sub in commands.values()
        for action in sub._actions
        if action.dest not in ("help", "config") and not action.required
    }
    defaults = {}
    with open(known.config, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"{known.config}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in actions:
                raise InvalidConfig(f"{known.config}:{lineno}: unknown key {key!r}")
            action = actions[key]
            try:
                value = (action.type or str)(val.strip())
            except ValueError:
                raise InvalidConfig(
                    f"{known.config}:{lineno}: bad value for {key!r}"
                ) from None
            if action.choices and value not in action.choices:
                raise InvalidConfig(
                    f"{known.config}:{lineno}: {key!r} must be one of "
                    f"{', '.join(action.choices)}, got {value!r}"
                )
            defaults[key] = value
    for sub in commands.values():
        known_dests = {action.dest for action in sub._actions}
        relevant = {k: v for k, v in defaults.items() if k in known_dests}
        if relevant:
            sub.set_defaults(**relevant)


def _report(exc: Exception) -> int:
    """Print ``exc`` and return its exit code; re-raise what no row of
    the exit-code table covers."""
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            print(f"error: {exc}", file=sys.stderr)
            return code
    raise exc


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    except Exception as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
