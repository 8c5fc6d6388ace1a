"""Command-line entry point.

Subcommands: simulate, sweep, classify, table2, plotdata.  All outputs
are CSV/JSON; nothing is plotted directly, the files are laid out for
external plotting tools.

Exit codes: 0 success, 2 configuration error, 3 ingestion error,
4 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .classify import classify_series
from .errors import BubbleLabError, IngestError, InvalidConfig
from .growth import table2, table2_csv
from .market import AgentSpec, SimConfig, run
from .regression import MODEL_PRICE, MODEL_RETURN
from .series import (
    MIN_WINDOW,
    ExperimentParams,
    Window,
    discrete_returns,
    excess_series,
    load_csv,
)
from .sweep import grid_summary, grid_to_csv, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_COMPUTE = 4

# Exception classes -> exit code; the first matching row wins, so
# UnicodeDecodeError (a ValueError) counts as an ingestion error.
_EXIT_CODES = (
    (InvalidConfig, EXIT_CONFIG),
    ((IngestError, UnicodeDecodeError, OSError), EXIT_INGEST),
    ((BubbleLabError, ValueError, ArithmeticError), EXIT_COMPUTE),
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
    h = params.n_traders
    if preset == "fundamentalist":
        return tuple(AgentSpec.fundamentalist() for _ in range(h))
    if preset == "rational":
        return tuple(
            AgentSpec.rational_bubble(rate=params.r, scale=5.0, anchor=params.fundamental)
            for _ in range(h)
        )
    if preset == "bubble":
        specs = [AgentSpec.price_anchor(a=math.log(1.09), b=1e-4) for _ in range(h - 1)]
        specs.append(AgentSpec.naive())
        return tuple(specs)
    if preset == "noise":
        specs = [AgentSpec.fundamentalist() for _ in range(h - 1)]
        specs.append(AgentSpec.noise(sigma=5.0))
        return tuple(specs)
    raise InvalidConfig(f"unknown agent preset {preset!r}")


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    params = parse_params(args.params)
    agents = _build_agents(args.agents, params)
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
    ``<prefix><model>_grid.csv``, holding one grid at a time; returns the
    grid summaries by model."""
    one_sided = args.confidence == "one-sided"
    summaries = {}
    for model in (MODEL_PRICE, MODEL_RETURN):
        grid = sweep(excess, model, min_window=args.min_window, one_sided=one_sided)
        _write(outdir / f"{prefix}{model}_grid.csv", grid_to_csv(grid))
        summaries[model] = grid_summary(grid)
        del grid  # free it before the next sweep builds its own
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
    rows = table2(steps=args.steps, a1=args.a1, a2=args.a2, b2=args.b2)
    outdir = _outdir(args)
    _write(outdir / "table2.csv", table2_csv(rows))
    return EXIT_OK


def cmd_plotdata(args) -> int:
    params = parse_params(args.params)
    series, forecasts = load_csv(args.input, params)
    outdir = _outdir(args)

    lines = ["t,price"]
    for i, v in enumerate(series.values):
        lines.append(f"{series.t0 + i},{v:.17g}")
    _write(outdir / "plot_prices.csv", "\n".join(lines) + "\n")

    if forecasts:
        header = "t," + ",".join(f"h{h + 1}" for h in range(len(forecasts)))
        lines = [header]
        for i in range(len(series)):
            vals = ",".join(f"{col[i]:.17g}" for col in forecasts)
            lines.append(f"{series.t0 + i},{vals}")
        _write(outdir / "plot_forecasts.csv", "\n".join(lines) + "\n")
    else:
        print("input has no forecast columns; plot_forecasts.csv skipped")

    rets = discrete_returns(series)
    lines = ["t,return_current,return_next,diagonal"]
    for i in range(len(rets) - 1):
        r_cur, r_nxt = rets.values[i], rets.values[i + 1]
        lines.append(f"{rets.t0 + i},{r_cur:.17g},{r_nxt:.17g},{r_cur:.17g}")
    _write(outdir / "plot_returns.csv", "\n".join(lines) + "\n")

    _write_grids(args, excess_series(series, params), outdir, "plot_")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


def build_parser():
    """Returns the top-level parser plus the per-subcommand parsers
    (config-file defaults must be set on the subparsers directly:
    argparse subparsers re-parse into a fresh namespace).  Each subcommand
    takes exactly the options it reads: ``common`` ones everywhere, the
    ``market`` constants where a series or a run needs them, and the
    ``fitting`` options where both feedback models are swept."""
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
    commands = {}

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
    commands["simulate"] = p

    p = sub.add_parser("sweep", parents=[fitting],
                       help="fit both feedback models on every window of a series")
    p.set_defaults(func=cmd_sweep)
    commands["sweep"] = p

    p = sub.add_parser("classify", parents=[fitting],
                       help="label a series per the bubble taxonomy")
    p.add_argument("--theta", type=float, default=0.2,
                   help="significant-fraction threshold for the anchoring labels")
    p.add_argument("--window", default="",
                   help="explicit start,end bubble window (skips detection)")
    p.set_defaults(func=cmd_classify)
    commands["classify"] = p

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
    commands["table2"] = p

    p = sub.add_parser("plotdata", parents=[fitting],
                       help="emit plot-ready CSVs for a series")
    p.set_defaults(func=cmd_plotdata)
    commands["plotdata"] = p

    return parser, commands


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
    with open(known.config, encoding="utf-8") as fh:
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
