"""In-process fuzz of the command line.

Each draw builds hostile argv for one subcommand, and often a config file
and an input CSV too, with the standard library's ``random`` under a fixed
seed, and calls ``main`` in-process.  ``main`` must return one of the
documented exit codes and never raise: ``_EXIT_CODES`` maps only the
package's typed errors and I/O errors, so an exception escaping ``main``
is an untyped failure that some input reaches.

Draws are capped so that none starts a long run: horizon and steps at
most 100, at most 8 traders, at most 30 CSV rows.
"""

import random

import pytest

from bubblelab.cli import main

SEEDS = (0, 1, 2, 3)
DRAWS_PER_SEED = 500

FLOATS = (
    "nan", "inf", "-inf", "1e308", "-1e308", "-800", "1e-320", "0", "-0", "",
    "abc", "705.5", "709.7", "-745", "0.5", "1", "2", "60",
)
# horizon and steps: every integer here is at most 100
COUNTS = ("nan", "", "abc", "1e308", "2.5", "-800", "-1", "0", "1", "100")
INTS = COUNTS + ("99999", str(2**64), "-1e-320")
TRADERS = ("nan", "", "2.5", "1e308", "-1", "0", "1", "2", "8")
# market constants that admit the huge and tiny prices below
WIDE_PARAMS = ("D=0,p_max=1e308", "p_max=1e308", "r=0.05,D=3,H=6", "H=2,p_max=1e308", "")
PRICES = ("0", "1e-320", "1e308", "nan", "inf", "-1", "", "x", "60", "60.5", "1e300")
FLOAT_PAIRS = FLOATS + tuple(f"{a},{b}" for a in FLOATS for b in FLOATS)
INT_PAIRS = INTS + tuple(f"{a},{b}" for a in INTS for b in INTS)

# Each option a subcommand reads, with the (sane, hostile) values it draws
# from; --params is built by _params.
_MARKET = {"--params": None}
_FITTING = {
    **_MARKET,
    "--min-window": (("5", "6", "9"), INTS),
    "--confidence": (("one-sided", "two-sided"), ("x", "")),
}
OPTIONS = {
    "simulate": {
        **_MARKET,
        "--seed": (("0", "1", "7"), INTS),
        "--horizon": (("5", "20", "50"), COUNTS),
        "--agents": (("fundamentalist", "rational", "bubble", "noise"), ("x",)),
        "--noise-sigma": (("0", "0.1", "5"), FLOATS),
        "--mistrade-prob": (("0", "0.1", "1"), FLOATS),
        "--initial-prices": (("66,72", "60,60", "900,950"), FLOAT_PAIRS),
    },
    "table2": {
        "--steps": (("5", "23", "100"), COUNTS),
        "--a1": (("0.0953", "0.1", "0", "-0.1"), FLOATS),
        "--a2": (("0.0862", "0.1", "0", "-0.1"), FLOATS),
        "--b2": (("1e-4", "0", "-1e-4", "0.01"), FLOATS),
    },
    "sweep": _FITTING,
    "classify": {
        **_FITTING,
        "--theta": (("0.2", "0.5", "1"), FLOATS),
        "--window": (("0,9", "1,12", "3,29"), INT_PAIRS),
    },
    "plotdata": _FITTING,
}
OPTIONS_BY_FLAG = {flag: v for opts in OPTIONS.values() for flag, v in opts.items()}


def _params(rng, hostility):
    if rng.random() >= hostility:
        return rng.choice(WIDE_PARAMS)
    chunks = []
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(("r", "D", "H", "p_min", "p_max", "q", ""))
        val = rng.choice(TRADERS if key == "H" else FLOATS)
        chunks.append(rng.choice((f"{key}={val}", key, f" {key} = {val} ")))
    return ",".join(chunks)


def _option(rng, flag, hostility):
    if flag == "--params":
        return _params(rng, hostility)
    sane, hostile = OPTIONS_BY_FLAG[flag]
    return rng.choice(hostile if rng.random() < hostility else sane)


def _csv_body(rng, hostility) -> bytes:
    """A price CSV: a growing bubble on a contiguous t, with hostile
    headers, values, field counts and gaps in t mixed in."""
    roll = rng.random()
    if roll < 0.05 * hostility:
        return b""
    if roll < 0.1 * hostility:
        return b"t,price\n0,\xff60\n"  # not UTF-8
    n_fc = rng.choice((0, 0, 1, 2, 3))
    header = ["t", "price"] + [f"h{h}" for h in range(1, n_fc + 1)]
    if rng.random() < 0.2 * hostility:
        header = rng.choice((["t", "price", "h2"], ["time", "price"], ["t;price"]))
    lines = [",".join(header)]
    t = rng.choice((0, 1, -5, 10**20))
    excess = rng.choice((0.0, 1.0, 5.0, 60.0))
    growth = rng.choice((1.0, 1.05, 1.1, 1.3, 2.0, 1e10))
    cell_hostility = hostility * 0.3
    for _ in range(rng.randint(0, 30)):
        row = [str(t)]
        for _ in range(len(header) - 1):
            if rng.random() < cell_hostility:
                row.append(rng.choice(PRICES))
            else:
                row.append(repr(60.0 + excess))
        if rng.random() < cell_hostility * 0.1:
            row.pop()
        lines.append(",".join(row))
        if rng.random() < 0.03:
            lines.append("")
        t += 1 if rng.random() >= cell_hostility * 0.1 else rng.choice((0, 2))
        excess *= growth
    return ("\n".join(lines) + "\n").encode("utf-8")


# config keys with the values each draws from
CONFIG_VALUES = {
    "seed": INTS,
    "horizon": COUNTS,
    "agents": ("bubble", "noise", "rational", "fundamentalist", "x"),
    "noise_sigma": FLOATS,
    "mistrade_prob": FLOATS,
    "initial_prices": ("66,72", "nan,60", "1e308,1e308", "60", ""),
    "params": WIDE_PARAMS + ("H=8", "H=nan", "r=-1", "x=1"),
    "min_window": INTS,
    "confidence": ("one-sided", "two-sided", "x"),
    "theta": FLOATS,
    "window": ("0,9", "3,2", "nan,5", "0,1e308", "-5,40"),
    "steps": COUNTS,
    "a1": FLOATS,
    "a2": FLOATS,
    "b2": FLOATS,
    "input": ("prices.csv",),
    "bogus": ("1",),
}


def _config_body(rng) -> bytes:
    if rng.random() < 0.05:
        return b"seed=\xff\n"  # not UTF-8
    lines = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.1:
            lines.append(rng.choice(("no equals sign", "# comment", "", "=1")))
        else:
            key = rng.choice(tuple(CONFIG_VALUES))
            spelled = key.replace("_", "-") if rng.random() < 0.3 else key
            lines.append(f"{spelled}={rng.choice(CONFIG_VALUES[key])}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _draw(rng, tmp):
    """One draw: argv, with the CSV and config bodies it points at written.

    A draw's hostility is the chance that each of its options, and each
    cell of its CSV, takes a hostile value instead of a sane one."""
    hostility = rng.choice((0.0, 0.1, 0.3, 1.0))
    command = rng.choice(tuple(OPTIONS))
    outdir = tmp / ("a_file" if rng.random() < 0.03 else "out")  # a file is no directory
    argv = [command, "--outdir", str(outdir)]
    for flag in OPTIONS[command]:
        if rng.random() < 0.5:
            argv += [flag, _option(rng, flag, hostility)]
    bodies = {}
    if command != "simulate" and command != "table2":
        roll = rng.random()
        if roll < 0.95:
            bodies["prices.csv"] = _csv_body(rng, hostility)
            argv += ["--input", str(tmp / "prices.csv")]
        elif roll < 0.98:
            argv += ["--input", str(tmp / "missing.csv")]
    if rng.random() < 0.25 * hostility:
        bodies["run.cfg"] = _config_body(rng)
        argv += ["--config", str(tmp / "run.cfg")]
    if rng.random() < 0.02:
        argv.append("--bogus")
    for name, body in bodies.items():
        (tmp / name).write_bytes(body)
    return argv, bodies


@pytest.mark.parametrize("seed", SEEDS)
def test_main_returns_a_documented_exit_code(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything a draw writes relative to the cwd lands here
    (tmp_path / "a_file").write_text("")
    rng = random.Random(seed)
    codes = {}
    for i in range(DRAWS_PER_SEED):
        argv, bodies = _draw(rng, tmp_path)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(
                f"seed {seed}, draw {i}: main raised {type(exc).__name__}: {exc}\n"
                f"argv={argv}\nfiles={bodies}"
            )
        assert code in (0, 2, 3, 4), (seed, i, argv, bodies)
        codes[code] = codes.get(code, 0) + 1
    # every exit path is reached, so the draws are not all rejected up front
    assert set(codes) == {0, 2, 3, 4}, codes
