"""The closed-loop label table: markets of simulated traders, classified.

Each market is run for 40 seeds at three levels of forecast noise, and
its price series goes to ``classify_series``.  The markets are six
identical anchor traders whose mapped feedback model (README, "From
traders to feedback models") is one of acceptance criterion 6's three
scenarios, and the ``bubble`` preset:

- price anchors (0.0675, 7.5e-5) map onto the price scenario
  (ln 1.09, 1.5e-4), from an excess of 60 over 20 periods;
- return anchors (0.0284, 0.422) map onto the return scenario
  (0.02, 0.6), from an excess of 60 whose seed log growth is 0.25, over
  40 periods;
- price anchors with b = 0 and a = (ln 1.1 + ln 1.05)/2 map onto the
  exponential scenario (ln 1.1), from an excess of 60 over 20 periods;
- the ``bubble`` preset from the seed prices 66 and 72 over 50 periods.

The golden holds the label counts of each market at each noise level.
It states no acceptance bound.  Stdlib only, so any supported
interpreter can regenerate it:

    PYTHONPATH=src python tests/_closed_loop_golden.py

Regenerate only when an output change is intended, in its own commit.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from bubblelab import AgentSpec, ExperimentParams, SimConfig, classify_series, run
from bubblelab.cli import _build_agents

GOLDEN = Path(__file__).parent / "data" / "closed_loop_golden.json"
PARAMS = ExperimentParams()
SEEDS = 40
NOISE = (0.0, 0.003, 0.01)  # forecast noise std-devs

_PF = PARAMS.fundamental
# each market's traders, seed prices and horizon
MARKETS = {
    "price_anchor": ((AgentSpec.price_anchor(0.0675, 7.5e-5),) * PARAMS.n_traders,
                     (_PF + 60.0, _PF + 60.0), 20),
    "return_anchor": ((AgentSpec.return_anchor(0.0284, 0.422),) * PARAMS.n_traders,
                      (_PF + 60.0 * math.exp(-0.25), _PF + 60.0), 40),
    "exponential": ((AgentSpec.price_anchor((math.log(1.1) + math.log(1.05)) / 2, 0.0),)
                    * PARAMS.n_traders, (_PF + 60.0, _PF + 60.0), 20),
    "bubble_preset": (_build_agents("bubble", PARAMS), (66.0, 72.0), 50),
}


def label_counts() -> dict:
    """Each market's label counts over the seeds, by noise level (its repr)."""
    table = {}
    for name, (agents, seed_prices, horizon) in MARKETS.items():
        table[name] = {}
        for sigma in NOISE:
            labels = Counter(
                classify_series(run(SimConfig(PARAMS, agents, horizon, seed=seed,
                                              return_noise_sigma=sigma,
                                              initial_prices=seed_prices)).prices,
                                PARAMS).label
                for seed in range(SEEDS))
            table[name][repr(sigma)] = dict(sorted(labels.items()))
    return table


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(label_counts(), indent=1) + "\n")
