"""The power study's 3,000 seeded classifications, pinned.

Acceptance criterion 6 classifies 1000 noisy series of each of three
growth models and checks three rates against their bounds, which leave
room for a few dozen verdicts to move.  The golden pins every verdict.
Per scenario it holds the label counts, a sha256 over every seed's
``record`` and the first four hex digits of each seed's own sha256,
which name the seeds that moved when the golden no longer matches.

Stdlib only, so any supported interpreter can regenerate it:

    PYTHONPATH=src python tests/_power_golden.py

Regenerate only when an output change is intended, in its own commit.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from bubblelab import ExperimentParams, GrowthModel, classify_series, iterate_noisy

GOLDEN = Path(__file__).parent / "data" / "power_study_golden.json"
PARAMS = ExperimentParams()
SEEDS = 1000
# each scenario's growth model, steps and noise std-dev
SCENARIOS = {
    "price_feedback": (GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0), 20, 0.01),
    "return_feedback": (
        GrowthModel.return_feedback(0.02, 0.6, initial_log_return=0.25, start=60.0), 40, 0.003),
    "exponential": (GrowthModel.exponential(math.log(1.1), 60.0), 20, 0.01),
}
_DIGITS = 4  # hex digits of each seed's digest


def record(verdict) -> tuple:
    """What the golden pins of one verdict: its label and window, both
    fractions by repr, and each sweep's cell tallies and best window."""
    win = verdict.bubble_window
    fields = [verdict.label, None if win is None else (win.start, win.end),
              repr(verdict.price_fraction), repr(verdict.return_fraction)]
    for summary in (verdict.price_summary, verdict.return_summary):
        if summary is not None:
            best = summary["best_window"]
            fields += [summary["cells"], summary["valid_cells"], summary["significant_cells"],
                       tuple(summary["invalid_by_error"].items()),
                       best and (best["start"], best["end"])]
    return tuple(fields)


def classify_all() -> dict:
    """Each scenario's records, by seed."""
    return {
        name: [record(classify_series(iterate_noisy(model, steps, sigma, seed).to_prices(PARAMS),
                                      PARAMS))
               for seed in range(SEEDS)]
        for name, (model, steps, sigma) in SCENARIOS.items()
    }


def summarize(records: dict) -> dict:
    """The golden of each scenario's records."""
    golden = {}
    for name, recs in records.items():
        texts = [repr(rec).encode() for rec in recs]
        golden[name] = {
            "labels": dict(sorted(Counter(rec[0] for rec in recs).items())),
            "sha256": hashlib.sha256(b"\n".join(texts)).hexdigest(),
            "seeds": "".join(hashlib.sha256(text).hexdigest()[:_DIGITS] for text in texts),
        }
    return golden


def _seed_digests(seeds: str) -> list:
    return [seeds[i:i + _DIGITS] for i in range(0, len(seeds), _DIGITS)]


def differences(records: dict, golden: dict) -> list:
    """One line per scenario whose records do not match ``golden``,
    naming its first differing seeds and the first one's record."""
    fresh = summarize(records)
    lines = []
    for name in sorted(fresh.keys() | golden.keys()):
        got, want = fresh.get(name), golden.get(name)
        if got == want:
            continue
        if got is None or want is None:
            lines.append(f"{name}: only in the {'golden' if got is None else 'fresh run'}")
            continue
        pairs = zip(_seed_digests(got["seeds"]), _seed_digests(want["seeds"]))
        moved = [seed for seed, (a, b) in enumerate(pairs) if a != b]
        line = f"{name}: labels {got['labels']}, golden {want['labels']}; "
        if moved:
            line += (f"{len(moved)} seeds differ, first {moved[:5]}; "
                     f"seed {moved[0]} is now {records[name][moved[0]]!r}")
        else:
            line += "the sha256 differs, but no seed's digest does"
        lines.append(line)
    return lines


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(summarize(classify_all()), indent=1) + "\n")
