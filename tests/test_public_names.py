"""Every public name of ``bubblelab`` is read somewhere in the package, or
is kept for a stated reason.  A public name that only the tests call
states its rule a second time, beside the code that runs it.

A name counts as read when a module of ``src/bubblelab`` other than
``__init__.py``, which only exports, loads it: as a name, or as the
attribute of anything.  The check goes by name, so a read in any module
counts, whichever module defines the name."""

import ast
from pathlib import Path

import bubblelab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bubblelab"

# Public names that no module of the package reads, each with its reason.
KEPT = {
    "agent_forecast": "bench/layer_trace.py wraps it by name, so market_sim --trace 1 needs it",
    "fit_price_model": "the standalone fit of one window, which each sweep cell equals bit for bit",
    "fit_return_model": "the standalone fit of one window, which each sweep cell equals bit for bit",
    "detect_bubble_window": "the bubble-window rule on its own; the benchmark times and checks it",
    "grid_summary": "the summary of a built grid, which sweep_summary and write_grid equal",
    "grid_to_csv": "the CSV of a built grid, which write_grid's file equals byte for byte",
    "iterate_noisy": "the noisy growth series of criterion 6's power study and the benchmark",
    "EXPERIMENT_GROUP_WINDOWS": "the bubble windows of the laboratory groups, data for users",
}


def _read_names() -> set:
    names = set()
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert paths, f"no modules under {PACKAGE}"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_read_in_the_package_or_kept_for_a_reason():
    unread = set(bubblelab.__all__) - _read_names() - set(KEPT)
    assert not unread, f"public names that no module reads: {sorted(unread)}"


def test_every_kept_name_is_public_and_unread():
    # an entry whose name is gone, or now has a reader, is stale
    assert sorted(set(KEPT) - (set(bubblelab.__all__) - _read_names())) == []
