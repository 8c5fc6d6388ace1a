"""Exception hierarchy shared by all bubblelab modules.

The CLI maps these onto exit codes: configuration problems
(``InvalidConfig``, 2), ingestion problems (``IngestError``, 3) and
computation problems (every other ``BubbleLabError``, 4) each get their
own code.  Unreadable or unwritable files and undecodable input are
ingestion problems too; any other exception is a bug, not a bad input.
``IngestError`` is the base of the three ingestion errors (malformed row,
non-contiguous time, out-of-range value); each carries the 1-based
``line`` of the input file it refers to.

``_text`` prints a caller's value in every message, so that building a
message never fails.
"""


def _text(value, show=str) -> str:
    """``value`` as an error message prints it: ``show(value)`` (``str``
    or ``repr``) where that works; else an int by its sign and bit length
    (``str`` refuses ints past 4,300 digits by default from Python 3.11
    on) and any other value by its type, such as a list holding such an
    int."""
    try:
        return show(value)
    except Exception:
        if isinstance(value, int):
            return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"
        return f"a {type(value).__name__}"


class BubbleLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(BubbleLabError, ValueError):
    """Parameters or run configuration violate an invariant.

    Also a ``ValueError``, so callers that catch the built-in error for a
    bad argument keep working."""


class InsufficientHistory(BubbleLabError):
    """An agent rule needs more past prices than are available."""


class IngestError(BubbleLabError):
    """An input file could not be read into a series; ``line`` is the
    1-based line of the file the message refers to."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedRow(IngestError):
    """A CSV row could not be parsed."""


class NonContiguousTime(IngestError):
    """The time column of a CSV does not advance by exactly one."""


class OutOfRange(IngestError):
    """A price or forecast lies outside the admissible [p_min, p_max] band."""


class NonPositiveExcess(BubbleLabError):
    """An excess price needed strictly positive was zero or negative.

    ``index`` is the absolute time index of the first offending value.
    Signals that the requested window lies outside a bubble regime.
    """

    def __init__(self, index: int, message: str = ""):
        super().__init__(message or f"non-positive excess price at t={_text(index)}")
        self.index = index


class ReturnOverflow(BubbleLabError):
    """A discrete return leaves the float range.

    ``index`` is the time t of the return: the ratio of the value at t to
    the value at t - 1 overflows.
    """

    def __init__(self, index: int):
        super().__init__(f"discrete return at t={_text(index)} leaves the float range")
        self.index = index


class TooFewPoints(BubbleLabError):
    """Not enough observations for a two-parameter fit."""


class DegenerateRegressor(BubbleLabError):
    """The regressor has no usable variance."""


class FiniteHorizonSingularity(BubbleLabError):
    """An iteration left the positive floats: a value overflowed (as
    positive feedback does in finite time), became NaN or underflowed to
    zero.

    ``last_finite_index`` is the time of the last positive finite value
    produced.
    """

    def __init__(self, last_finite_index: int):
        super().__init__(
            f"iteration diverged; last finite value at t={last_finite_index}"
        )
        self.last_finite_index = last_finite_index
