"""Output checks applied to every benchmark operation.

Each function returns a problem description, or None when the output is
correct.  A problem counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import math


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Ledger:
    """Remembers the first output of each input and demands the same bytes.

    The benchmark repeats every input, across passes and thread counts, so
    this enforces the determinism contract: a tail report is byte-identical
    at any thread count and on every repetition.
    """

    def __init__(self):
        self.first: dict[str, bytes] = {}

    def check(self, key: str, data: bytes) -> str | None:
        seen = self.first.setdefault(key, data)
        if seen != data:
            return f"{key}: output {digest(data)} differs from first output {digest(seen)}"
        return None

    def digests(self) -> dict[str, str]:
        return {key: digest(data) for key, data in sorted(self.first.items())}

    def combined(self) -> str:
        """One digest of every first output, in key order."""
        return digest(b"".join(k.encode() + b"\0" + v for k, v in sorted(self.first.items())))


def mom_exceedance(report) -> str | None:
    """On unflagged rows the median-of-means exceedance is at most
    delta + 3 sqrt(delta (1 - delta) / T)."""
    trials = report.metadata["trials"]
    for row in report.rows:
        if row.flag:
            continue
        d = row.delta
        limit = d + 3.0 * math.sqrt(d * (1.0 - d) / trials)
        if not row.exceedance <= limit:
            return f"mom exceedance {row.exceedance!r} > {limit!r} at delta={d!r}"
    return None


def stress_bound(fail_plus: float, fail_minus: float, match: float, trials: int) -> str | None:
    """The larger failure rate is at least match/2 - 3 sigma (criterion 08)."""
    slack = 3.0 * math.sqrt(match * (1.0 - match) / trials)
    if not max(fail_plus, fail_minus) >= match / 2.0 - slack:
        return (
            f"stress failure rates ({fail_plus!r}, {fail_minus!r}) below "
            f"match/2 - 3 sigma = {match / 2.0 - slack!r}"
        )
    return None


def finite_estimate(value) -> str | None:
    if not (isinstance(value, float) and math.isfinite(value)):
        return f"estimate {value!r} is not a finite float"
    return None
