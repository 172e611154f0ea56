"""Parameter-sweep helpers for benchmark harnesses.

Every figure reproduction is a sweep: sensor current over five decades
(Fig. 3), seal resistance (Fig. 5), pixel pitch (in-text claim T2), stage
count (Fig. 1).  :class:`Sweep` couples a named parameter grid to a
callable and collects results into column arrays ready for table
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


def log_space(low: float, high: float, points_per_decade: int = 4) -> np.ndarray:
    """Logarithmic grid from low to high inclusive."""
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    decades = np.log10(high / low)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(low), np.log10(high), count)


def lin_space(low: float, high: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("count must be >= 2")
    if high <= low:
        raise ValueError("need low < high")
    return np.linspace(low, high, count)


@dataclass
class SweepResult:
    """Columnar sweep results.

    ``params`` holds the swept values, ``columns`` maps output names to
    arrays aligned with ``params``.
    """

    param_name: str
    params: np.ndarray
    columns: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {sorted(self.columns)}")
        return self.columns[name]

    def rows(self) -> Iterable[tuple]:
        names = sorted(self.columns)
        for i, value in enumerate(self.params):
            yield (value, *[self.columns[name][i] for name in names])

    def header(self) -> list[str]:
        return [self.param_name, *sorted(self.columns)]


def run_sweep(
    param_name: str,
    values: Sequence[float] | np.ndarray,
    func: Callable[[float], Mapping[str, float]],
) -> SweepResult:
    """Evaluate ``func`` at every value; each call returns a dict of
    scalar outputs which become the result columns."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("sweep needs at least one value")
    columns: dict[str, list[float]] = {}
    for value in values:
        outputs = func(float(value))
        if not outputs:
            raise ValueError("sweep function returned no outputs")
        if not columns:
            columns = {name: [] for name in outputs}
        if set(outputs) != set(columns):
            raise ValueError("sweep function changed its output keys mid-sweep")
        for name, out in outputs.items():
            columns[name].append(float(out))
    return SweepResult(
        param_name=param_name,
        params=values,
        columns={name: np.asarray(vals) for name, vals in columns.items()},
    )
