"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a whole family of experiment runs the
way an :class:`~repro.experiments.specs.ExperimentSpec` describes one:
frozen, serializable, no imperative state.  It wraps a *base* spec and
three axis constructs:

* ``grid`` — a mapping of spec field -> value tuple; axes combine as a
  cartesian product (Fig. 4's concentration series × bias sweeps);
* ``zip`` — equal-length value tuples advanced in lockstep (paired
  parameter trajectories that must not cross-product);
* ``replicates`` — seed-varied repeats of every grid×zip point (Fig. 6's
  chip-to-chip Monte Carlo).

``compile(seed)`` expands the axes into an explicit
:class:`~repro.campaigns.plan.Plan` whose per-point seeds derive from
the campaign root via :func:`replicate_seed` — stable functions of
``(root, replicate)`` only, never of point position, executor or worker
count.  Replicate 0 keeps the root itself, so a single-replicate
campaign point is bit-identical to ``Runner(seed).run(spec)``.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..core.rng import stable_entropy
from ..experiments.specs import BACKENDS, ExperimentSpec, spec_from_dict


def _normalize_axis_value(value: Any) -> Any:
    """Strip numpy scalar/array types from axis values at construction,
    so specs built from them serialize (content_hash, JSONL lines,
    manifests) without 'int64 is not JSON serializable' surprises."""
    import numpy as np

    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return tuple(_normalize_axis_value(item) for item in value)
    if isinstance(value, (list, tuple)):
        return type(value)(_normalize_axis_value(item) for item in value)
    return value


def replicate_seed(root: int, replicate: int) -> int:
    """The Runner root seed for replicate ``replicate`` of a campaign
    rooted at ``root``.

    Replicate 0 is the root itself; higher replicates hash
    ``(root, replicate)`` through the same process-stable digest the
    SeedTree uses, so the mapping never depends on how many points or
    axes surround the replicate.
    """
    if replicate < 0:
        raise ValueError(f"replicate must be non-negative, got {replicate}")
    if replicate == 0:
        return int(root)
    words = stable_entropy("campaign", "replicate", int(root), int(replicate))
    return int(words[0] | (words[1] << 32))


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative, serializable sweep over one experiment kind."""

    base: ExperimentSpec
    grid: Mapping[str, tuple] = field(default_factory=dict)
    zip: Mapping[str, tuple] = field(default_factory=dict)
    replicates: int = 1
    backend: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            raise TypeError(f"base must be an ExperimentSpec, got {type(self.base).__name__}")
        for axis, mapping in (("grid", self.grid), ("zip", self.zip)):
            for key, values in dict(mapping).items():
                # Reject a bare string (would silently explode char-by-
                # char) and any other scalar, naming the axis.
                if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                    raise ValueError(
                        f"{axis} axis {key!r} must be a sequence of values, "
                        f"got the single value {values!r} — wrap it in a list"
                    )
        object.__setattr__(
            self,
            "grid",
            {
                key: tuple(_normalize_axis_value(value) for value in values)
                for key, values in dict(self.grid).items()
            },
        )
        object.__setattr__(
            self,
            "zip",
            {
                key: tuple(_normalize_axis_value(value) for value in values)
                for key, values in dict(self.zip).items()
            },
        )
        field_names = {f.name for f in dataclasses.fields(self.base)}
        for axis, mapping in (("grid", self.grid), ("zip", self.zip)):
            # Dotted axes ("faults.rate") sweep one sub-field across
            # every entry of a tuple-of-mappings spec field.
            unknown = {
                key for key in mapping if key.split(".", 1)[0] not in field_names
            }
            if unknown:
                raise ValueError(
                    f"{axis} axis field(s) {sorted(unknown)} not on "
                    f"{type(self.base).__name__}"
                )
            for key in mapping:
                if "." not in key:
                    continue
                parent, sub = key.split(".", 1)
                entries = getattr(self.base, parent)
                if not (
                    isinstance(entries, tuple)
                    and entries
                    and all(isinstance(entry, Mapping) for entry in entries)
                ):
                    raise ValueError(
                        f"{axis} axis {key!r} sweeps entries of base.{parent}, "
                        f"which must be a non-empty tuple of mappings "
                        f"(e.g. base.faults=[{{'kind': ..., '{sub}': ...}}])"
                    )
                missing = [
                    dict(entry).get("kind", index)
                    for index, entry in enumerate(entries)
                    if sub not in entry
                ]
                if missing:
                    raise ValueError(
                        f"{axis} axis {key!r}: base.{parent} entries "
                        f"{missing} have no field {sub!r}"
                    )
            empty = [key for key, values in mapping.items() if not values]
            if empty:
                raise ValueError(f"{axis} axis {empty[0]!r} has no values")
        overlap = set(self.grid) & set(self.zip)
        if overlap:
            raise ValueError(f"field(s) {sorted(overlap)} appear in both grid and zip")
        zip_lengths = {key: len(values) for key, values in self.zip.items()}
        if len(set(zip_lengths.values())) > 1:
            raise ValueError(f"zip axes must have equal lengths, got {zip_lengths}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def zip_length(self) -> int:
        """Positions along the zipped axes (1 when there are none)."""
        for values in self.zip.values():
            return len(values)
        return 1

    @property
    def n_points(self) -> int:
        total = self.replicates * self.zip_length
        for values in self.grid.values():
            total *= len(values)
        return total

    def axis_names(self) -> list[str]:
        """The spec fields that vary across the campaign, in expansion
        order (grid axes, then zip axes)."""
        return [*self.grid, *self.zip]

    def assignments(self) -> list[dict[str, Any]]:
        """One field-assignment dict per grid×zip point (replicates not
        expanded): grid axes vary outermost in declaration order, the
        zip position innermost."""
        import itertools

        grid_axes = [[(key, value) for value in values] for key, values in self.grid.items()]
        zip_rows = [
            {key: values[i] for key, values in self.zip.items()}
            for i in range(self.zip_length)
        ] or [{}]
        points = []
        for combo in itertools.product(*grid_axes):
            for zip_row in zip_rows:
                points.append({**dict(combo), **zip_row})
        return points

    def compile(self, seed: int = 0) -> "Plan":
        """Expand into an explicit :class:`~repro.campaigns.plan.Plan`
        of runs, replicates innermost."""
        from .plan import Plan, PlanPoint

        points = []
        index = 0
        for assignment in self.assignments():
            # Lists arrive from JSON campaigns / CLI axes; specs store
            # sequence fields as tuples (mirrors ExperimentSpec.from_dict).
            assignment = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in assignment.items()
            }
            direct = {key: v for key, v in assignment.items() if "." not in key}
            spec = self.base.replace(**direct) if direct else self.base
            for key, value in assignment.items():
                # Dotted axes rebuild the parent tuple with the sub-field
                # replaced in every entry (a "faults.rate" sweep moves
                # all fault entries' rates together).
                if "." not in key:
                    continue
                parent, sub = key.split(".", 1)
                entries = tuple(
                    {**dict(entry), sub: value} for entry in getattr(spec, parent)
                )
                spec = spec.replace(**{parent: entries})
            for replicate in range(self.replicates):
                points.append(
                    PlanPoint(
                        index=index,
                        spec=spec,
                        replicate=replicate,
                        seed=replicate_seed(seed, replicate),
                        assignment=assignment,
                    )
                )
                index += 1
        return Plan(points=tuple(points), campaign=self, seed=int(seed))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "zip": {key: list(values) for key, values in self.zip.items()},
            "replicates": self.replicates,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        payload = dict(data)
        base = payload.pop("base", None)
        if base is None:
            raise ValueError("campaign dict needs a 'base' spec entry")
        known = {f.name for f in dataclasses.fields(cls)} - {"base"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown campaign fields: {sorted(unknown)}")
        return cls(base=spec_from_dict(dict(base)), **payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(payload))

    def summary(self) -> str:
        axes = ", ".join(
            f"{key}×{len(values)}" for key, values in {**self.grid, **self.zip}.items()
        )
        label = self.name or self.base.kind
        return (
            f"<CampaignSpec {label}: {self.n_points} points"
            + (f" [{axes}]" if axes else "")
            + (f" ×{self.replicates} replicates" if self.replicates > 1 else "")
            + ">"
        )


def campaign_from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    """Module-level alias mirroring ``spec_from_dict``."""
    return CampaignSpec.from_dict(data)
