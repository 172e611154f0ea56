"""The benchmark's four seeded workloads, driven through the public API.

Every workload is a closed loop of *jobs*: one client submits a job,
waits until its analysis is in hand, checks the outputs, and only then
submits the next.  A job's turnaround runs from submission to analysis
in hand; the benchmark's own checks run after it, untimed.

* ``fig4_sweep`` — the paper's Fig. 4 concentration series: the default
  :class:`~repro.experiments.DnaAssaySpec` (16 probes x 8 spots, 4
  targets present) over a seeded concentration grid x 16 chip
  replicates, vectorized backend, ``batched`` executor, then the
  ``dose_response`` analysis.
* ``neural_batched`` — the default 64x64
  :class:`~repro.experiments.NeuralRecordingSpec` at one of two seeded
  firing rates per job, in turn, x 8 replicates, vectorized,
  ``batched``, then the default analysis.
* ``service_replay`` — small faulted-DNA campaigns submitted one after
  another to an in-process ``JobManager(workers=1)`` with a disk
  ``ResultCache`` and a JSONL job root; half of every job after the
  first repeats an earlier job's points (see :func:`service_job_stream`).
* ``wafer_map`` — 120 mm wafers of 73 dies x 128x128 sites over a
  seeded ``radial_gradient`` grid x 2 replicates, then ``wafer_yield``.

The seed decides the grids, the job stream and every campaign seed; the
program only ever sees the generated specs.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

import numpy as np

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments import DnaAssaySpec, NeuralRecordingSpec
from repro.experiments.specs import spec_from_dict
from repro.service.cache import ResultCache, plan_keys
from repro.service.jobs import JobManager
from repro.service.keys import content_digest
from repro.wafer import WaferSpec

from .tracing import Tracer

#: Output floors, below what the program reached on every job of seeds
#: 1-8 (per-job r^2 >= 0.99989; mean recall >= 0.769 and mean precision
#: >= 0.782 over 16 recordings), so a seed never seen fails only on a
#: real regression.  Detection is checked over a whole phase (at least
#: 32 recordings): one neural job holds 8, whose mean came within 0.012
#: of the floor on 24 jobs of seeds 1-6.
FIG4_R_SQUARED_FLOOR = 0.9995
NEURAL_RECALL_FLOOR = 0.7
NEURAL_PRECISION_FLOOR = 0.7

#: Longest a service job may take before the run counts it as failed.
JOB_TIMEOUT_S = 120.0


@dataclass
class JobRecord:
    """One completed job as the client saw it."""

    points: int
    failed: int
    turnaround_s: float
    digest: Optional[str] = None
    errors: list[str] = field(default_factory=list)
    queue_wait_s: Optional[float] = None
    repeated_points: int = 0


def derive_seed(seed: int, *words: int) -> int:
    """A 32-bit seed derived from the run seed and ``words``."""
    return int(np.random.SeedSequence([int(seed), *words]).generate_state(1)[0])


def _finite(value: Any) -> Any:
    """Spell non-finite floats as strings so canonical JSON accepts them
    (neural records carry NaN SNRs for neurons that never fired)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _finite(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(entry) for entry in value]
    return value


def payload_digest(payload: dict) -> str:
    """Content digest of a ``to_dict()`` payload (ResultSet or report)."""
    return content_digest(_finite(payload))


def campaign_digest(results: list, report: Any) -> str:
    """Digest of a job's canonical output: every point, then the analysis."""
    return content_digest(
        {
            "points": [payload_digest(result.to_dict()) for result in results],
            "analysis": payload_digest(report.to_dict()),
        }
    )


class Workload:
    """A closed-loop job stream; subclasses define one job."""

    name = ""
    #: Jobs every phase runs, however short ``--seconds`` is; their
    #: outputs make up the run's results digest.
    min_jobs = 1

    def __init__(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.tracer = tracer

    def open(self) -> None:
        """Create the per-phase state (a job manager, a cache)."""

    def close(self) -> None:
        """Release the per-phase state."""

    def run_job(self, index: int, digest: bool) -> JobRecord:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole phase; returns error messages."""
        return []

    def summary(self) -> dict[str, Any]:
        """Workload-specific facts about the phase, for the report."""
        return {}


class CampaignWorkload(Workload):
    """One job = ``run_campaign`` plus its analysis; job ``i`` runs the
    workload's campaign under its own derived campaign seed."""

    analysis: Optional[str] = None

    def __init__(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])
        self.campaign = self.make_campaign()

    def make_campaign(self) -> CampaignSpec:
        raise NotImplementedError

    def check(self, results: list, report: Any) -> list[str]:
        raise NotImplementedError

    def run_job(self, index: int, digest: bool) -> JobRecord:
        n_points = self.campaign.n_points
        start = time.perf_counter()
        try:
            # ``job.*`` spans are the benchmark's own, not a layer of the
            # program: their self time counts as unattributed.
            with self.tracer.span("job.campaign"):
                result = run_campaign(
                    self.campaign, seed=derive_seed(self.seed, index), executor="batched"
                )
            report = result.analyze(self.analysis)
        except Exception as exc:  # noqa: BLE001 — a failed job is counted, not raised
            return JobRecord(
                n_points, n_points, time.perf_counter() - start,
                errors=[f"job {index}: {type(exc).__name__}: {exc}"],
            )
        turnaround = time.perf_counter() - start
        with self.tracer.paused():
            results = result.results()
            errors = [f"job {index}: {error}" for error in self.check(results, report)]
            record = JobRecord(n_points, n_points if errors else 0, turnaround, errors=errors)
            if digest:
                record.digest = campaign_digest(results, report)
        return record


class Fig4Sweep(CampaignWorkload):
    name = "fig4_sweep"
    analysis = "dose_response"
    min_jobs = 8

    def make_campaign(self) -> CampaignSpec:
        # One concentration per decade from 0.1 to 100 nM (mol/m^3),
        # each jittered by up to a quarter decade.
        concentrations = tuple(
            float(f"{10.0 ** (decade + self.rng.uniform(-0.25, 0.25)):.4g}")
            for decade in (-7, -6, -5, -4)
        )
        return CampaignSpec(
            base=DnaAssaySpec(target_subset=(0, 1, 2, 3)),
            grid={"concentration": concentrations},
            replicates=16,
            backend="vectorized",
            name=self.name,
        )

    def check(self, results: list, report: Any) -> list[str]:
        errors = []
        r_squared = report.scalars["r_squared"]
        if not r_squared >= FIG4_R_SQUARED_FLOOR:
            errors.append(f"dose-response r^2 {r_squared} below {FIG4_R_SQUARED_FLOOR}")
        low = min(result.metrics["discrimination_ratio"] for result in results)
        if not low > 1.0:
            errors.append(f"discrimination ratio {low} not above 1")
        return errors


class NeuralBatched(CampaignWorkload):
    name = "neural_batched"
    min_jobs = 4

    def __init__(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        super().__init__(seed, workdir, tracer)
        #: Per-recording detection recall and precision over the phase.
        self.recall: list[float] = []
        self.precision: list[float] = []

    def make_campaign(self) -> CampaignSpec:
        self.rates = (
            round(float(self.rng.uniform(15.0, 22.0)), 1),
            round(float(self.rng.uniform(28.0, 35.0)), 1),
        )
        return CampaignSpec(
            base=NeuralRecordingSpec(),
            grid={"firing_rate_hz": self.rates[:1]},
            replicates=8,
            backend="vectorized",
            name=self.name,
        )

    def run_job(self, index: int, digest: bool) -> JobRecord:
        # Jobs alternate between the two rates.  One rate x 8 replicates
        # takes about half the time of both, so a run holds twice the
        # jobs: with four 8 s jobs a run's slowest and fastest job spread
        # 0.25 of their median over ten seeds, with seven 4 s jobs 0.09.
        rate = self.rates[index % len(self.rates)]
        self.campaign = dataclasses.replace(self.campaign, grid={"firing_rate_hz": (rate,)})
        return super().run_job(index, digest)

    def check(self, results: list, report: Any) -> list[str]:
        self.recall += [result.metrics["mean_recall"] for result in results]
        self.precision += [result.metrics["mean_precision"] for result in results]
        return []

    def summary(self) -> dict[str, Any]:
        if not self.recall:  # every job failed; the jobs report why
            return {}
        return {
            "detection_recall": float(np.mean(self.recall)),
            "detection_precision": float(np.mean(self.precision)),
        }

    def finish(self) -> list[str]:
        errors = []
        summary = self.summary()
        recall = summary.get("detection_recall", NEURAL_RECALL_FLOOR)
        precision = summary.get("detection_precision", NEURAL_PRECISION_FLOOR)
        if not recall >= NEURAL_RECALL_FLOOR:
            errors.append(f"detection sensitivity {recall} below {NEURAL_RECALL_FLOOR}")
        if not precision >= NEURAL_PRECISION_FLOOR:
            errors.append(f"detection precision {precision} below {NEURAL_PRECISION_FLOOR}")
        return errors


class WaferMap(CampaignWorkload):
    name = "wafer_map"
    analysis = "wafer_yield"
    min_jobs = 4

    def make_campaign(self) -> CampaignSpec:
        gradients = (
            round(float(self.rng.uniform(0.0, 0.3)), 3),
            round(float(self.rng.uniform(0.3, 0.6)), 3),
        )
        base = WaferSpec(wafer_diameter_mm=120.0, rows=128, cols=128)
        self.sites_per_wafer = base.layout().n_dies * base.rows * base.cols
        return CampaignSpec(
            base=base,
            grid={"radial_gradient": gradients},
            replicates=2,
            backend="vectorized",
            name=self.name,
        )

    def check(self, results: list, report: Any) -> list[str]:
        errors = [
            f"sites_total {result.metrics['sites_total']} != {self.sites_per_wafer}"
            for result in results
            if result.metrics["sites_total"] != self.sites_per_wafer
        ]
        die_yield = report.scalars["die_yield"]
        if not 0.0 < die_yield <= 1.0:
            errors.append(f"die yield {die_yield} outside (0, 1]")
        return errors


# ---------------------------------------------------------------------------
# service_replay
# ---------------------------------------------------------------------------
#: The faulted-DNA base spec (as in examples/specs/dna_assay_faulted.json).
SERVICE_BASE = {
    "kind": "dna_assay",
    "probe_count": 4,
    "replicates": 4,
    "target_subset": [0, 1],
    "faults": [
        {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
        {"kind": "stuck_pixel", "rate": 0.02},
    ],
}
SERVICE_REPLICATES = 4
#: ``faults.rate`` values come from a window of this width whose lower
#: edge the seed places in ``SERVICE_RATE_LOW``; the window holds
#: ``SERVICE_RATE_LEVELS`` distinct values, drawn without replacement.
SERVICE_RATE_LOW = (0.05, 0.15)
SERVICE_RATE_WIDTH = 0.1
SERVICE_RATE_LEVELS = 10_000


@dataclass(frozen=True)
class ServiceJob:
    """One submission: the ``faults.rate`` grid and how many of its
    rates an earlier job of the stream already swept."""

    rates: tuple[float, ...]
    repeated: int


def service_job_stream(seed: int) -> Iterator[ServiceJob]:
    """The seeded job stream: the first job sweeps two fresh rates, every
    later job one rate an earlier job swept plus one fresh rate.  All
    jobs share one campaign seed, so a repeated rate is a repeated set
    of points (the same content keys); the designed repeated-point share
    of the first ``n`` jobs is ``(n - 1) / (2 n)``."""
    rng = np.random.default_rng([int(seed), 0x5E4])
    low = SERVICE_RATE_LOW[0] + (SERVICE_RATE_LOW[1] - SERVICE_RATE_LOW[0]) * rng.random()
    fresh = (
        round(low + SERVICE_RATE_WIDTH * int(level) / SERVICE_RATE_LEVELS, 7)
        for level in rng.permutation(SERVICE_RATE_LEVELS)
    )
    swept = [next(fresh), next(fresh)]
    yield ServiceJob(tuple(swept), 0)
    for new in fresh:
        old = swept[int(rng.integers(len(swept)))]
        swept.append(new)
        yield ServiceJob((old, new) if rng.random() < 0.5 else (new, old), 1)


class ServiceReplay(Workload):
    name = "service_replay"
    #: The fewest turnaround samples whose p90 (nearest rank 90) has ten
    #: samples beyond it, as :data:`perfbench.stats.MIN_BEYOND` asks.
    min_jobs = 100

    def __init__(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.base = spec_from_dict(SERVICE_BASE)
        self.campaign_seed = derive_seed(self.seed, 1)
        self.stream = service_job_stream(self.seed)
        self.root: Optional[Path] = None
        self.manager: Optional[JobManager] = None
        #: content key -> digest of the result when it was first computed
        self.first: dict[str, str] = {}
        self.points = 0
        self.designed = 0
        self.hits = 0

    def open(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        # max_memory=0: every hit is a disk read with digest verification.
        cache = ResultCache(self.root / "cache", max_memory=0)
        self.manager = JobManager(workers=1, cache=cache, root=self.root / "jobs")

    def close(self) -> None:
        if self.manager is not None:
            self.manager.shutdown(wait=True)
            self.manager = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def run_job(self, index: int, digest: bool) -> JobRecord:
        if self.manager is None:
            raise RuntimeError("open() the workload before running jobs")
        planned = next(self.stream)
        campaign = CampaignSpec(
            base=self.base,
            grid={"faults.rate": planned.rates},
            replicates=SERVICE_REPLICATES,
            name=f"{self.name}-{index}",
        )
        n_points = campaign.n_points
        start = time.perf_counter()
        # Spans the manager's worker thread opens for this job hang under
        # the (unattributed) ``job.client`` span.
        with self.tracer.span("job.client", ambient=True):
            job = self.manager.submit(campaign, seed=self.campaign_seed, backend="object")
            finished = job.wait(JOB_TIMEOUT_S)
        if not finished or job.status != "done":
            return JobRecord(
                n_points, n_points, time.perf_counter() - start,
                errors=[f"job {index}: status {job.status} ({job.error})"],
            )
        report = job.result.analyze("fault_tolerance")
        turnaround = time.perf_counter() - start
        with self.tracer.paused():
            return self._check(index, job, report, planned, turnaround, digest)

    def _check(self, index: int, job: Any, report: Any, planned: ServiceJob,
               turnaround: float, digest: bool) -> JobRecord:
        n_points = job.n_points
        designed = planned.repeated * SERVICE_REPLICATES
        summary = job.cache_summary or {}
        errors = []
        if job.failed_points:
            errors.append(f"{len(job.failed_points)} failed points")
        if summary.get("hits", 0) + summary.get("computed", 0) != n_points:
            errors.append(f"hits + computed != points: {summary}")
        results = []
        repeated = 0
        keys = plan_keys(job.plan, backend="object")
        for point in job.plan:
            result = job.result.result_for(point.index)
            results.append(result)
            key, result_digest = keys[point.index], payload_digest(result.to_dict())
            first = self.first.get(key)
            if first is None:
                self.first[key] = result_digest
                continue
            repeated += 1
            if first != result_digest:
                errors.append(f"point {point.index}: cached result differs from its first run")
        if repeated != designed or summary.get("hits") != designed:
            errors.append(
                f"repeated points {repeated}, cache hits {summary.get('hits')}, designed {designed}"
            )
        self.points += n_points
        self.designed += designed
        self.hits += summary.get("hits", 0)
        record = JobRecord(
            n_points,
            n_points if errors else len(job.failed_points),
            turnaround,
            errors=[f"job {index}: {error}" for error in errors],
            queue_wait_s=job.started_s - job.submitted_s,
            repeated_points=repeated,
        )
        if digest:
            record.digest = campaign_digest(results, report)
        return record

    def summary(self) -> dict[str, Any]:
        return {
            "repeated_share_designed": self.designed / self.points,
            "repeated_share_measured": self.hits / self.points,
        }

    def finish(self) -> list[str]:
        if self.hits != self.designed:
            return [f"measured repeated share {self.hits}/{self.points} != designed "
                    f"{self.designed}/{self.points}"]
        return []


WORKLOADS = {
    cls.name: cls for cls in (Fig4Sweep, NeuralBatched, ServiceReplay, WaferMap)
}
