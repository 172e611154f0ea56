"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 28 --trace 0

``--trace 0`` runs the workload's closed job loop untraced for
``--seconds`` (and at least the workload's fixed job count), then times
set-up in fresh processes, and prints the end-to-end metrics, then the
mean throughput, the median turnaround and the point failure ratio,
which carry no bound.
``--trace 1`` runs the same untraced loop, then the fixed job count
again with every layer entry point wrapped in spans, and prints the
per-layer metrics; the spans go to ``.perfbench/traces/``.  Either way
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name each metric with its unit, the results digest and the
environment.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's working space inside the checkout (temp dirs, trace files).
WORK_DIR = ROOT / ".perfbench"
#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 120.0


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set the workload up, print 'ready', tear down and exit",
    )
    return parser.parse_args(argv)


def _program_on_path() -> bool:
    """Put the checkout's ``src`` and root on ``sys.path``; False when
    the program's source is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict[str, Any]:
    import numpy

    import repro

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_commit": _git_commit(),
    }


def make_workload(name: str, seed: int, tracer: Any) -> Any:
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[name](seed, WORK_DIR / "tmp", tracer)


def run_phase(workload: Any, seconds: float) -> Any:
    """Closed loop: jobs back to back until ``seconds`` have passed and
    at least ``workload.min_jobs`` have run."""
    from perfbench.metrics import Phase

    jobs = []
    workload.open()
    try:
        start = time.perf_counter()
        while len(jobs) < workload.min_jobs or time.perf_counter() - start < seconds:
            workload.tracer.run = len(jobs)
            jobs.append(workload.run_job(len(jobs), digest=len(jobs) < workload.min_jobs))
        return Phase(jobs, workload.min_jobs, workload.finish(), workload.summary())
    finally:
        workload.close()


def setup_probe(args: argparse.Namespace) -> int:
    from perfbench.tracing import Tracer

    workload = make_workload(args.workload, args.seed, Tracer(enabled=False))
    workload.open()
    try:
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start to ready-to-run, in fresh processes:
    interpreter start, imports, spec generation, temp cache, manager."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                child.communicate(timeout=SETUP_PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {line!r}")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    """This process's high-water resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not _program_on_path():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    import_start = time.perf_counter()
    from perfbench import metrics, stats
    from perfbench.layers import Instrumentation
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - import_start
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    untraced = run_phase(make_workload(args.workload, args.seed, Tracer(enabled=False)),
                         args.seconds)
    errors = untraced.all_errors
    attempted, failed = untraced.points, untraced.failed
    detail: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": untraced.digest,
        "digest_jobs": untraced.min_jobs,
        **metrics.unbounded(untraced),
        "job_turnaround_samples": len(untraced.jobs),
        "p90_samples_beyond": stats.samples_beyond(len(untraced.jobs), 0.9),
        "p90_supported": stats.supported(len(untraced.jobs), 0.9),
        **untraced.summary,
        "env": environment(),
    }
    if args.trace:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        instrumentation.install()
        try:
            traced = run_phase(make_workload(args.workload, args.seed, tracer), 0.0)
        finally:
            instrumentation.remove()
        errors += traced.all_errors
        attempted += traced.points
        failed += traced.failed
        if traced.digest != untraced.digest:
            errors.append(f"results digest differs with tracing on: {traced.digest}")
        values, own = metrics.per_layer(tracer, traced, untraced, import_s)
        units = {metric.name: metric.unit for metric in metrics.PER_LAYER}
        trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            json.dumps(
                {**detail, "metrics": values,
                 "self_s_by_span": own, **tracer.to_dict()},
                sort_keys=True,
            ) + "\n",
            encoding="utf-8",
        )
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        shown = values
    else:
        values = metrics.end_to_end(untraced, measure_setup(args), peak_rss_mb())
        units = dict(metrics.END_TO_END + metrics.UNBOUNDED)
        shown = {**values, **metrics.unbounded(untraced)}
    correct = not errors and failed == 0
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, value in shown.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
