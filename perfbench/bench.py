"""One benchmark run: execute a workload, check it, and assemble the result.

`execute` is what `run.py` calls and what the benchmark's tests call with
tiny sizes.  The result is the run's last stdout line; the fuller
record (manifest, sample counts, the per-workload diagnostics, the loss
trajectory, errors, reference counts) goes to a results file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
from pathlib import Path

import numpy as np
import scipy

from .layers import metric_names, per_layer
from .workloads import FULL, WORKLOADS, Run, Size

END_TO_END = ("setup_s", "ok_ratio", "peak_rss_mb", "op_ms.p50")
REFERENCE_COUNTS = Path(__file__).with_name("reference_counts.json")
MAX_ERRORS = 20


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "closed_loop_clients": 1,
    }


def _metrics_doc(metrics: dict) -> dict:
    return {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in metrics.items()}


def execute(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            out_dir: Path, size: Size = FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record).  Writes the
    record, and in a traced run the spans, under `out_dir/results`."""
    results = Path(out_dir) / "results"
    work = Path(out_dir) / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, trace, size, work)
    try:
        diagnostics = WORKLOADS[workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run.attempted(), run.failed()
    diagnostics["fail_ratio"] = (failed / attempted, "ratio", attempted)
    record = {"manifest": manifest(root, workload, seed, seconds, trace),
              "diagnostics": _metrics_doc(diagnostics)}
    if trace:
        metrics = per_layer(run.tracer)
        traced, untraced = run.cycle_ms(True), run.cycle_ms(False)
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else 0.0)
        metrics["trace.overhead_ms"] = (overhead, "ms", min(len(traced), len(untraced)))
        expected = json.loads(REFERENCE_COUNTS.read_text(encoding="utf-8"))[workload]
        record["reference_counts"] = {name: {"reference": ref, "measured": metrics[name][0]}
                                      for name, ref in expected.items()}
    else:
        metrics = run.end_to_end()
    record["metrics"] = _metrics_doc(metrics)
    record["cycles"] = [{"traced": t, "ms": ms, "ok": ok} for t, ms, ok in run.cycles]
    record["errors"] = [{"kind": r.kind, "raised": r.errors, "wrong": r.wrong}
                        for r in run.records if not r.ok][:MAX_ERRORS]
    record.update(run.details)

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        run.tracer.dump(results / f"{stem}.spans.json.gz")
    result = {"correct": run.correct(), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}}
    return result, record


def expected_metric_names(trace: bool) -> list[str]:
    return metric_names() + ["trace.overhead_ms"] if trace else list(END_TO_END)
