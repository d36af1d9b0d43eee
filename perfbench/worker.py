"""One fresh benchmark process: set up, then run jobs untraced or traced.

Set-up is everything a user pays before the first measured job: starting
Python, importing procsup, generating and saving the input pool, and one
untimed warm-up job.  A measuring worker then runs jobs in a closed loop
(one caller, next job after the previous one ends) for its time slice.  A
tracing worker runs one pass over the input pool untraced and the same pass
traced, and derives the per-layer metrics from the traced pass.

The worker prints one JSON object on its last stdout line; ``run.py``
starts it and aggregates.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so two cores measure the program
# and not the scheduler.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from procsup import cli, core  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def make_pool(workload: workloads.Workload, seed: int, directory: Path) -> list[dict[str, str]]:
    """Generate and save every input set; one ``{role: path}`` map per pool slot."""
    pool = []
    for slot in range(workloads.POOL):
        paths = {}
        for spec in workload.sets:
            ts = core.generate_set(
                "random_sphere", spec.dim, spec.count,
                workloads.set_seed(workload.name, seed, slot, spec.role),
            )
            paths[spec.role] = str(directory / f"{slot}-{spec.role}.json")
            core.save_set(ts, paths[spec.role])
        pool.append(paths)
    return pool


def run_job(workload, paths, directory: Path, index: int, tracer=None) -> dict:
    """Run one job's verbs, stamp their start and end, then check every report (untimed)."""
    outs = [directory / f"report-{i}.json" for i in range(len(workload.verbs))]
    for out in outs:
        out.unlink(missing_ok=True)
    argvs = [[arg.format(**paths) for arg in verb] + ["--out", str(out)]
             for verb, out in zip(workload.verbs, outs)]
    codes, stamps = [], []
    for argv in argvs:
        start = perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            codes.append(cli.run(argv))
        finally:
            if tracer is not None:
                tracer.active = False
        stamps.append((start, perf_counter()))
    digest = hashlib.sha256()
    failures = []
    for verb, code, out in zip(workload.verbs, codes, outs):
        text = out.read_bytes() if out.exists() else b""
        digest.update(len(text).to_bytes(8, "little") + text)
        failures.append(checks.check_report(verb, code, text))
    return {
        "index": index,
        "slot": index % workloads.POOL,
        "stamps": stamps,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def add_timings(job: dict, probe: speed.SpeedProbe | None) -> dict:
    """Raw and reference-speed seconds of the job and of each verb."""
    stamps = job.pop("stamps")
    job["raw_seconds"] = stamps[-1][1] - stamps[0][0]
    job["raw_verb_s"] = [end - start for start, end in stamps]
    if probe is None:
        job["seconds"], job["verb_s"] = job["raw_seconds"], job["raw_verb_s"]
    else:
        job["seconds"] = probe.normalise(stamps[0][0], stamps[-1][1])
        job["verb_s"] = [probe.normalise(start, end) for start, end in stamps]
    return job


def run_worker(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    first_job: int,
    trace: bool,
    t0: float,
    work_root: Path,
    probe: speed.SpeedProbe | None = None,
) -> dict:
    """Set up, then measure (``trace=False``) or trace one pass over the pool.

    With a started ``probe``, times are also given at reference speed (see
    ``speed.py``); traced runs take none, so spans hold no probe time.
    """
    work_root.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="worker-", dir=work_root))
    try:
        pool = make_pool(workload, seed, directory)
        warmup = run_job(workload, pool[0], directory, 0)
        setup_end, setup_raw = perf_counter(), time.time() - t0
        result = {"raw_setup_s": setup_raw, "setup_s": setup_raw}
        if probe is not None and probe.ticks:
            first = probe.ticks[0]
            own = sum(probe.spent)
            result["setup_s"] = (setup_raw - own) / probe.slowdown(first, setup_end)
        result["warmup"] = add_timings(warmup, probe)
        if trace:
            result.update(_trace_pass(workload, pool, directory, work_root))
        else:
            jobs = []
            loop_start = perf_counter()
            while not jobs or perf_counter() - loop_start < seconds:
                index = first_job + len(jobs)
                jobs.append(run_job(workload, pool[index % workloads.POOL], directory, index))
            if probe is not None:
                probe.stop()
            result["jobs"] = [add_timings(job, probe) for job in jobs]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    result["blas_threads"] = {var: os.environ.get(var) for var in BLAS_VARS}
    if probe is not None:
        result["probe_ticks"] = len(probe.ticks)
    return result


def _trace_pass(workload, pool, directory: Path, work_root: Path) -> dict:
    """The same jobs untraced then traced; per-layer metrics from the traced pass."""
    start = perf_counter()
    slots = range(workloads.POOL)
    plain = [run_job(workload, pool[slot], directory, slot) for slot in slots]
    plain_s = perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        traced = [run_job(workload, pool[slot], directory, slot, tracer) for slot in slots]
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer)
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    spans_dir = work_root / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_dir / f"{workload.name}.npz")
    return {
        "jobs": [add_timings(job, None) for job in plain + traced],
        "layers": {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()},
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "missing_spans": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time slice")
    parser.add_argument("--first-job", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="epoch time the process was started")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    probe = None
    if not args.trace:
        probe = speed.SpeedProbe()
        probe.start()
    result = run_worker(
        workloads.get(args.workload, tiny=args.tiny),
        args.seed,
        args.seconds,
        args.first_job,
        bool(args.trace),
        args.t0,
        Path(args.work_dir),
        probe,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
