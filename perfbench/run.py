"""procsup benchmark: one workload, one run, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 10 --trace 0

An untraced run (``--trace 0``) starts ``WORKERS`` fresh Python processes one
after another, each with BLAS pinned to one thread.  Each sets up (import,
input generation, one warm-up job) and then runs jobs in a closed loop with
a single caller for its share of ``--seconds``.  It prints the end-to-end
metrics: median set-up time, median job latency, jobs per second, peak
resident memory, and the median latency of each verb the workload runs.
Times are given at reference host speed (see ``speed.py``) and as raw wall
time.

A traced run (``--trace 1``) starts one process that runs one pass over the
input pool untraced and the same pass with spans recorded around every
procsup layer, and prints the per-layer metrics and the tracing overhead.

Every verb invocation is checked (see ``checks.py``); the run also digests
the report bytes into ``reports_sha256``, which must repeat for a seed.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record with provenance goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Fresh processes per untraced run; set-up time is the median over them.
WORKERS = 3

#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0

#: The metrics of the last output line, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "job_p50_s", "jobs_per_s", "peak_rss_mb")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    """SHA-256 over the program's source files, names included."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "procsup").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git; "unknown" outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(name: str, seed: int, seconds: float, first_job: int, trace: bool, deadline: float,
          tiny: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--first-job", str(first_job), "--trace", str(int(trace)),
        "--work-dir", str(OUT), *(["--tiny"] if tiny else []),
        "--t0",
    ]
    try:
        proc = subprocess.run(cmd + [repr(time.time())], cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker for {name} ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker for {name} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values)}


def check_digests(workload: workloads.Workload, seed: int, results: list[dict]) -> tuple[str, list[str]]:
    """``reports_sha256`` over the pool, and every reason the reports are not repeatable.

    The digest is kept per (workload definition, seed, program source), so a
    later run of the same code at the same seed must reproduce it.
    """
    by_slot: dict[int, set[str]] = {}
    for result in results:
        for job in [result["warmup"], *result["jobs"]]:
            by_slot.setdefault(job["slot"], set()).add(job["digest"])
    problems = [f"pool slot {slot} gave {len(d)} different report digests"
                for slot, d in sorted(by_slot.items()) if len(d) > 1]
    slots = sorted(by_slot)
    if slots != list(range(workloads.POOL)):
        problems.append(f"jobs covered pool slots {slots}, not all {workloads.POOL}")
    overall = hashlib.sha256(
        "".join(f"{slot}:{sorted(by_slot[slot])[0]}\n" for slot in slots).encode()
    ).hexdigest()
    key = hashlib.sha256(f"{workload!r}|{source_digest()}".encode()).hexdigest()[:16]
    store = OUT / "digests" / f"{workload.name}-seed{seed}-{key}.txt"
    if store.exists():
        if store.read_text().strip() != overall:
            problems.append(f"reports_sha256 {overall} differs from {store.read_text().strip()} "
                            "recorded by an earlier run at this seed")
    elif not problems:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(overall + "\n")
    return overall, problems


def summarize(workload: workloads.Workload, seed: int, results: list[dict], trace: bool) -> dict:
    """Aggregate worker results into the run's metrics and verdict."""
    jobs = [job for result in results for job in result["jobs"]]
    attempted = sum(len(job["verb_s"]) for job in jobs)
    failed = sum(1 for job in jobs for verb_failures in job["failures"] if verb_failures)
    digest, digest_problems = check_digests(workload, seed, results)
    if trace:
        metrics = dict(results[0]["layers"])
    else:
        job_s = [job["seconds"] for job in jobs]
        raw_s = [job["raw_seconds"] for job in jobs]
        metrics = {
            "setup_s": {**_median([r["setup_s"] for r in results]), "unit": "s"},
            "job_p50_s": {**_median(job_s), "unit": "s"},
            "jobs_per_s": {"value": len(job_s) / sum(job_s), "unit": "1/s", "n": len(job_s)},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
            "error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted},
            "raw_setup_s": {**_median([r["raw_setup_s"] for r in results]), "unit": "s"},
            "raw_job_p50_s": {**_median(raw_s), "unit": "s"},
            "raw_jobs_per_s": {"value": len(raw_s) / sum(raw_s), "unit": "1/s", "n": len(raw_s)},
        }
        for i, verb in enumerate(workload.verbs):
            times = [job["verb_s"][i] for job in jobs]
            metrics[verb[0].replace("-", "_") + "_s"] = {**_median(times), "unit": "s"}
    checked = jobs + [result["warmup"] for result in results]
    problems = [p for job in checked for verb_failures in job["failures"] for p in verb_failures]
    problems += digest_problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reports_sha256": digest,
        "problems": problems,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: spawn the workers, summarize, attach provenance."""
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.get(name, tiny=tiny)
    results = []
    if trace:
        results.append(spawn(name, seed, seconds, 0, True, deadline, tiny))
    else:
        first_job = 0
        for _ in range(WORKERS):
            results.append(spawn(name, seed, seconds / WORKERS, first_job, False, deadline, tiny))
            first_job += len(results[-1]["jobs"])
    record = summarize(workload, seed, results, trace)
    record["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **results[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": results[0]["blas_threads"],
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": len(results),
        "sizes": "tiny" if tiny else "full",
        "why": workloads.WHY,
    }
    if trace:
        record["trace"] = {k: results[0][k] for k in ("untraced_s", "traced_s", "spans", "missing_spans")}
    record["jobs"] = [{k: v for k, v in job.items() if k != "failures"}
                      for result in results for job in result["jobs"]]
    return record


def _line(name: str, metric: dict) -> str:
    count = f" (n={metric['n']})" if "n" in metric else ""
    return f"{name} = {metric['value']!r} {metric['unit']}{count}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "procsup" / "cli.py").is_file():
        print(f"error: no procsup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    prov = record["provenance"]
    blas = ", ".join(f"{k}={v}" for k, v in prov["blas_threads"].items())
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"git {prov['git_sha']}, source sha256 {prov['source_sha256'][:16]}, python "
          f"{prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, nproc {prov['nproc']}")
    print(f"blas pin: {blas}")
    for name, metric in record["metrics"].items():
        print(_line(name, metric))
    print(f"reports_sha256 = {record['reports_sha256']}")
    print(f"record: {path.relative_to(ROOT)}")
    names = END_TO_END if not args.trace else tuple(record["metrics"])
    final = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
