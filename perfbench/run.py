"""graphsand benchmark: seeded scenario files through the public CLI.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One closed-loop client: this process runs the workload's job mix back to
back, in-process and single-threaded, until `--seconds` have passed (whole
mixes only).  Each job is timed; its output checks are not.  `--trace 0`
reports the end-to-end metrics, with every time scaled to a fixed reference
speed by the kernel of calibrate.py, timed between jobs; `--trace 1`
reports the per-layer metrics of a run that alternates untraced and traced
mixes.  The last stdout line is the result as one JSON object; a fuller
record, with metadata and every job's time, goes to perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the numbers then measure the
# program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"
SETUP_PROBES = 9
TAIL_BEYOND = 10     # samples beyond the tail percentile, at least
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402  (after the BLAS pin: imports numpy)
import workloads  # noqa: E402


def set_up(workload: str, seed: int, workdir: Path):
    """Import the library, write the job files, run one warm-up job."""
    import jobs
    mix = workloads.generate(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = [job.write(workdir) for job in mix]
    warm = workloads.warmup(workload)
    sample = jobs.run_job(warm, warm.write(workdir), workdir)
    if not sample.ok:
        raise RuntimeError(f"warm-up job failed: {sample.reason}")
    return mix, paths


def setup_probe(workload: str, seed: int) -> int:
    """Child process of `measure_setup`: set up, say so, clean up."""
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        set_up(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Seconds from process start until the first job could run, measured
    on fresh interpreters: imports, scenario generation and the warm-up.

    Returns the probe times and the reference-kernel times taken before
    the first probe and after each one.
    """
    times, speed = [], [calibrate.measure()]
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
        speed.append(calibrate.measure())
    return times, speed


def run_cycles(mix, paths, workdir, seconds, tracer=None, min_samples=0,
               speed=None):
    """Run whole job mixes until `seconds` have passed and at least
    `min_samples` untraced jobs have run.

    With a tracer, odd mixes run traced and even ones untraced, and at least
    one of each runs.  With a list `speed`, the reference kernel of
    `calibrate` is timed before the first job and after every job, and the
    times are appended to it.  Returns (untraced samples, traced samples,
    mixes).
    """
    import jobs
    plain, traced = [], []
    start = time.perf_counter()
    cycles = 0
    if speed is not None:
        speed.append(calibrate.measure())
    while True:
        use = tracer if tracer is not None and cycles % 2 else None
        out = traced if use is not None else plain
        for job, path in zip(mix, paths):
            out.append(jobs.run_job(job, path, workdir, use))
            if speed is not None:
                speed.append(calibrate.measure())
        cycles += 1
        done = (time.perf_counter() - start >= seconds
                and len(plain) >= min_samples)
        if done and (tracer is None or cycles >= 2):
            return plain, traced, cycles


def tail_samples(q: int) -> int:
    """Samples a run needs for TAIL_BEYOND of them to lie beyond the q-th
    percentile."""
    return -(-100 * TAIL_BEYOND // (100 - q))


def tail(times, q):
    """(q-th percentile, samples beyond it), nearest rank.

    The percentile is fixed rather than taken from the sample count, so it
    stays on the same jobs of the mix however many mixes a run gets through.
    """
    n = len(times)
    rank = -(-q * n // 100)
    return sorted(times)[rank - 1], n - rank


def job_figures(times, q):
    """(job_s_p50, job_s_tail, jobs_per_s, samples beyond the tail)."""
    tail_s, beyond = tail(times, q)
    return statistics.median(times), tail_s, len(times) / sum(times), beyond


def end_to_end(samples, speed, setup, q):
    """End-to-end metrics from the job samples of one run.

    Every time is scaled to the reference speed of `calibrate`: sample i by
    the mean of speed[i] and speed[i + 1], the kernel times just before and
    after it; set-up probes likewise, from `setup` = (times, speed).  The
    wall figures go into the detail.  `jobs_per_s` counts successful jobs.
    """
    def scaled(times, kernel):
        return [t * calibrate.REFERENCE_S / ((a + b) / 2.0)
                for t, a, b in zip(times, kernel, kernel[1:])]

    ok = sum(s.ok for s in samples) / len(samples)
    wall_times = [s.seconds for s in samples]
    p50, tail_s, per_s, beyond = job_figures(scaled(wall_times, speed), q)
    wall_p50, wall_tail, wall_per_s, _ = job_figures(wall_times, q)
    setup_times, setup_speed = setup
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_s_p50": {"value": p50, "unit": "s"},
        "job_s_tail": {"value": tail_s, "unit": "s"},
        "jobs_per_s": {"value": per_s * ok, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(scaled(setup_times, setup_speed)),
                    "unit": "s"},
    }
    detail = {"tail_percentile": q, "tail_beyond": beyond,
              "samples": len(samples),
              "wall": {"job_s_p50": wall_p50, "job_s_tail": wall_tail,
                       "jobs_per_s": wall_per_s * ok,
                       "setup_s": statistics.median(setup_times)},
              "kernel_s": speed, "setup_samples_s": setup_times,
              "setup_kernel_s": setup_speed}
    return metrics, detail


def per_layer(tracer, plain, traced):
    import spans
    metrics = spans.layer_metrics(
        tracer, statistics.fmean(s.csv_bytes for s in traced))
    overhead = (statistics.median(s.seconds for s in traced)
                / statistics.median(s.seconds for s in plain))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


# ------------------------------------------------------------- metadata

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def metadata(args, mix, cycles) -> dict:
    import numpy as np
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "graphsand").glob("*.py")))
    return {
        "git_sha": _git_sha(), "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_graphsand_lines": src_lines,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_mix": len(mix), "mixes_run": cycles,
        "job_names": [job.name for job in mix],
    }


# ------------------------------------------------------------------ runs

def run_workload(args) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        mix, paths = set_up(args.workload, args.seed, workdir)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            with spans.installed(tracer):
                plain, traced, cycles = run_cycles(mix, paths, workdir,
                                                   args.seconds, tracer)
            metrics = per_layer(tracer, plain, traced)
            detail = {"unpatched": tracer.missing}
            samples = plain + traced
        else:
            q, speed = workloads.TAIL_Q[args.workload], []
            samples, _, cycles = run_cycles(mix, paths, workdir, args.seconds,
                                            min_samples=tail_samples(q),
                                            speed=speed)
            metrics, detail = end_to_end(
                samples, speed, measure_setup(args.workload, args.seed), q)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [s for s in samples if not s.ok]
    result = {"correct": not failed, "attempted": len(samples),
              "failed": len(failed), "metrics": metrics}
    record = {"meta": metadata(args, mix, cycles), "result": result,
              "detail": detail,
              "failures": [{"job": s.job, "reason": s.reason} for s in failed],
              "jobs": [[s.job, s.seconds, s.ok] for s in samples]}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _report(args.workload, result, detail, record["failures"], out)
    return result


def _report(workload, result, detail, failures, out):
    n, failed = result["attempted"], result["failed"]
    print(f"[{workload}] {n} jobs, {failed} failed, fail_ratio {failed / n:g}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "job_s_tail":
            note = (f"  (p{detail['tail_percentile']}, "
                    f"{detail['tail_beyond']} of {detail['samples']} beyond)")
        if name in detail.get("wall", {}):
            note += f"  [wall {detail['wall'][name]:.6g}]"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    for f in failures[:5]:
        print(f"  FAILED {f['job']}: {f['reason']}")
    print(f"  record: {out.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"[{workload}] exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "graphsand" / "__init__.py").is_file():
        print(f"error: no graphsand sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
