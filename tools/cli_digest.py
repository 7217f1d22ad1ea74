"""One sha256 over the CLI outputs of every benchmark job, to check that a
change keeps them byte for byte.

    python tools/cli_digest.py --seeds 1,7,99

For each seed, every job of the four mixes in perfbench/workloads.py runs
in this process through `graphsand.cli.run_command`, with the library of
this checkout (`src/`).  The digest covers, per job and in order, its name,
exit code, stdout and stderr (the temporary directory masked) and the bytes
of its trajectory CSV and mass CSV, where the job writes them.  The first
line it prints is that digest over every job; one line per workload
follows, the same digest over that workload's jobs alone, so a mismatch
names the mix to bisect.  Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from graphsand.cli import run_command  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def _run(job, directory: Path) -> list[bytes]:
    """The job's exit code, stdout, stderr, CSV and mass CSV, as bytes."""
    scenario = job.write(directory)
    out = directory / f"{job.name}.csv"
    argv = [job.command, str(scenario), *job.args]
    if job.command != "transport-check":
        argv += ["--output", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run_command(argv)
    files = [p.read_bytes() if p.exists() else b""
             for p in (out, out.with_suffix(".mass.csv"))]
    return [str(code).encode(), stdout.getvalue().encode(),
            stderr.getvalue().encode(), *files]


def digest(seeds) -> dict[str, tuple[str, int]]:
    """(sha256 hex digest, job count) over the mixes at each seed: under
    "all" for every job, and under each workload's name for its own."""
    shas = {key: [hashlib.sha256(), 0] for key in ("all", *WORKLOADS)}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in WORKLOADS:
                directory = Path(tmp) / str(seed) / workload
                directory.mkdir(parents=True)
                for job in generate(workload, seed):
                    parts = [part.replace(tmp.encode(), b"<tmp>")
                             for part in [job.name.encode()] + _run(job, directory)]
                    for key in ("all", workload):
                        for part in parts:
                            shas[key][0].update(len(part).to_bytes(8, "little") + part)
                        shas[key][1] += 1
    return {key: (sha.hexdigest(), count) for key, (sha, count) in shas.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,7,99",
                        help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    try:
        seeds = [int(tok) for tok in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds: not an integer list: {args.seeds!r}")
    digests = digest(seeds)
    hexdigest, count = digests.pop("all")
    print(f"{hexdigest}  {count} jobs, seeds {','.join(map(str, seeds))}")
    for workload, (hexdigest, count) in digests.items():
        print(f"{hexdigest}  {count} jobs, {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
