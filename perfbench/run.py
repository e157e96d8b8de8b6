"""Benchmark of the gainchrom CLI, run the way a user runs it.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 30 --trace 0

Every job is a fresh ``python -m gainchrom.cli ...`` process with
``PYTHONPATH=src``.  Jobs run one after another: a closed loop with a
single client and no concurrency.  A pass runs the workload's job list
once; passes repeat while the next one would end less than half a pass
after ``--seconds``, so a run lasts ``--seconds`` on average.
Every job's output is checked (see workloads.py).

Times are in reference seconds.  A probe runs a fixed calibration task
(CALIBRATION, pure Python) and one cold start; a pass runs one before its
first job and one after every PROBE_EVERY_S of job time, and one more
ends the run.  Every time of the run is scaled by REFERENCE_S over the
mean calibration time of the run.  The shared machine this was built on
changes speed by up to half for minutes at a time, and the calibration
slows down with it; the raw seconds are printed on ``#`` lines.

--trace 0 reports the end-to-end metrics:

    setup_s      median cold start, fresh interpreter to ``import gainchrom.cli``
                 done; one per probe
    wall_s       median over passes of the time of one pass over the job list
    job_p50_s    median over the jobs of each job's median time over passes
    job_p90_s    90th percentile of the same
    peak_rss_mb  largest max-RSS of any job process (children's rusage)

--trace 1 alternates untraced passes with traced ones, where each job runs
in a fresh interpreter under tracer.py, and reports the per-layer metrics
(medians over traced passes, raw seconds) plus ``trace.overhead_frac``,
the traced pass time over the untraced one, minus 1, and
``<module>.import_s`` from ``python -X importtime``.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

JOB_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # stop starting jobs after this; the run must end within 180 s
PROBE_EVERY_S = 2.0  # run a calibration and a cold start after this much job time
IMPORT_SAMPLES = 5
# A fixed task that never imports gainchrom: the plain subset expansion of
# reference.py on one fixed 13-edge graph, in a fresh interpreter.
CALIBRATION = (
    "import random, gen, reference; "
    "g = gen.gain_graph(random.Random('calibration'), random.Random('calibration'), 6, 13); "
    "reference.naive_total(g['n'], g['edges'])"
)
REFERENCE_S = 0.15  # a reference second is the time in which CALIBRATION takes 0.15 s


class Runner:
    """Runs jobs as child processes and keeps every outcome."""

    def __init__(self, hard_deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.outcomes: dict[str, int] = {"ok": 0, "known": 0, "wrong": 0, "timeout": 0}
        self.wrong: list[str] = []

    def spawn(self, argv: list[str], cwd: Path = ROOT) -> tuple[float, int, str, bool]:
        """(wall seconds, exit code, stdout, timed out) of one child process."""
        timeout = min(JOB_TIMEOUT_S, max(1.0, self.hard_deadline - time.monotonic()))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=cwd, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return time.monotonic() - start, -1, "", True
        return time.monotonic() - start, proc.returncode, proc.stdout.decode("utf-8", "replace"), False

    def run_job(self, job, argv: list[str]) -> float:
        self.attempted += 1
        wall, code, stdout, timed_out = self.spawn(argv)
        outcome = "timeout" if timed_out else job.check(code, stdout)
        self.outcomes[outcome] += 1
        if outcome in ("wrong", "timeout"):
            self.wrong.append(f"{job.id} {' '.join(job.argv)} -> exit {code}, {outcome}")
        return wall

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.hard_deadline

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    def calibrate(self) -> float:
        wall, code, _, timed_out = self.spawn([sys.executable, "-c", CALIBRATION], cwd=HERE)
        if code != 0 or timed_out:
            raise RuntimeError("the calibration task failed")
        return wall

    def measure_setup(self) -> float:
        """Fresh interpreter until ``import gainchrom.cli`` returns (both
        clocks are CLOCK_MONOTONIC, so they compare across processes)."""
        code = "import time, gainchrom.cli; print(repr(time.monotonic()))"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=self.env, cwd=ROOT, capture_output=True, text=True, check=True
        )
        return float(proc.stdout) - start

    def import_times(self) -> dict[str, float]:
        """Self import time of each gainchrom module, median of samples."""
        samples: dict[str, list[float]] = {}
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import gainchrom.cli"],
                env=self.env, cwd=ROOT, capture_output=True, text=True, check=True,
            )
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
                if len(parts) == 3 and parts[2].startswith("gainchrom") and parts[0].isdigit():
                    samples.setdefault(parts[2], []).append(int(parts[0]) / 1e6)
        return {name: statistics.median(values) for name, values in samples.items()}


def cli_argv(job) -> list[str]:
    return [sys.executable, "-m", "gainchrom.cli", *job.argv]


def run_pass(runner: Runner, jobs) -> list[float] | None:
    """Job times of one untraced pass; None if the hard deadline cut it short."""
    walls = []
    for job in jobs:
        if runner.out_of_time():
            return None
        walls.append(runner.run_job(job, cli_argv(job)))
    return walls


def _quartiles(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return " ".join(f"{v:.4f}" for v in q)


def untraced(runner: Runner, jobs, seconds: float) -> dict[str, float]:
    calibration: list[float] = []
    setup: list[float] = []
    passes: list[float] = []
    job_runs: dict[str, list[float]] = {job.id: [] for job in jobs}
    durations: list[float] = []

    def probe() -> None:
        calibration.append(runner.calibrate())
        setup.append(runner.measure_setup())

    start = time.monotonic()
    while not runner.out_of_time():
        pass_start = time.monotonic()
        probe()
        walls: list[float] = []
        since_probe = 0.0
        for job in jobs:
            if runner.out_of_time():
                break
            walls.append(runner.run_job(job, cli_argv(job)))
            since_probe += walls[-1]
            if since_probe >= PROBE_EVERY_S:
                probe()
                since_probe = 0.0
        if len(walls) < len(jobs):
            break
        passes.append(sum(walls))
        for job, wall in zip(jobs, walls):
            job_runs[job.id].append(wall)
        durations.append(time.monotonic() - pass_start)
        # another pass only if it would end less than half a pass late
        if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
            break
    if not passes:
        raise RuntimeError("no pass completed before the hard deadline")
    probe()
    scale = REFERENCE_S * len(calibration) / sum(calibration)
    # Quantiles over the jobs, not over pooled runs: a pooled quantile sits
    # in the gap between two jobs of different cost and jumps across it as
    # the number of passes changes.
    per_job = [statistics.median(runs) for runs in job_runs.values()]
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    print(f"# {len(passes)} passes of {len(jobs)} jobs; {len(setup)} probes")
    print(f"# raw seconds: pass quartiles {_quartiles(passes)}; median setup {statistics.median(setup):.4f}; "
          f"calibration quartiles {_quartiles(calibration)}")
    print(f"# speed: {scale:.4f} reference seconds per raw second")
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(passes) * scale,
        "job_p50_s": statistics.median(per_job) * scale,
        "job_p90_s": deciles[8] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def traced(runner: Runner, jobs, seconds: float, workdir: Path) -> dict[str, float]:
    import tracer

    spans_path = workdir / "spans.bin"
    plain_passes: list[float] = []
    traced_passes: list[float] = []
    layer_runs: list[dict[str, float]] = []
    start = time.monotonic()
    while not runner.out_of_time():
        plain = run_pass(runner, jobs)
        if plain is None:
            break
        docs: list[dict] = []
        walls: list[float] = []
        for job in jobs:
            if runner.out_of_time():
                break
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), job.id, "--", *job.argv]
            walls.append(runner.run_job(job, argv))
            docs.append(tracer.load(str(spans_path)))
        else:
            traced_passes.append(sum(walls))
            plain_passes.append(sum(plain))
            layer_runs.append(tracer.summarize(docs, walls))
        if not traced_passes:
            break
        pair = statistics.median(plain_passes) + statistics.median(traced_passes)
        if time.monotonic() - start + pair > seconds:
            break
    if not layer_runs:
        raise RuntimeError("no traced pass completed before the hard deadline")
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced_passes) / statistics.median(plain_passes) - 1
    for module, import_s in runner.import_times().items():
        metrics[f"{module.removeprefix('gainchrom.')}.import_s"] = import_s
    print(f"# {len(traced_passes)} traced passes of {len(jobs)} jobs, paired with untraced passes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gainchrom CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gainchrom" / "cli.py").is_file():
        print(f"error: no gainchrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(hard_deadline)
        runner.measure_setup()  # compiles the .pyc files, as a user's first run does
        runner.calibrate()
        if args.trace:
            metrics = traced(runner, jobs, args.seconds, workdir)
        else:
            metrics = untraced(runner, jobs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.wrong:
        print(f"# WRONG {line}")
    print(f"# fail_frac {runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted}; "
          f"{runner.outcomes['known']} from the known defects of verify --graph)")
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    for name, entry in result["metrics"].items():
        print(f"# {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
