#!/usr/bin/env python3
"""Benchmark of the classprod command line, one child process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S [--trace 0|1]

NAME is one of scan-catalog, check-es3sq, ingest-cayley, classes-3375
(workloads.py; NOTES.md says why each). Inputs are generated from the seed
before timing starts. Every child is started through launch.py, and the
whole run is pinned to one CPU.

--trace 0 repeats the untraced CLI for about S seconds (a child starts only
if it should end less than half its length past S) and reports the
end-to-end metrics:
  wall_s       spawn to exit of the CLI child
  setup_s      spawn until `import classprod.cli` is done, from every CLI
               child and from about SETUP_PROBES start-up-only children
  peak_rss_mb  ru_maxrss of the CLI child, from os.wait4, in MiB
Each is the median over the run. The two times are reported at the
reference host speed. While a child runs, a thread of this process, pinned
to the same CPU, times a 5 ms slice of reference_work() every 0.1 s; a CLI
child's wall time is scaled by REFERENCE_S / (mean slice time while it
ran), start-up times by REFERENCE_S / (mean slice time of the run). The
speed of the shared host changes by up to a half from one second to the
next and drifts over minutes (NOTES.md); the scaling removes most of both
and leaves the program's own cost. The unscaled medians are in the record.

--trace 1 alternates an untraced and a traced child (tracer.py) for about
S seconds, at least one pair, and reports the per-layer metrics, each the
median over the traced children (unscaled), with trace.overhead_s, the
median of traced minus untraced wall time, and host.slice_s.

Every CLI output is checked; a non-zero exit or a failed check counts in
"failed". The last line of stdout is the result object. The line before it
is a record of the environment and of every child, with child CPU time and
host steal ticks beside each wall time, for explaining outliers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass
from importlib import metadata
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import tracer  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT
SRC = workloads.SRC
LAUNCH = os.path.join(HERE, "launch.py")
HARD_LIMIT_S = 150.0  # per workload; a child still running then is killed
SETUP_PROBES = 8  # start-up-only children per run, spread over it
SLICE_SIZE = 100  # reference_work() size of one host-speed slice, about 5 ms
SLICE_PERIOD_S = 0.1  # one slice per period while a child runs
REFERENCE_S = 0.005  # slice time that defines the reported speed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def child_env() -> Dict[str, str]:
    """The CLI's environment: no order-cap override, fixed hash seed, no bytecode writes."""
    env = {k: v for k, v in os.environ.items() if k not in ("CLASSPROD_MAX_ORDER", "PYTHONPATH")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


CHILD_ENV = child_env()


@dataclass
class Sample:
    """One child process: timings, resources, and whether its output was right."""

    kind: str  # "cli", "traced" or "setup"
    wall_s: float
    setup_s: Optional[float]  # spawn to `import classprod.cli` done
    host_s: Optional[float]  # mean host-speed slice time while the child ran
    rss_mb: float
    cpu_s: float
    steal_ticks: Optional[int]
    returncode: int
    stdout_sha256: str
    error: Optional[str] = None


def reference_work(size: int = 500) -> int:
    """Fixed pure-Python work shaped like classprod's inner loops.

    Nested list indexing into an n x n table and big-integer bit masks, as in
    the class and centralizer loops, but none of the package's code, so its
    time tracks only how fast the host runs Python at the moment.
    """
    table = [[(a * 7 + b * 13) % size for b in range(size)] for a in range(size)]
    total = 0
    for a in range(size):
        row = table[a]
        mask = 0
        for b in range(size):
            mask |= 1 << row[table[b][a]]
        total += mask.bit_count()
    return total


class HostSampler:
    """Times reference_work(SLICE_SIZE) every SLICE_PERIOD_S while a child runs.

    This process is pinned to the child's CPU, so each slice briefly takes
    the CPU from the child and measures how fast the host runs Python at
    that moment, the moment the child's own time is spent in.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SLICE_PERIOD_S):
            t0 = perf_counter()
            reference_work(SLICE_SIZE)
            self.slices.append(perf_counter() - t0)

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Overdue(Exception):
    pass


def _alarm(signum, frame):
    raise Overdue()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through invoke(), which kills the child


def steal_ticks() -> Optional[int]:
    """Host steal time so far, in clock ticks summed over CPUs (/proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class Runner:
    """Starts children for one workload run, all of them before `deadline`.

    A child still running at the deadline is killed and its sample carries
    an error, so the run ends in time even if the program hangs.
    """

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _alarm)
        signal.signal(signal.SIGTERM, _terminate)
        self.slices: List[float] = []  # every host-speed slice of the run

    def invoke(
        self, kind: str, argv: Sequence[str], mode: Sequence[str] = ()
    ) -> Tuple[Sample, bytes]:
        """Run launch.py once and reap it with os.wait4; returns the sample and stdout."""
        out_path = os.path.join(self.workdir, f"{kind}.stdout")
        err_path = os.path.join(self.workdir, f"{kind}.stderr")
        stamp_r, stamp_w = os.pipe()
        error = None
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                steal0 = steal_ticks()
                t0 = perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, LAUNCH, str(stamp_w), *mode, "--", *argv],
                    pass_fds=(stamp_w,),
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=err,
                    env=CHILD_ENV,
                    cwd=ROOT,
                )
                os.close(stamp_w)
                stamp_w = -1
                signal.setitimer(signal.ITIMER_REAL, max(0.01, self.deadline - t0))
                with HostSampler() as sampler:
                    try:
                        _, status, usage = os.wait4(proc.pid, 0)
                    except Overdue:
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        error = "killed at the time limit"
                    except BaseException:
                        proc.kill()
                        os.wait4(proc.pid, 0)
                        raise
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    t1 = perf_counter()
                steal1 = steal_ticks()
            proc.returncode = os.waitstatus_to_exitcode(status)
            stamp = os.read(stamp_r, 64)
        finally:
            os.close(stamp_r)
            if stamp_w >= 0:
                os.close(stamp_w)
        self.slices += sampler.slices
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        sample = Sample(
            kind=kind,
            wall_s=t1 - t0,
            setup_s=float(stamp) - t0 if stamp else None,
            host_s=statistics.fmean(sampler.slices) if sampler.slices else None,
            rss_mb=usage.ru_maxrss / 1024,
            cpu_s=usage.ru_utime + usage.ru_stime,
            steal_ticks=steal1 - steal0 if steal0 is not None and steal1 is not None else None,
            returncode=proc.returncode,
            stdout_sha256=hashlib.sha256(stdout).hexdigest(),
            error=error,
        )
        return sample, stdout

    def cli(self, kind: str, prepared: workloads.Prepared, mode: Sequence[str] = ()) -> Sample:
        sample, stdout = self.invoke(kind, prepared.argv, mode)
        if sample.error is None:
            sample.error = prepared.check(sample.returncode, stdout)
        return sample

    def setup_probe(self) -> Sample:
        """A child that only starts up: the interpreter, then `import classprod.cli`."""
        sample, _ = self.invoke("setup", (), ("--setup-only",))
        if sample.error is None and (sample.returncode != 0 or sample.setup_s is None):
            sample.error = f"exit code {sample.returncode}"
        if sample.error is not None:
            raise RuntimeError(f"start-up child failed: {sample.error}")
        return sample

    def probes_due(self, samples: List[Sample], share: float) -> List[Sample]:
        """Start-up-only children until `share` of SETUP_PROBES are done."""
        done = sum(s.kind == "setup" for s in samples)
        return [self.setup_probe() for _ in range(done, math.ceil(SETUP_PROBES * share))]

    def _share(self, start: float, seconds: int, next_child_s: float) -> Optional[float]:
        """Share of the run gone, or None when the next child should not start.

        A child starts only if it would end less than half its expected
        length past `seconds`, so runs last about `seconds` on average.
        """
        now = perf_counter()
        if now - start + next_child_s / 2 > seconds or now + next_child_s > self.deadline:
            return None
        return (now - start) / seconds

    def measure(self, prepared: workloads.Prepared, seconds: int) -> List[Sample]:
        """Untraced CLI children for about `seconds`, probes spread between them."""
        samples = self.probes_due([], 1 / SETUP_PROBES)
        start = perf_counter()
        while True:
            samples.append(self.cli("cli", prepared))
            expected = statistics.median(s.wall_s for s in samples if s.kind == "cli")
            share = self._share(start, seconds, expected)
            if share is None:
                return samples
            samples += self.probes_due(samples, share)

    def measure_traced(
        self, prepared: workloads.Prepared, seconds: int
    ) -> Tuple[List[Sample], List[Dict[str, float]]]:
        """Untraced and traced children in pairs; per-layer metrics of each pair."""
        samples: List[Sample] = []
        layers: List[Dict[str, float]] = []
        trace_path = os.path.join(self.workdir, "trace.json")
        start = perf_counter()
        while True:
            plain = self.cli("cli", prepared)
            traced = self.cli("traced", prepared, ("--trace", trace_path))
            samples += (plain, traced)
            if traced.error is None and traced.stdout_sha256 != plain.stdout_sha256:
                traced.error = "traced stdout differs from untraced stdout"
            if traced.error is None and plain.error is None:
                with open(trace_path, encoding="utf-8") as fh:
                    metrics = tracer.layer_metrics(json.load(fh))
                metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
                layers.append(metrics)
            if self._share(start, seconds, plain.wall_s + traced.wall_s) is None:
                return samples, layers


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(samples: Sequence[Sample], slices: Sequence[float]) -> Dict[str, Optional[float]]:
    """Unscaled medians of the run, for the record; failed children are left out."""
    ok = [s for s in samples if s.error is None]
    cli = [s for s in ok if s.kind == "cli"]
    return {
        "wall_s": _median(s.wall_s for s in cli),
        "setup_s": _median(s.setup_s for s in ok),
        "peak_rss_mb": _median(s.rss_mb for s in cli),
        "cpu_s": _median(s.cpu_s for s in cli),
        "host_s": statistics.fmean(slices) if slices else None,
    }


def end_to_end(samples: Sequence[Sample], slices: Sequence[float]) -> Dict[str, float]:
    """The end-to-end metrics, times scaled to the reference host speed.

    Each CLI child's wall time is scaled by the slices taken while it ran;
    start-up, too short for its own slices, by the mean of the run's.
    """
    ok = [s for s in samples if s.error is None]
    cli = [s for s in ok if s.kind == "cli"]
    if not cli or not slices:
        return {}
    host = statistics.fmean(slices)
    return {
        "wall_s": statistics.median(s.wall_s * REFERENCE_S / (s.host_s or host) for s in cli),
        "setup_s": _median(s.setup_s for s in ok) * REFERENCE_S / host,
        "peak_rss_mb": statistics.median(s.rss_mb for s in cli),
    }


def per_layer(layers: Sequence[Dict[str, float]], slices: Sequence[float]) -> Dict[str, float]:
    if not layers or not slices:
        return {}
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["host.slice_s"] = statistics.fmean(slices)
    return out


def environment() -> dict:
    """What the numbers depend on besides the code: versions and the host."""
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "classprod")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                src_hash.update(fh.read())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "child_env": {k: CHILD_ENV[k] for k in ("PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE")},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    runner = Runner(workdir, deadline=perf_counter() + HARD_LIMIT_S)
    t0 = perf_counter()
    prepared = workloads.prepare(name, seed, workdir, CHILD_ENV)
    prepare_s = perf_counter() - t0
    runner.setup_probe()  # warm-up: page cache, and proof that classprod imports
    if trace:
        samples, layers = runner.measure_traced(prepared, seconds)
        metrics, units = per_layer(layers, runner.slices), dict(tracer.PER_LAYER)
    else:
        samples = runner.measure(prepared, seconds)
        metrics, units = end_to_end(samples, runner.slices), dict(END_TO_END)
    cli = [s for s in samples if s.kind in ("cli", "traced")]
    failed = [s for s in cli if s.error is not None]
    return {
        "workload": name,
        "seed": seed,
        "argv": list(prepared.argv),
        "prepare_s": prepare_s,
        "attempted": len(cli),
        "failed": len(failed),
        "errors": sorted({s.error for s in failed}),
        "unscaled": summarize(samples, runner.slices),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": [asdict(s) for s in samples],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "classprod", "cli.py")):
        print(f"run.py: no classprod sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that the host-speed
    # slices run on the CPU the child runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    results = []
    for name in names:
        workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    except OSError:
        pass  # another run is using it

    for r in results:
        print(f"{r['workload']} (seed {r['seed']}): ops {r['attempted']}, failed_ops {r['failed']}")
        for k, v in r["metrics"].items():
            print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
        for e in r["errors"]:
            print(f"  error: {e}")
    print(json.dumps({"record": {"environment": environment(), "runs": results}}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    expected = len(names) * (len(tracer.PER_LAYER) if args.trace else len(END_TO_END))
    correct = failed == 0 and attempted > 0 and len(metrics) == expected
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
