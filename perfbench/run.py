"""Benchmark for fracnls: three CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, end to end and traced
    python3 perfbench/run.py --workload ldp-triangle --seed 3 --seconds 30 --trace 0

One client runs one sample at a time (a closed loop).  A sample is a fresh
interpreter (``child.py``) that imports ``fracnls.cli`` from ``src/``,
validates the workload's configs with ``parse_config`` and calls ``run`` on
each, as a CLI user would.  Samples repeat while the next one would end no
later than half a sample past ``--seconds``; each metric is the median over
the samples.  The parent checks every sample's artifacts and counts a sample
whose check fails, or whose artifacts differ from the first sample's, as
failed.

``wall_s`` and ``setup_s`` are put at the reference host speed with the
host-speed probes of ``pace.py``, which run all through each untraced sample;
the times as measured are printed beside them and kept in the per-sample
JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of
``spans.PER_LAYER`` plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import pace  # noqa: E402
import spans  # noqa: E402  (this directory is sys.path[0] when run as a script)
import workloads  # noqa: E402

# BLAS threads in every sample; one thread is below any machine's CPU count,
# and the workloads are single-threaded Python.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One invocation must end within 180 s; no child may run past this many
# seconds after the invocation started.
TIME_LIMIT_S = 170.0

# setup_s is the median of at least this many fresh interpreters per run;
# workloads whose samples are too long to give as many add set-up-only ones.
MIN_SETUPS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bytes_written", "bytes"),
)


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    blas = getattr(numpy, "__config__").CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
    }


class Runner:
    """Runs samples of one workload in a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.pairs = workloads.configs(workload, seed)
        self.deadline = deadline
        self.work = WORK / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)

    def _child(self, runs: list, trace: bool, run: bool = True) -> tuple[dict, float]:
        spec, result = self.work / "spec.json", self.work / "result.json"
        spec.write_text(json.dumps({"src": str(SRC), "runs": runs, "trace": trace, "run": run}))
        if result.exists():
            result.unlink()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the sample could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: sample did not finish in {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{self.workload}: sample exited with status {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(result.read_text()), spawned

    def _runs(self) -> list:
        return [{"config": cfg, "out": str(self.work / "out" / label)} for label, cfg in self.pairs]

    def setup_only(self) -> tuple[float, float]:
        """Seconds from process start to the configs validated, without
        running them: at the reference host speed, and as measured."""
        res, spawned = self._child(self._runs(), trace=False, run=False)
        return _setup_times(res, spawned)

    def sample(self, trace: bool) -> dict:
        out_root = self.work / "out"
        if out_root.exists():
            shutil.rmtree(out_root)
        res, spawned = self._child(self._runs(), trace)
        problems = res["errors"] + workloads.check(self.workload, out_root, self.pairs)
        files, nbytes, sha = workloads.artifact_digest(out_root)
        shutil.rmtree(out_root)
        if trace:
            raw_wall = wall = res["elapsed_s"]
            setup = raw_setup = None
        else:
            raw_wall = res["elapsed_s"] - pace.probe_time(res["run_probes"])
            wall = pace.at_reference_speed(res["elapsed_s"], res["run_probes"])
            setup, raw_setup = _setup_times(res, spawned)
        return {
            "trace": trace,
            "wall_s": wall,
            "raw_wall_s": raw_wall,
            "setup_s": setup,
            "raw_setup_s": raw_setup,
            "peak_rss_mb": res["peak_rss_mb"],
            "bytes_written": nbytes,
            "files": files,
            "sha256": sha,
            "problems": problems,
            "layers": res.get("layers"),
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _setup_times(res: dict, spawned: float) -> tuple[float, float]:
    elapsed = res["setup_done"] - spawned
    probes = res["setup_probes"]
    return pace.at_reference_speed(elapsed, probes), elapsed - pace.probe_time(probes)


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Samples of ``workload`` for about ``seconds``, and set-up times.

    A round is one sample, or with ``trace`` one untraced and one traced
    sample.  Another round starts while it would end no later than half a
    round past ``seconds``, so a run holds the whole number of rounds
    nearest to ``seconds``.
    """
    runner = Runner(workload, seed, deadline)
    try:
        runner.setup_only()  # untimed: compiles bytecode and fills the file cache
        samples, rounds = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            samples.append(runner.sample(trace=False))
            if trace:
                samples.append(runner.sample(trace=True))
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + 0.5 * statistics.median(rounds) > seconds:
                break
        setups = [(s["setup_s"], s["raw_setup_s"]) for s in samples if not s["trace"]]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(runner.setup_only())
    finally:
        runner.close()
    _cross_check(samples)
    return samples, setups


def _cross_check(samples: list[dict]) -> None:
    """Identical inputs must give identical artifacts and identical counts."""
    first = samples[0]
    for s in samples[1:]:
        if s["sha256"] != first["sha256"]:
            s["problems"].append("artifacts differ from the first sample's")
    traced = [s for s in samples if s["trace"]]
    for s in traced[1:]:
        for name in spans.EXACT:
            if s["layers"][name] != traced[0]["layers"][name]:
                s["problems"].append(f"{name} differs between traced samples")


def metrics(samples: list[dict], setups: list[tuple[float, float]], trace: bool) -> dict:
    plain = [s for s in samples if not s["trace"]]
    if not trace:
        out = {
            name: {"value": statistics.median(s[name] for s in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        out["setup_s"]["value"] = statistics.median(norm for norm, _ in setups)
        return out
    traced = [s for s in samples if s["trace"]]
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "trace.wall_s":
            value = statistics.median(s["raw_wall_s"] for s in traced)
        elif name == "trace.overhead_s":
            value = out["trace.wall_s"]["value"] - statistics.median(s["raw_wall_s"] for s in plain)
        elif name in spans.EXACT:
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(s["layers"][name] for s in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def print_table(workload: str, samples: list[dict], setups: list, values: dict) -> None:
    n = sum(not s["trace"] for s in samples)
    n_traced = len(samples) - n
    failed = sum(bool(s["problems"]) for s in samples)
    counted = f"{n} samples" + (f" + {n_traced} traced" if n_traced else "")
    print(f"== {workload}: {counted}, closed loop, one client")
    for name, m in values.items():
        if name in spans.EXACT:
            how = "exact, equal in every traced sample"
        elif name == "setup_s":
            how = f"median of {max(n, MIN_SETUPS)} interpreter starts"
        else:
            how = f"median of {n_traced or n} samples"
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<6} {how}")
    if "wall_s" in values:
        raw = {
            "wall_s": statistics.median(s["raw_wall_s"] for s in samples if not s["trace"]),
            "setup_s": statistics.median(r for _, r in setups),
        }
        for name, value in raw.items():
            print(f"  {'(as measured) ' + name:<36} {value:>16.6g} {'s':<6} "
                  "median, not put at the reference host speed")
    print(f"  {'failed_runs':<36} {failed:>16d} of {len(samples)} attempted")
    for s in samples:
        for p in s["problems"]:
            print(f"  FAILED ({'traced' if s['trace'] else 'plain'}): {p}")


def detail(workload: str, env: dict, samples: list[dict]) -> dict:
    keep = ("trace", "wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "peak_rss_mb",
            "bytes_written", "files", "sha256", "problems")
    return {
        "workload": workload,
        "environment": env,
        "samples": [{k: s[k] for k in keep} for s in samples],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (SRC / "fracnls" / "cli.py").is_file():
        print(f"no fracnls sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace == "both" else (args.trace == "1",)
    single = len(names) * len(modes) == 1
    env = environment(args.seed)

    attempted = failed = 0
    combined = {}
    try:
        for trace in modes:
            for workload in names:
                deadline = (began if single else time.monotonic()) + TIME_LIMIT_S
                samples, setups = measure(workload, args.seed, args.seconds, trace, deadline)
                values = metrics(samples, setups, trace)
                print_table(workload, samples, setups, values)
                print(json.dumps(detail(workload, env, samples)), flush=True)
                attempted += len(samples)
                failed += sum(bool(s["problems"]) for s in samples)
                for name, m in values.items():
                    combined[name if single else f"{workload}.{name}"] = m
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
