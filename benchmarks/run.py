#!/usr/bin/env python3
"""Benchmark of the ``qvqpp`` batch CLI: index -> predict -> sweep.

    python3 benchmarks/run.py --workload hop1-nqc --seed 1 --seconds 17 --trace 0

One run, from the root of a source checkout:

1. generates the workload's synthetic corpus from ``--seed`` (cached per
   workload and seed under ``.bench_work/data``; generation is never timed);
2. runs ``qvqpp index`` SETUP_REPEATS times, then ``qvqpp predict`` and
   ``qvqpp sweep`` in turn until ``--seconds`` have passed since the last
   ``index`` (so the set-up time does not change how many predict/sweep
   pairs a run measures). Every command is
   a fresh child process timed from outside, so each time includes the
   interpreter start and the artifact loading a user pays on every call.
   The load is a closed loop: one client, one command after another;
   every time is corrected for the host's speed (see below);
3. checks every output: exit code 0, no traceback, the same bytes on every
   repetition, well-formed predictions and sweep grid, and, at the seed
   named in ``goldens.json``, the SHA-256 digests recorded there;
4. with ``--trace 1``, also runs the three commands once more under
   ``traced_cli.py`` and reports per-layer metrics instead.

Speed correction. On a shared host the speed a CPU gives one process
swings by up to 1.6x, in phases that last from seconds to minutes, so raw
wall times of the same command differ by tens of percent from run to run.
The benchmark and its commands are therefore pinned to one CPU, and while a
command runs a background thread times a fixed CPU-bound burst on that CPU
every 50 ms (``SpeedProbe``; about 1% of the CPU). A reported time is the
command's wall time times PROBE_REFERENCE_S over the mean burst: the time
the command would have taken at the reference speed. The probe does not
touch ``qvqpp``, so a change to the library moves only the wall time. Raw
wall times and mean bursts are kept in the result record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(metadata, per-repetition times, digests) goes to
``.bench_work/results/``. The exit code is 0 only when every command
succeeded and every check passed.
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
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
from gen_corpus import generate  # noqa: E402

SETUP_REPEATS = 3
# Host-speed probe: a fixed CPU-bound burst run every PROBE_INTERVAL_S while a
# command runs, on the same CPU. Its mean CPU time over the command, against
# PROBE_REFERENCE_S, is the speed the host gave that CPU during the command.
PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 0.0005
_PROBE_ARRAY = np.arange(2000, dtype=np.float64)
DEFAULT_LAMBDAS = [round(i / 10, 1) for i in range(11)]
DEFAULT_KS = list(range(1, 11))

# Why each workload exists is recorded in BENCHMARK.json. hop2-nqc and
# uef-dense use the smaller R corpus so that a full comparison (4 + 22 runs
# per workload) fits in under an hour; NOTES.md has their cost at scale S.
WORKLOADS = {
    "hop1-nqc": dict(
        scale="S", targets=45,
        qpp=dict(query_retriever="bm25", use_2hop=False, base="nqc", k=5, n=100),
        ks=DEFAULT_KS,
    ),
    "hop2-nqc": dict(
        scale="R", targets=10,
        qpp=dict(query_retriever="bm25", use_2hop=True, base="nqc", k=5, n=100),
        ks=DEFAULT_KS,
    ),
    "uef-dense": dict(
        scale="R", targets=2,
        qpp=dict(query_retriever="dense", use_2hop=False, base="uef", k=5, n=100),
        ks=[1, 2, 3],
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "qvqpp").glob("*.py"))


def prepare_data(spec: dict, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the corpus; ``stats.json`` is written last and marks a complete set."""
    version = sha256(HERE / "gen_corpus.py")[:12]
    data = WORK / "data" / f"{spec['scale']}-t{spec['targets']}-seed{seed}-{version}"
    stats_path = data / "stats.json"
    if not stats_path.exists():
        if data.exists():
            shutil.rmtree(data)
        stats = generate(data, spec["scale"], seed, spec["targets"])
        stats_path.write_text(json.dumps(stats, sort_keys=True), encoding="utf-8")
    return data, json.loads(stats_path.read_text(encoding="utf-8"))


def write_config(spec: dict, seed: int, data: Path, run_dir: Path) -> Path:
    config = {
        "seed": seed,
        "paths": {
            "collection": str(data / "collection.tsv"),
            "train_queries": str(data / "train_queries.tsv"),
            "train_qrels": str(data / "train_qrels.txt"),
            "test_queries": str(data / "test_queries.tsv"),
            "test_qrels": str(data / "test_qrels.txt"),
            "target_run": str(data / "target_run.txt"),
            "embeddings": str(data / "embeddings.txt"),
            "index_dir": str(run_dir / "index"),
            "output_dir": str(run_dir / "out"),
        },
        "qpp": dict(spec["qpp"]),
        "evaluation": {"target_metric": "ap@100", "lambdas": DEFAULT_LAMBDAS, "ks": spec["ks"]},
    }
    path = run_dir / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


def probe_burst() -> float:
    """CPU seconds of one fixed burst of dict updates and a numpy sort (about 0.5 ms)."""
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    np.sort(_PROBE_ARRAY[::-1].copy())
    return time.thread_time() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without their lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """Runs :func:`probe_burst` in a background thread until stopped."""

    def __init__(self):
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.bursts.append(probe_burst())

    def stop(self) -> float:
        """Stop and return the mean burst, or one burst taken now if the command was too short.

        Bursts come at even intervals, so their mean follows the average speed
        over the command even when the host changes speed part-way through.
        The slowest and fastest tenth are left out, so a burst stretched by an
        interrupt does not count.
        """
        self._stop.set()
        self._thread.join()
        return trimmed_mean(self.bursts) if self.bursts else probe_burst()


class Runner:
    """Runs CLI commands as child processes and keeps the books on them."""

    def __init__(self, run_dir: Path, config: Path):
        self.run_dir = run_dir
        self.config = config
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.samples: list[dict] = []

    def run(self, command: str, spans: Path | None = None, check=None) -> float:
        """Run one command; return its speed-corrected seconds, or NaN if it failed.

        The corrected time is the wall time scaled by PROBE_REFERENCE_S over
        the mean probe burst measured while the command ran; the wall time
        and the probe are kept in ``self.samples``.

        A command fails on a non-zero exit, a traceback in its output, or a
        problem that ``check(command)`` reports about the files it wrote.
        """
        if spans is None:
            argv = [sys.executable, "-m", "qvqpp", command, "--config", str(self.config)]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), command, "--config", str(self.config)]
        log_path = self.run_dir / f"{command}.log"
        self.attempted += 1
        with open(log_path, "wb") as log:
            probe = SpeedProbe()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: never leave the child running
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - start
                burst = probe.stop()
        corrected = wall * PROBE_REFERENCE_S / burst
        self.samples.append({"command": command, "wall_s": wall, "probe_burst_s": burst, "corrected_s": corrected})
        proc.returncode = os.waitstatus_to_exitcode(status)
        if spans is None:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        output = log_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 or "Traceback" in output:
            problem = f"{command} exited {proc.returncode}: {output.strip()[-500:]}"
        else:
            problem = check(command) if check is not None else None
        if problem:
            self.fail(problem)
            return math.nan
        return corrected

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def check_predictions(path: Path, data: Path) -> str | None:
    """Every target predicted once, in id order, with a finite value."""
    targets = sorted(line.split("\t", 1)[0] for line in (data / "test_queries.tsv").read_text().splitlines())
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    if [r[0] for r in rows] != targets:
        return "predictions.tsv does not list every target once in id order"
    try:
        if all(len(r) == 2 and math.isfinite(float(r[1])) for r in rows):
            return None
    except ValueError:
        pass
    return "predictions.tsv holds a malformed or non-finite value"


def check_sweep(path: Path, ks: list[int]) -> str | None:
    """One row per (lambda, k) cell in grid order, tau within [-1, 1]."""
    lines = path.read_text(encoding="utf-8").splitlines()
    expected = [f"{lam:g},{k}" for lam in DEFAULT_LAMBDAS for k in ks]
    if lines[:1] != ["lambda,k,tau"] or [line.rsplit(",", 1)[0] for line in lines[1:]] != expected:
        return "sweep.csv does not hold the configured grid"
    try:
        taus = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    except ValueError:
        return "sweep.csv holds a non-numeric tau"
    if not all(-1.0 <= t <= 1.0 for t in taus if not math.isnan(t)):
        return "sweep.csv holds a tau outside [-1, 1]"
    return None


class OutputCheck:
    """Validates the file a command wrote and requires the same bytes on every repetition."""

    FILES = {"predict": "predictions.tsv", "sweep": "sweep.csv"}

    def __init__(self, out_dir: Path, data: Path, ks: list[int]):
        self.out_dir = out_dir
        self.data = data
        self.ks = ks
        self.digests: dict[str, str] = {}

    def __call__(self, command: str) -> str | None:
        name = self.FILES.get(command)
        if name is None:
            return None
        path = self.out_dir / name
        if not path.exists():
            return f"{command} did not write {name}"
        problem = check_predictions(path, self.data) if command == "predict" else check_sweep(path, self.ks)
        digest = sha256(path)
        path.unlink()
        if problem:
            return problem
        if self.digests.setdefault(name, digest) != digest:
            return f"{name} differs between repetitions of the same command"
        return None


def check_goldens(runner: Runner, workload: str, seed: int, digests: dict, is_default: bool) -> None:
    """Print the output digests; at the golden seed and the workload's own sizes, compare with goldens.json.

    The goldens were recorded from the generator whose SHA-256 they name, so
    a changed generator is reported as such rather than as a changed result.
    """
    for name, digest in sorted(digests.items()):
        print(f"digest {workload} seed={seed} {name} {digest}")
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    if seed != goldens["seed"] or not is_default:
        return
    if sha256(HERE / "gen_corpus.py") != goldens["generator_sha256"]:
        runner.fail("gen_corpus.py changed since goldens.json was recorded; record the goldens again")
        return
    for name, digest in sorted(goldens[workload].items()):
        if digests.get(name) != digest:
            runner.fail(f"{name} does not match the golden digest for {workload} at seed {seed}")


def traced_metrics(runner: Runner, check: OutputCheck, untraced_predict_s: float) -> dict:
    """Run index, predict and sweep once more under tracing; outputs must match the untraced ones.

    Shares of traced ``predict`` use its wall time, the clock the spans use;
    the tracing overhead compares corrected times, like ``predict_s``.
    """
    spans = {}
    corrected = {}
    for command in ("index", "predict", "sweep"):
        path = runner.run_dir / f"{command}.spans.jsonl"
        corrected[command] = runner.run(command, spans=path, check=check)
        if command == "predict":
            predict_wall = runner.samples[-1]["wall_s"]
        spans[command] = bench_trace.load_spans(path) if path.exists() else []
    if any(math.isnan(value) for value in corrected.values()):
        return {}  # a failed command leaves partial spans; its failure already makes the run incorrect
    metrics = bench_trace.layer_metrics(spans["index"], spans["predict"], spans["sweep"], predict_wall)
    index_dir = runner.run_dir / "index"
    metrics["text_index.artifact_mb"] = sum(p.stat().st_size for p in index_dir.glob("*.idx")) / 2**20
    metrics["cli.trace_overhead_frac"] = corrected["predict"] / untraced_predict_s - 1.0
    return metrics


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    # SIGTERM becomes SystemExit, so a running child is killed and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default=None, help="override the workload's corpus scale (one-off runs)")
    parser.add_argument("--targets", type=int, default=None, help="override the workload's target count")
    args = parser.parse_args()
    # Commands and the speed probe share one CPU, so the probe sees the speed the command got.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "qvqpp" / "cli.py").is_file():
        print(f"error: no qvqpp sources under {ROOT / 'src'}; run from a full source checkout", file=sys.stderr)
        return 2

    spec = dict(WORKLOADS[args.workload])
    spec.update({k: v for k, v in (("scale", args.scale), ("targets", args.targets)) if v is not None})
    data, stats = prepare_data(spec, args.seed)
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(run_dir, write_config(spec, args.seed, data, run_dir))
        check = OutputCheck(run_dir / "out", data, spec["ks"])
        times: dict[str, list[float]] = {"setup_s": [], "predict_s": [], "sweep_s": []}
        for _ in range(SETUP_REPEATS):
            times["setup_s"].append(runner.run("index"))
        start = time.perf_counter()
        while True:
            times["predict_s"].append(runner.run("predict", check=check))
            times["sweep_s"].append(runner.run("sweep", check=check))
            if runner.failed or time.perf_counter() - start >= args.seconds:
                break
        end_to_end = {name: statistics.median(values) for name, values in times.items()}
        end_to_end["peak_rss_mb"] = runner.peak_rss_mb
        if not runner.failed:
            check_goldens(runner, args.workload, args.seed, check.digests, spec == WORKLOADS[args.workload])

        if args.trace:
            values = traced_metrics(runner, check, end_to_end["predict_s"]) if not runner.failed else {}
            listed = metric_spec()["per_layer"]
        else:
            values = end_to_end
            listed = metric_spec()["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], math.nan), "unit": m["unit"]} for m in listed}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = runner.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    if not correct:  # keep the result line valid JSON
        metrics = {k: dict(m, value=m["value"] if math.isfinite(m["value"]) else None) for k, m in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "repetitions": times,
        "samples": runner.samples,
        "digests": check.digests,
        "metadata": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "src_loc": src_loc(),
            "corpus": stats,
            "config": spec,
        },
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{spec['scale']}-t{spec['targets']}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
