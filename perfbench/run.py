"""actionseg benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk_cold --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``actionseg`` from
``src/`` and keeps its scratch files under ``.perfbench_work/``. Workloads
(a single client in a closed loop: one operation at a time, the next one
sent when the previous one has finished):

- ``desk_cold``: ``actionseg train`` on the train manifest, then
  ``actionseg segment`` once per stitched test video, each a subprocess
  with an empty feature cache. Optical flow dominates.
- ``desk_warm``: the same commands after the feature cache has been
  filled, so flow never runs.
- ``kth_mixture``: in-process ``train_model_bank`` and
  ``evaluate_model_bank`` on KTH-shaped feature vectors at G = 256, so only
  the mixture fit and scoring run.

A pass runs these operations once, in that order; passes repeat until
``--seconds`` have passed. With ``--trace 0`` the end-to-end metrics are
printed. With ``--trace 1`` whole passes run in-process, alternating
between untraced passes and passes with span wrappers on the package's
public functions, and the per-layer metrics are printed. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it notes the machine. The exit
status is 0 unless the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# kth_mixture's actions differ by design; chance is 17%
KTH_MIN_ACCURACY = 60.0


@dataclass
class Run:
    """Operations, their timings and their outputs in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    walls: dict = field(default_factory=lambda: defaultdict(list))
    segment_frames: int = 0
    frames: dict = field(default_factory=dict)
    correct_frames: dict = field(default_factory=dict)
    peak_rss_kb: int = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"perfbench: failed: {what}", file=sys.stderr)
        return ok

    def same_as_before(self, key: str, value) -> bool:
        """Outputs must not change between repeats of an operation."""
        return self.reference.setdefault(key, value) == value

    def score(self, key: str, labels, truth) -> None:
        """Frame accuracy of the labels output for one test video."""
        self.frames[key] = len(truth)
        self.correct_frames[key] = sum(int(a == b) for a, b in zip(labels, truth))

    @property
    def accuracy(self) -> float:
        return 100.0 * sum(self.correct_frames.values()) / max(sum(self.frames.values()), 1)


def run_passes(seconds: float, ops: list, run: Run, whole_passes: bool) -> None:
    """Run ``ops`` (name, callable taking the pass index) in order, over and
    over, one at a time, until ``seconds`` have passed and the first pass is
    complete; with ``whole_passes`` only stop at the end of a pass."""
    start = time.perf_counter()
    for n in itertools.count():
        for name, fn in ops:
            t0 = time.perf_counter()
            fn(n)
            run.walls[name].append(time.perf_counter() - t0)
            if time.perf_counter() - start >= seconds and (
                name == ops[-1][0] or (n > 0 and not whole_passes)
            ):
                return


# ---------------------------------------------------------------------------
# running the CLI

def _cli_env(cache: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "ACTIONSEG_CACHE_DIR": str(cache)}


def run_subprocess(argv: list[str], cache: Path, run: Run) -> int:
    """``python -m actionseg.cli argv``; records the child's peak RSS."""
    log = cache.with_suffix(".log")
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "actionseg.cli", *argv],
            env=_cli_env(cache), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run.peak_rss_kb = max(run.peak_rss_kb, usage.ru_maxrss)
    if proc.returncode != 0:
        print(log.read_text(errors="replace"), file=sys.stderr)
    return proc.returncode


def in_process(tracer=None):
    """Runner calling ``actionseg.cli.main`` in this process."""
    import actionseg.cli

    main = actionseg.cli.main if tracer is None else tracer.wrap("cli.main", actionseg.cli.main)

    def runner(argv: list[str], cache: Path, run: Run) -> int:
        os.environ["ACTIONSEG_CACHE_DIR"] = str(cache)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        if code != 0:
            print(sink.getvalue(), file=sys.stderr)
        return code

    return runner


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``actionseg.cli``,
    which every CLI call pays; one untimed import first compiles bytecode."""
    argv = [sys.executable, "-c", "import actionseg.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples[1:])


def read_label_csv(path: Path, n_frames: int, actions: list[str]):
    """Per-frame ordinals from a label CSV, or None unless its rows cover
    frames 0..n_frames-1 exactly once with known action names."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    if not lines or lines[0].strip() != "start_frame,end_frame,action":
        return None
    labels = []
    for line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3 or parts[2] not in actions:
            return None
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            return None
        if start != len(labels) or end < start:
            return None
        labels += [actions.index(parts[2]) + 1] * (end - start + 1)
    return labels if len(labels) == n_frames else None


# ---------------------------------------------------------------------------
# desk workloads

def fill_cache(data, work: Path, cache: Path, run: Run) -> None:
    """Fill the feature cache with two concurrent ``actionseg train`` calls
    that together read every desk video; their models are discarded."""
    videos = [str(v.relative_to(data.manifest.parent)) for v in data.all_videos]
    procs = []
    for half in (0, 1):
        entries = [
            {"video": v, "action": data.actions[k % len(data.actions)]}
            for k, v in enumerate(videos[half::2])
        ]
        manifest = data.manifest.with_name(f"fill_{half}.json")
        manifest.write_text(json.dumps({"actions": data.actions, "train": entries}))
        argv = [sys.executable, "-m", "actionseg.cli", "train", "--config", str(data.config),
                "--manifest", str(manifest), "--out", str(work / f"fill_models_{half}")]
        procs.append(
            subprocess.Popen(argv, env=_cli_env(cache), cwd=ROOT, stdout=subprocess.DEVNULL)
        )
    for half, proc in enumerate(procs):
        run.op(proc.wait() == 0, f"cache fill {half} (exit {proc.returncode})")


def desk_ops(data, work: Path, warm: bool, runner, run: Run) -> list:
    """One pass: train, then segment each test video. Every output is
    checked and compared with its first occurrence."""
    models = work / "models"
    fresh = itertools.count()

    def call(argv: list[str]) -> int:
        if warm:
            return runner(argv, work / "cache", run)
        cache = work / f"cache_{next(fresh)}"
        cache.mkdir()
        try:
            return runner(argv, cache, run)
        finally:
            shutil.rmtree(cache)

    def train(n: int) -> None:
        code = call(["train", "--config", str(data.config), "--manifest", str(data.manifest),
                     "--out", str(models)])
        files = {f.name: f.read_bytes() for f in sorted(models.glob("*.json"))}
        run.op(
            code == 0
            and sorted(files) == sorted(f"{a}.json" for a in data.actions)
            and run.same_as_before("models", files),
            f"train, pass {n} (exit {code})",
        )

    def segment(video: Path, truth):
        def op(n: int) -> None:
            out = work / f"{video.name}.csv"
            out.unlink(missing_ok=True)
            code = call(["segment", "--config", str(data.config), "--models", str(models),
                         "--video", str(video), "--out", str(out)])
            run.segment_frames += len(truth)
            labels = read_label_csv(out, len(truth), data.actions) if code == 0 else None
            if run.op(
                labels is not None and run.same_as_before(video.name, labels),
                f"segment {video.name}, pass {n} (exit {code})",
            ):
                run.score(video.name, labels, truth)

        return op

    return [("train", train)] + [
        (f"segment {v.name}", segment(v, t)) for v, t in zip(data.test_videos, data.truths)
    ]


def run_desk(args, work: Path, warm: bool):
    from inputs import content_digest, desk_dataset

    data = desk_dataset(args.seed, work / "data")
    run = Run()
    if len({content_digest(v) for v in data.all_videos}) != len(data.all_videos):
        run.problems.append("two desk videos have identical content")
    if warm:
        fill_cache(data, work, work / "cache", run)
    if args.trace:
        return run, traced_passes(
            args.seconds, run,
            lambda tracer: desk_ops(data, work, warm, in_process(tracer), run),
        )
    ops = desk_ops(data, work, warm, run_subprocess, run)
    run_passes(args.seconds, ops, run, whole_passes=False)
    return run, run.peak_rss_kb


# ---------------------------------------------------------------------------
# kth_mixture

def kth_ops(data, run: Run) -> list:
    """One pass: fit the bank, then segment and score the test videos."""
    import numpy as np
    from actionseg import evaluation
    from inputs import KTH_CONFIG

    bank = []

    def train(n: int) -> None:
        bank.clear()
        try:
            bank.append(evaluation.train_model_bank(data.train, KTH_CONFIG, data.actions))
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a benchmark error
            run.op(False, f"train_model_bank, pass {n}: {exc!r}")
            return
        params = [np.concatenate([m.weights, m.means.ravel(), m.variances.ravel()]).tobytes()
                  for m in bank[0].models]
        run.op(
            [m.action for m in bank[0].models] == data.actions
            and run.same_as_before("models", params),
            f"train_model_bank, pass {n}",
        )

    def evaluate(n: int) -> None:
        run.segment_frames += sum(len(truth) for _, truth in data.tests)
        try:
            _, preds = evaluation.evaluate_model_bank(bank[0], data.tests, KTH_CONFIG)
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a benchmark error
            run.op(False, f"evaluate_model_bank, pass {n}: {exc!r}")
            return
        labels = [pred.labels.tolist() for pred in preds]
        if run.op(
            [len(x) for x in labels] == [len(t) for _, t in data.tests]
            and run.same_as_before("labels", labels),
            f"evaluate_model_bank, pass {n}",
        ):
            for j, (x, (_, truth)) in enumerate(zip(labels, data.tests)):
                run.score(f"test_{j}", x, truth.labels)

    return [("train", train), ("segment", evaluate)]


def run_kth(args, work: Path):
    from inputs import kth_dataset

    data = kth_dataset(args.seed)
    run = Run()
    if args.trace:
        return run, traced_passes(args.seconds, run, lambda tracer: kth_ops(data, run))
    run_passes(args.seconds, kth_ops(data, run), run, whole_passes=False)
    if run.accuracy < KTH_MIN_ACCURACY:
        run.problems.append("kth_mixture frame accuracy below the sanity floor")
    return run, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# traced runs

def traced_passes(seconds: float, run: Run, make_ops) -> dict:
    """Whole passes, in-process, alternating untraced and traced, until
    ``seconds`` have passed (at least one of each). Returns the per-layer
    metrics: medians over the traced passes, and the tracing overhead as
    the difference between the median pass walls of the two kinds."""
    from tracing import COUNT_METRICS, Tracer, layer_metrics, traced

    layers, walls = [], {False: [], True: []}
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        for with_trace in (False, True):
            tracer = Tracer()
            t0 = time.perf_counter()
            with traced(tracer) if with_trace else contextlib.nullcontext():
                run_passes(0.0, make_ops(tracer if with_trace else None), run, whole_passes=True)
            walls[with_trace].append(time.perf_counter() - t0)
            if with_trace:
                layers.append(layer_metrics(tracer))
    out = {
        name: (statistics.median(p[name] for p in layers),
               "count" if name in COUNT_METRICS else "s")
        for name in layers[0]
    }
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def predictions(workload: str, metrics: dict) -> dict:
    """Verdicts on the traced-run predictions recorded in interactions.json."""
    table = json.loads(Path(__file__).with_name("interactions.json").read_text())
    out = {f"{m} == 0": metrics[m][0] == 0 for m in table["zero"].get(workload, [])}
    top = table["largest"].get(workload)
    if top:
        times = {k: v for k, (v, u) in metrics.items() if u == "s" and k != "trace.overhead_s"}
        out[f"{top} is the largest layer time"] = max(times, key=times.get) == top
    return out


# ---------------------------------------------------------------------------
# reporting

def end_to_end(run: Run, peak_rss_kb: int, setup_s: float) -> dict:
    """Medians over operations; ``wall_s`` is the time of one pass, the sum
    of the median time of each of its operations."""
    med = statistics.median
    segment_s = sum(sum(w) for name, w in run.walls.items() if name.startswith("segment"))
    return {
        "setup_s": (setup_s, "s"),
        "train_s": (med(run.walls["train"]), "s"),
        "segment_fps": (run.segment_frames / segment_s, "frames/s"),
        "wall_s": (sum(med(w) for w in run.walls.values()), "s"),
        "frame_accuracy": (run.accuracy, "%"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "success_rate": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio"),
    }


def machine_note() -> dict:
    import numpy
    import scipy

    threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        threads = get()
    except (IndexError, OSError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").is_dir():
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((SRC / "actionseg").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >> 20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
        "cv2": importlib.util.find_spec("cv2") is not None,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk_cold", "desk_warm", "kth_mixture"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "actionseg" / "__init__.py").is_file():
        print(f"perfbench: no actionseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import actionseg

    if Path(actionseg.__file__).resolve().parent != SRC / "actionseg":
        print(f"perfbench: imported actionseg from {actionseg.__file__}", file=sys.stderr)
        return 2

    setup_s = 0.0 if args.trace else measure_setup()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "kth_mixture":
            run, result = run_kth(args, work)
        else:
            run, result = run_desk(args, work, warm=args.workload == "desk_warm")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    note = {"machine": machine_note(), "problems": run.problems}
    if args.trace:
        metrics = result
        note["predictions"] = predictions(args.workload, metrics)
    else:
        metrics = end_to_end(run, result, setup_s)
        note["operations"] = {name: len(w) for name, w in run.walls.items()}
    print(json.dumps(note))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
