"""Pipeline benchmark: `swmparc build-atlas` then `swmparc parcellate` on a
generated workload, with an output check.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ./src and
writes only under ./.bench_work.  Workloads are defined in workloads.py.

A run
  1. sets up: expands the seed into the workload's scenes (track files and
     truth).  It runs three times (SETUP_REPEATS): once here, then spread
     evenly over the window of step 2 and not counted in it.  Each repeat
     must write the first one's files byte for byte; `setup_s` is the median
     of the three;
  2. runs passes round the scenes for --seconds: every scene gets one pass,
     even where that round takes longer, and after that no pass starts that
     would end after --seconds.  A pass is one build-atlas and one
     parcellate in a process of its own, forked from one that has imported
     the program (one_pass.py), so its peak memory is its own.
     Passes run one at a time, in a closed loop;
  3. checks every pass's atlas and result directories are byte-identical to
     the first pass on the same scene (a run of one round adds a second pass
     on its first scene for this), and scores each scene's first pass
     against its truth.

A timing or memory figure is each scene's median over its passes, averaged
over the scenes; a quality figure is averaged over the scenes.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 the passes cover the first TRACE_SCENES scenes only, and rounds
alternate traced and untraced, starting traced, with at least three rounds;
the last line reports the per-layer metrics of the traced
passes (tracing.py) and the tracing overhead, and the run checks that every
deterministic counter repeats exactly between traced passes of a scene.  The
spans go to .bench_work/trace-<workload>-seed<seed>.json.  The line before
the last holds the environment, input sizes and every timing sample.  A pass
fails on a nonzero exit code, a crash or a failed output check.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and every pass it starts; must be
# set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
# a run, set-up included, ends its last pass within this many seconds: a pass
# still running then is killed and counted as failed
RUN_LIMIT_S = 165
# the traced run passes over the first scenes only: it needs three rounds,
# which on every scene of big_atlas would take two minutes
TRACE_SCENES = 3

# output-check limits; every workload and seed clears them by a wide margin
MAX_REGISTRATION_ERROR_MM = 4.0
MIN_JACCARD = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "atlas_s": "s",
    "parcellate_s": "s",
    "peak_rss_mb": "MB",
    "sensitivity": "ratio",
    "precision": "ratio",
    "jaccard": "ratio",
    "registration_error_mm": "mm",
    "passes_ok": "ratio",
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_cache": l3,
    }


def tree(directory: str) -> dict[str, bytes]:
    """Relative path -> contents of every file under a directory."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return [p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]]


def score(scene: str, result: str) -> tuple[dict, list[str]]:
    """Quality and registration error of a result directory, plus problems."""
    from swmparc.metrics import confusion_scores
    from swmparc.registration import RigidTransform
    from swmparc.tckio import read_tck

    truth = np.load(os.path.join(scene, "truth.npz"))
    labels = truth["labels"]
    with open(os.path.join(result, "summary.json"), encoding="ascii") as fh:
        summary = json.load(fh)
    problems = []
    if summary["subject_count"] != len(labels):
        problems.append(f"summary covers {summary['subject_count']} of {len(labels)} streamlines")

    scores = []
    local = {}
    for b in summary["bundles"]:
        truth_idx = np.flatnonzero(labels == b["bundle_id"])
        s = confusion_scores(b["accepted"], truth_idx, total=len(labels))
        if s.defined:
            scores.append(s)
        local[b["bundle_id"]] = b["local_registration"]["transform"]
        if b["status"] != "recognized":
            problems.append(f"{b['bundle_id']}: {b['status']}")
            continue
        written = len(read_tck(os.path.join(result, f"{b['bundle_id']}.tck")))
        if written != b["count"] or written != len(b["accepted"]):
            problems.append(f"{b['bundle_id']}.tck holds {written} of {b['count']} streamlines")

    # truth points moved by the recovered global, then their bundle's local
    # transform, against the same points before the scene's perturbation:
    # the points as the program read them, and the same without their noise
    point_labels = np.repeat(labels[truth["truth_index"]], truth["lengths"])
    global_transform = RigidTransform(**summary["global_registration"]["transform"])

    def error_of(points) -> float:
        moved = global_transform.apply(points)
        for bundle_id, transform in local.items():
            mask = point_labels == bundle_id
            moved[mask] = RigidTransform(**transform).apply(moved[mask])
        return float(np.linalg.norm(moved - truth["original_points"], axis=1).mean())

    error = error_of(truth["subject_points"])

    quality = {
        "sensitivity": statistics.fmean(s.sensitivity for s in scores),
        "precision": statistics.fmean(s.precision for s in scores),
        "jaccard": statistics.fmean(s.jaccard for s in scores),
        "registration_error_mm": error,
        "transform_error_mm": error_of(truth["clean_points"]),
    }
    if error > MAX_REGISTRATION_ERROR_MM:
        problems.append(f"registration error {error:.3f} mm > {MAX_REGISTRATION_ERROR_MM} mm")
    if quality["jaccard"] < MIN_JACCARD:
        problems.append(f"mean jaccard {quality['jaccard']:.3f} < {MIN_JACCARD}")
    return quality, problems


class PassServer:
    """one_pass.py, which runs each pass in a forked child of one process
    that has imported the program once."""

    def __init__(self, work: str):
        self.log_path = os.path.join(work, "passes.log")
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "one_pass.py")],
            env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True)

    def run(self, request: dict, deadline: float) -> int | None:
        """Exit code of the pass's child; None if it did not end by the deadline."""
        if self.proc.poll() is not None:
            return None
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        if not ready:
            self.close()
            return None
        line = self.proc.stdout.readline()
        return int(line) if line.strip() else None

    def tail(self) -> str:
        if not self.log.closed:
            self.log.flush()
        with open(self.log_path, encoding="utf-8") as fh:
            return fh.read()[-2000:]

    def close(self) -> None:
        """Stop the server and any pass it is running, and wait for them."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.log.close()


def run_pass(server: PassServer, index: int, scene: str, work: str, workers: int,
             trace_file: str | None, deadline: float):
    """One pass; returns (report or None, output dir)."""
    out = os.path.join(work, f"pass{index}")
    report_file = out + ".json"
    code = server.run({"scene": scene, "out": out, "workers": workers, "trace": trace_file,
                       "trace_id": index, "report": report_file}, deadline)
    report = None
    if code == 0:
        with open(report_file, encoding="ascii") as fh:
            report = json.load(fh)
        os.remove(report_file)
        if report["atlas_rc"] != 0 or report["parcellate_rc"] != 0:
            report = None
    if report is None:
        print(f"pass {index} failed (exit code {code}):\n{server.tail()}", file=sys.stderr)
    return report, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "swmparc", "cli.py")):
        print(f"error: no swmparc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    workers = min(workloads.WORKLOADS[args.workload].workers, env["nproc"])
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = PassServer(work)
    try:
        return _run(args, workloads, tracing, env, workers, tag, work, deadline, server)
    finally:
        server.close()
        shutil.rmtree(work, ignore_errors=True)


def _mean_of_medians(groups, key):
    """Mean over scenes of each scene's median; None if a scene has no sample."""
    if not all(groups):
        return None
    return statistics.fmean(statistics.median(r[key] for r in g) for g in groups)


def _run(args, workloads, tracing, env, workers, tag, work, deadline, server) -> int:
    problems: list[str] = []

    setup_s: list[float] = []

    def set_up() -> list[str]:
        """One timed set-up; a repeat must give the first one's files."""
        i = len(setup_s)
        directory = os.path.join(work, f"setup{i}")
        t0 = time.perf_counter()
        paths = workloads.write_workload(args.workload, args.seed, directory)
        setup_s.append(time.perf_counter() - t0)
        if i > 0:
            if tree(directory) != first:
                problems.append(f"set-up {i} differs from set-up 0 for the same seed")
            shutil.rmtree(directory)
        return paths

    scenes = set_up()
    if args.trace:
        scenes = scenes[:TRACE_SCENES]
    first = tree(os.path.join(work, "setup0"))
    sizes = []
    for scene in scenes:
        with open(os.path.join(scene, "sizes.json"), encoding="ascii") as fh:
            sizes.append(json.load(fh))

    plain = [[] for _ in scenes]
    traced = [[] for _ in scenes]
    reference = [None] * len(scenes)
    quality = [None] * len(scenes)
    invalid = [False] * len(scenes)     # the scene's first output failed its check
    spans = []
    attempted = failed = 0

    def attempt(j: int, tracing_this: bool) -> None:
        """One pass on scene j, checked against the scene's first pass."""
        nonlocal attempted, failed
        trace_file = os.path.join(work, f"trace{attempted}.json") if tracing_this else None
        report, out = run_pass(server, attempted, scenes[j], work, workers, trace_file, deadline)
        attempted += 1
        if report is not None:
            if reference[j] is None:
                reference[j] = tree(out)
                try:
                    quality[j], found = score(scenes[j], os.path.join(out, "result"))
                except (OSError, ValueError, KeyError) as e:
                    found = [f"result not readable: {e!r}"]
                problems.extend(f"scene{j}: {p}" for p in found)
                invalid[j] = bool(found)
            elif tree(out) != reference[j]:
                print(f"pass {attempted - 1}: scene{j} output differs from its first pass",
                      file=sys.stderr)
                report = None
            if invalid[j]:
                report = None
        shutil.rmtree(out, ignore_errors=True)
        if report is None:
            failed += 1
            return
        (traced if tracing_this else plain)[j].append(report)
        if tracing_this:
            with open(trace_file, encoding="ascii") as fh:
                spans.append(dict(scene=j, **json.load(fh)))

    # passes go round the scenes in order; with --trace 1 the rounds
    # alternate traced and untraced, starting traced.  Every scene gets a
    # pass, and the traced run three rounds; after that the run stops before
    # a pass that would end after --seconds, judged by the scene's last pass
    needed = (3 if args.trace else 1) * len(scenes)
    last = [0.0] * len(scenes)
    count = 0
    start = time.perf_counter()
    paused = 0.0        # time spent on repeat set-ups, not counted in the window

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def repeat_set_ups() -> None:
        # the repeats are spread evenly over the window, so their median does
        # not rest on one short stretch of the host's speed
        nonlocal paused
        while (len(setup_s) < SETUP_REPEATS and time.perf_counter() < deadline
               and elapsed() >= len(setup_s) * args.seconds / SETUP_REPEATS):
            t0 = time.perf_counter()
            set_up()
            paused += time.perf_counter() - t0

    while time.perf_counter() < deadline:
        r, j = divmod(count, len(scenes))
        if count >= needed and elapsed() + last[j] > args.seconds:
            break
        t0 = elapsed()
        attempt(j, bool(args.trace) and r % 2 == 0)
        last[j] = elapsed() - t0
        count += 1
        repeat_set_ups()
    if count == len(scenes) and time.perf_counter() < deadline:
        # a second pass on one scene, so a run of one round still shows
        # output that changes from pass to pass
        attempt(0, False)
    # set-ups the window ended too soon for
    while len(setup_s) < SETUP_REPEATS and time.perf_counter() < deadline:
        set_up()

    samples = {"setup_s": setup_s}
    for key in ("atlas_s", "parcellate_s", "peak_rss_mb"):
        samples[key] = [[r[key] for r in g] for g in plain]
    if args.trace:
        samples["traced_parcellate_s"] = [[r["parcellate_s"] for r in g] for g in traced]

    if args.trace:
        metrics = {}
        for name, (unit, _, _) in tracing.METRICS.items():
            per_scene = []
            for j, group in enumerate(traced):
                values = [r["layers"][name] for r in group]
                if not values or None in values:
                    per_scene = None
                    break
                if unit == "s":
                    per_scene.append(statistics.median(values))
                    continue
                if any(v != values[0] for v in values):
                    problems.append(f"scene{j}: counter {name} differs between passes: {values}")
                per_scene.append(values[0])
            metrics[name] = {"value": statistics.fmean(per_scene) if per_scene else None,
                             "unit": unit}
        traced_s = _mean_of_medians(traced, "parcellate_s")
        plain_s = _mean_of_medians(plain, "parcellate_s")
        metrics["trace.overhead_s"] = {
            "value": traced_s - plain_s if traced_s is not None and plain_s is not None else None,
            "unit": "s"}
        with open(os.path.join(WORK, f"trace-{tag}.json"), "w", encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, fh)
    else:
        scored = None not in quality
        values = {
            "setup_s": statistics.median(setup_s),
            "atlas_s": _mean_of_medians(plain, "atlas_s"),
            "parcellate_s": _mean_of_medians(plain, "parcellate_s"),
            "peak_rss_mb": _mean_of_medians(plain, "peak_rss_mb"),
            **{k: statistics.fmean(q[k] for q in quality) if scored else None
               for k in ("sensitivity", "precision", "jaccard", "registration_error_mm")},
            "passes_ok": (attempted - failed) / attempted if attempted else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "workers": workers,
        "sizes": sizes,
        "env": env,
        "samples": samples,
        "tail_percentile": {k: tail_percentile([x for g in v for x in g]) if k != "setup_s"
                            else tail_percentile(v) for k, v in samples.items()},
        "quality": quality,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems and failed == 0 and None not in reference,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
