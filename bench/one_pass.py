"""Benchmark passes, each in a process of its own.

    python3 bench/one_pass.py

A pass is `swmparc build-atlas` on SCENE/bundles followed by `swmparc
parcellate` of SCENE/subject.tck, both called in-process through
`swmparc.cli.main`.  It writes OUT/atlas and OUT/result, and reports as one
JSON object the exit codes, the wall time of each command and the peak
resident memory of the process that ran it.  With a trace file the public
functions of each layer are wrapped first (see tracing.py), the spans are
written to that file and the per-layer metrics of the pass are added to the
report.

The script imports the program once, then for each JSON request on stdin
({"scene", "out", "workers", "trace", "trace_id", "report"}) forks a child
that runs the pass and writes its report to the "report" path, and prints
the child's exit code as one line.  A forked child starts from the server's
memory, which is what a fresh process holds after its imports, so its peak
is its own pass's and not the one before; the fork saves the second of
imports a fresh process would spend.  run.py's PassServer drives it.

The caller must put the repository's `src` directory on PYTHONPATH.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from swmparc import cli  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident memory of this process, KiB.

    VmHWM belongs to the process's own address space.  Linux carries
    ru_maxrss over an exec, so there it would report the launching process's
    peak whenever that is the larger; it is the fallback where /proc is
    missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(scene: str, out: str, workers: int, trace: str | None = None,
             trace_id: int = 0) -> dict:
    """One build-atlas and one parcellate; returns the pass's report."""
    atlas_dir = os.path.join(out, "atlas")
    result_dir = os.path.join(out, "result")
    build = ["build-atlas", "--bundles", os.path.join(scene, "bundles"), "--out", atlas_dir]
    label = ["parcellate", "--atlas", atlas_dir, "--subject", os.path.join(scene, "subject.tck"),
             "--out", result_dir, "--workers", str(workers)]

    tracer = None
    if trace:
        import tracing
        tracer = tracing.install(trace_id)

    def command(name, argv):
        if tracer is None:
            return cli.main(argv)
        return tracer.root(name, cli.main, argv)

    t0 = time.perf_counter()
    atlas_rc = command("cli.build_atlas", build)
    t1 = time.perf_counter()
    parcellate_rc = command("cli.parcellate", label) if atlas_rc == 0 else None
    t2 = time.perf_counter()
    peak_kb = peak_rss_kb()

    report = {
        "atlas_rc": atlas_rc,
        "parcellate_rc": parcellate_rc,
        "atlas_s": t1 - t0,
        "parcellate_s": t2 - t1,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(trace, self_time_s=tracing.self_times(tracer.spans))
    return report


def serve() -> int:
    """Run the passes requested on stdin, each in a forked child."""
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.dup2(2, 1)          # the commands' output must not reach the reply pipe
                report = run_pass(request["scene"], request["out"], request["workers"],
                                  request["trace"], request["trace_id"])
                with open(request["report"], "w", encoding="ascii") as fh:
                    json.dump(report, fh)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
