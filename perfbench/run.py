"""smjd benchmark: one workload, a closed loop of calls, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  An untraced run first sets the workload
up several times in fresh processes (``setup_s``).  A run builds the
workload in this process, makes one warm-up call, then calls it back to
back, one caller, for ``--seconds`` seconds (at least two calls).  Every
call, the warm-up included, passes the workload's correctness gate and
reproduces the warm-up's output digest, or it counts as failed.  ``wall_s``
is the fastest untraced call after the warm-up: on a shared host other
tenants only ever add time to a call, and the fastest of many short calls
is the steadiest estimate of what the call itself costs.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` calls alternate between untraced and traced, and the last line
carries the per-layer metrics of the traced calls (medians) plus the tracing
overhead.  The line before it is a JSON detail record: provenance, call
times, gates, output digest.  See README.md.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, pin_threads, provenance, use_source_tree

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Seconds from process start to the end of set-up, per fresh process."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), workload,
                                 str(seed), str(workdir / f"setup-{k}")],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (rc {rc})")
        times.append(elapsed)
    return times


def tail_percentile(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    fit = [p for p in (50, 75, 90, 95, 99)
           if len(samples) * (100 - p) / 100 >= 10]
    if not fit:
        return None
    cut = statistics.quantiles(samples, n=100, method="inclusive")
    return {"percentile": fit[-1], "value": cut[fit[-1] - 1]}


def timed(call_fn):
    """One call; returns (seconds, CallResult)."""
    from workloads import CallResult

    t0 = time.perf_counter()
    try:
        result = call_fn()
    except Exception as exc:  # a raising call counts as failed
        result = CallResult("", False, f"raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, result


def closed_loop(call_fns, seconds: float):
    """Call the workload back to back, cycling through ``call_fns``, for
    ``seconds`` (at least two calls).  Returns [(seconds, fn index,
    CallResult)]."""
    calls = []
    start = time.perf_counter()
    while len(calls) < 2 or (statistics.median(d for d, _, _ in calls) < 2 * (
            seconds - (time.perf_counter() - start))):
        # one more call when it overruns ``seconds`` by less than stopping
        # now would fall short
        k = len(calls) % len(call_fns)
        seconds_k, result = timed(call_fns[k])
        calls.append((seconds_k, k, result))
    return calls


def traced(workload):
    """A call of ``workload`` under a fresh tracer; returns the call and the
    list that collects one tracer per call."""
    import tracer
    import workloads

    tracers = []

    def call():
        tr = tracer.Tracer()
        tracers.append(tr)
        tr.install(callers=[workloads])
        try:
            return workload.call(tr.proposals)
        finally:
            tr.uninstall()

    return call, tracers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pin_threads()
    use_source_tree()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times = ([] if args.trace else
                       measure_setup(args.workload, args.seed, workdir))
        w = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
        warmup_s, warmup = timed(w.call)
        if args.trace:
            traced_call, tracers = traced(w)
            calls = closed_loop([w.call, traced_call], args.seconds)
        else:
            calls = closed_loop([w.call], args.seconds)
        results = [warmup] + [r for _, _, r in calls]
        first = warmup.digest
        failed = sum(1 for r in results if not (r.ok and r.digest == first))
        plain = [d for d, k, _ in calls if k == 0]
        wall = statistics.median(plain)
        best = min(plain)

        if args.trace:
            traced_walls = [d for d, k, _ in calls if k == 1]
            layers = [tracer.layer_metrics(tr, d)
                      for tr, d in zip(tracers, traced_walls)]
            metrics = {}
            for name in layers[0]:
                unit = tracer.unit_of(name)
                # counts repeat exactly; report one, not an average of two
                median = statistics.median_low if unit == "count" else \
                    statistics.median
                metrics[name] = (median(m[name] for m in layers), unit)
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced_walls) / wall - 1.0, "ratio")
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (best, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "pass_ratio": (1.0 - failed / len(results), "ratio"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "loop": "closed, one caller, no threads beyond BLAS (pinned to 1)",
        "provenance": provenance(),
        "setup_s": setup_times,
        "calls": len(results), "failed": failed,
        "warmup_s": warmup_s,
        "call_s": [d for d, _, _ in calls],
        "traced": [k == 1 for _, k, _ in calls] if args.trace else None,
        "wall_s": {"min": best, "median": wall, "samples": len(plain),
                   "tail": tail_percentile(plain)},
        "output_digest": first,
        "digests_identical": all(r.digest == first for r in results),
        "gates": sorted({r.gate for r in results}),
        "waits": tracer.WAITS,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
