"""One workload in a fresh interpreter; started by run.py, not by hand.

The process imports torusflow and builds the workload's jobs (the set-up),
stamps the moment it is ready on CLOCK_MONOTONIC so the parent can measure
set-up from before it started this interpreter, then runs passes over the
job set.  With --setup-only it stops after the stamp.  The untraced passes
run under a `hostspeed.Sampler`, and each pass is reported both as measured
and scaled to the reference host speed.  It prints one JSON object on its
last line of standard output.
"""
import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy

import hostspeed
import jobs
import torusflow
import tracing
from torusflow.errors import TorusflowError


def _run_pass(job_list):
    """Run every job once; a job that raises or fails a check is a failure."""
    outputs, problems = {}, []
    failed = 0
    # the CLI prints the manifest path; keep it out of this process's output
    with contextlib.redirect_stdout(io.StringIO()):
        for name, job in job_list:
            try:
                out, bad = job()
            except TorusflowError as exc:
                out, bad = None, [f"raised {type(exc).__name__}: {exc}"]
            except Exception:  # a broken job must not abort the run
                out, bad = None, [traceback.format_exc(limit=3)]
            outputs[name] = out
            if bad:
                failed += 1
                problems.extend(f"{name}: {p}" for p in bad)
    return outputs, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    job_list = jobs.build(args.workload, args.seed, args.scratch)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return

    walls, scaled, kernels, cpus = [], [], [], []
    attempted = failed = 0
    problems = []
    reference = None
    t_begin = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while True:
            mark = sampler.mark()
            t0, c0 = time.perf_counter(), time.process_time()
            outputs, n_failed, bad = _run_pass(job_list)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            samples, handler_s = sampler.since(mark)
            if not samples:
                sys.exit("a pass ended before the host speed was sampled")
            kernel_s = statistics.fmean(samples)
            walls.append(wall - handler_s)
            cpus.append(cpu - handler_s)
            kernels.append(kernel_s)
            scaled.append(hostspeed.scale(wall - handler_s, kernel_s))
            attempted += len(job_list)
            failed += n_failed
            problems.extend(bad)
            if reference is None:
                reference = outputs
            elif outputs != reference:
                problems.append(
                    f"pass {len(walls)} outputs differ from pass 1")
            if time.perf_counter() - t_begin + max(walls) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    versions = {"torusflow": torusflow.__version__,
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    result = {"t_ready": t_ready, "walls": walls, "scaled_walls": scaled,
              "kernels": kernels, "cpus": cpus,
              "peak_rss_mb": peak_rss_mb, "outputs": reference,
              "versions": versions}
    if args.trace:
        # the traced pass runs without the sampler, so no span holds its time
        run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
        tracer = tracing.Tracer(run_id)
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer:
            outputs, n_failed, bad = _run_pass(job_list)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        attempted += len(job_list)
        failed += n_failed
        problems.extend(bad)
        if outputs != reference:
            problems.append("traced outputs differ from untraced outputs")
        result["run_id"] = run_id
        result["sites"] = tracer.sites
        result["layers"] = tracing.layer_metrics(
            tracer, wall, cpu, statistics.median(walls))
        if args.spans_out:
            tracer.dump(args.spans_out)
    result.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
