"""The torusflow benchmark: four lab workloads, timed end to end and traced.

Run from the repository root:

    python3 perfbench/run.py --workload rays --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1       # every workload, both modes
    python3 perfbench/run.py --write-spec         # regenerate BENCHMARK.json

One run starts the workload in fresh interpreters, one after another:
SETUP_PROBES that only set up, then WORKERS that set up and run passes over
the job set, each for its share of --seconds.  Several workers average out
what one process's memory placement does to its speed.  Pass times are
scaled to the reference host speed (hostspeed.py); the measured ones are
kept in the result file.  With --trace 1 the last worker then runs one more
pass with every torusflow layer wrapped in spans and reports the per-layer
metrics instead of the end-to-end ones.  Human-readable lines come first;
the last line of standard output is the JSON result.  A copy of the full
result, with provenance, is written under .perfbench_out/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
WORKERS = 2
TIMEOUT_S = 170.0
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                PYTHONHASHSEED="0", **THREAD_PINS)


def _launch(argv, deadline):
    """Run the worker; return (its JSON result, CLOCK_MONOTONIC at launch)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload could start")
    t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the worker and waits for it before raising
        raise BenchError(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), t_launch


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return the full result document."""
    if not os.path.isfile(os.path.join(ROOT, "src", "torusflow", "__init__.py")):
        raise BenchError(f"no torusflow sources under {ROOT}/src")
    deadline = time.monotonic() + TIMEOUT_S
    prov = {"seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()),
            "thread_pins": THREAD_PINS, "setup_probes": SETUP_PROBES,
            "workers": WORKERS}
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    scratch = os.path.join(OUT_DIR, f"scratch-{tag}-{os.getpid()}")
    os.makedirs(scratch)
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds / WORKERS), "--scratch", scratch]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, t_launch = _launch([*common, "--setup-only"], deadline)
            setups.append(probe["t_ready"] - t_launch)
        results = []
        for i in range(WORKERS):
            extra = []
            if trace and i == WORKERS - 1:
                extra = ["--trace", "1", "--spans-out",
                         os.path.join(OUT_DIR, f"spans-{tag}.json.gz")]
            res, t_launch = _launch([*common, *extra], deadline)
            setups.append(res["t_ready"] - t_launch)
            results.append(res)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    prov.update(res["versions"])

    def joined(key):
        return [x for r in results for x in r[key]]

    problems = joined("problems")
    problems.extend(f"worker {i + 1} outputs differ from worker 1"
                    for i, r in enumerate(results)
                    if r["outputs"] != results[0]["outputs"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    doc = {"workload": workload, "provenance": prov,
           "attempted": attempted, "failed": failed,
           "fail_frac": failed / attempted,
           "problems": problems, "outputs": results[0]["outputs"],
           "passes": {"scaled_wall_s": joined("scaled_walls"),
                      "measured_wall_s": joined("walls"),
                      "kernel_s": joined("kernels"), "cpu_s": joined("cpus")},
           "setup_runs_s": setups,
           "measured_wall_s": statistics.median(joined("walls")),
           "end_to_end": {"wall_s": statistics.median(joined("scaled_walls")),
                          "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                          "setup_s": statistics.median(setups)}}
    if trace:
        doc["run_id"] = res["run_id"]
        doc["wrapped_sites"] = res["sites"]
        doc["per_layer"] = res["layers"]
    doc["correct"] = not problems
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    return doc


def result_line(doc, trace):
    """The machine-readable result: every metric of the mode, with units."""
    if trace:
        units = {n: u for n, (u, _) in spec.PER_LAYER.items()}
        values = doc["per_layer"]
    else:
        units = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
        values = doc["end_to_end"]
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {n: {"value": values[n], "unit": u}
                        for n, u in units.items()}}


def describe(doc):
    """Human-readable lines: metrics by name and unit, checks, provenance."""
    w = doc["workload"]
    lines = []
    for name, (unit, _, _) in spec.END_TO_END.items():
        lines.append(f"{w}: {name} = {doc['end_to_end'][name]:.4f} {unit}")
    lines.append(f"{w}: wall_s as measured, not scaled = "
                 f"{doc['measured_wall_s']:.4f} s")
    lines.append(f"{w}: fail_frac = {doc['fail_frac']:.4f} "
                 f"({doc['failed']} of {doc['attempted']} jobs)")
    lines.extend(f"{w}: FAILED {p}" for p in doc["problems"])
    if w == "entropy" and doc["outputs"]["two-frequency"]:
        lines.append(f"{w}: count table (rows horizon, columns epsilon) "
                     f"{doc['outputs']['two-frequency']['counts']}")
    if "per_layer" in doc:
        for name, (unit, _) in spec.PER_LAYER.items():
            lines.append(f"{w}: {name} = {doc['per_layer'][name]:.6g} {unit}")
    lines.append(f"{w}: provenance {json.dumps(doc['provenance'])}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced and write "
                         "the results to .perfbench_out/all-seed<seed>.json")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    try:
        if args.all:
            record = {}
            for workload in spec.WORKLOADS:
                for trace in (0, 1):
                    doc = run_workload(workload, args.seed, args.seconds, trace)
                    print("\n".join(describe(doc)), flush=True)
                    record[f"{workload}-trace{trace}"] = doc
            path = os.path.join(OUT_DIR, f"all-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
            return 0 if all(d["correct"] for d in record.values()) else 1
        if args.workload is None:
            ap.error("--workload is required unless --all or --write-spec")
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(describe(doc)))
    print(json.dumps(result_line(doc, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
