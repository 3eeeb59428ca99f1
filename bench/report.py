"""Run every workload and print every metric by name with its unit.

    python3 bench/report.py [--seeds 0-9] [--out bench/results/BENCH_<label>.json]

For each workload of BENCHMARK.json and each seed it runs `bench/run.py
--trace 0` in a fresh process, then one `--trace 1` run on the first seed.
It also runs robust-cv once with single-threaded OpenBLAS, as an ungated
diagnostic of the BLAS threading cost.  For each end-to-end metric it prints
the median over the seeds and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, the
figure the gate in BENCHMARK.json bounds.  Runs are sequential, so they do
not compete for cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace, env=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          env=None if env is None else {**os.environ, **env})
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": detail, "process_s": elapsed}


def spread(values):
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def summarize(runs):
    """Median, quartile spread and values of every end-to-end metric over runs."""
    names = []
    for r in runs:
        names.extend(k for k in r["detail"]["end_to_end"] if k not in names)
    out = {}
    for name in names:
        values = [r["detail"]["end_to_end"][name]["value"] for r in runs
                  if name in r["detail"]["end_to_end"]]
        out[name] = {"unit": runs[0]["detail"]["end_to_end"][name]["unit"],
                     "median": statistics.median(values), "spread": spread(values),
                     "values": values}
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=reference.parse_seeds, default=[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    report = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        summary = summarize(runs)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "reference": [r["detail"]["reference"] for r in runs],
            "process_s": [r["process_s"] for r in runs],
            "session_walls_s": [r["detail"]["session_walls_s"] for r in runs],
            "per_layer": traced["detail"]["per_layer"],
            "machine": runs[0]["detail"]["machine"],
        }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"failed={report['workloads'][workload]['failed']}"
              f"/{report['workloads'][workload]['attempted']}", flush=True)
        for name, s in summary.items():
            gate = f"  (gated, bound {bounds[name]})" if name in bounds else ""
            sp = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:22s} {s['median']:12.6g} {s['unit']:10s} spread {sp}{gate}",
                  flush=True)
        print(f"  trace overhead {traced['detail']['per_layer']['bench.trace_overhead_s']:.4g} s",
              flush=True)

    diag = run_once("robust-cv", args.seeds[0], seconds, 0, env={"OPENBLAS_NUM_THREADS": "1"})
    report["diagnostics"] = {"robust-cv, OPENBLAS_NUM_THREADS=1": {
        "end_to_end": diag["detail"]["end_to_end"],
        "machine": diag["detail"]["machine"]}}
    wall = diag["detail"]["end_to_end"]["wall_s"]["value"]
    print(f"robust-cv with single-threaded OpenBLAS (ungated): wall_s {wall:.4g} s")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
