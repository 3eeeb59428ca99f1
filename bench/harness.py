"""Measurement loop, output checks and result lines of one benchmark run."""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import machine
import reference
import stages
import tracing
import workloads

# Set-up runs this many times per run, each in a fresh interpreter; the run
# reports the median.
SETUP_PROBES = 7
MIN_UNTRACED = 3
MIN_TRACED = 2
# The first session's task losses must match the recorded reference to this
# relative tolerance (BLAS threading may reorder sums).
REFERENCE_RTOL = 1e-6

# Every end-to-end metric a workload can report: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "task_loss": "loss",
    "baseline_loss": "loss",
    "train_s": "s",
    "predict_qps": "queries/s",
    "predict_one_p50_ms": "ms",
    "predict_one_p90_ms": "ms",
    "predict_one_samples": "count",
}


def _median_setup(args, root):
    """Median wall time of fresh processes that import, build inputs and warm up."""
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    return statistics.median(times)


def measure(wl, seconds, tracer=None):
    """Run sessions until `seconds` have passed and enough were taken.

    With a tracer, untraced and traced sessions alternate, starting untraced.
    """
    sessions = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(sessions) % 2 == 1
        tally = workloads.Tally()
        if traced:
            tracer.begin_session()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.session(tally)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        sessions.append({"wall": wall, "traced": traced, "tally": tally, "out": out,
                         "layer": tracer.end_session(wall) if traced else None})
        n_traced = sum(s["traced"] for s in sessions)
        if (time.perf_counter() >= deadline and len(sessions) - n_traced >= MIN_UNTRACED
                and n_traced >= (MIN_TRACED if tracer else 0)):
            return sessions


def check_losses(sessions, expected):
    """Every session must reproduce the first one's losses, and the first the
    recorded reference when there is one.  Returns (attempted, failed, errors)."""
    attempted, failed, errors = 0, 0, []
    keys = ("task_loss", "baseline_loss")
    first = {k: sessions[0]["out"].get(k) for k in keys}
    for i, s in enumerate(sessions[1:], 1):
        attempted += 1
        got = {k: s["out"].get(k) for k in keys}
        if got != first:
            failed += 1
            errors.append(f"session {i} losses {got} differ from session 0 {first}")
    if expected is not None:
        attempted += 1
        bad = [k for k, want in expected.items()
               if first.get(k) is None
               or abs(first[k] - want) > REFERENCE_RTOL * max(abs(want), 1e-12)]
        if bad:
            failed += 1
            errors.append(f"{bad} = {[first.get(k) for k in bad]}, reference "
                          f"{[expected[k] for k in bad]}")
    return attempted, failed, errors


def end_to_end(wl, sessions, setup_s, attempted, failed):
    untraced = [s for s in sessions if not s["traced"]]
    first = sessions[0]["out"]
    m = {
        # The mean, not the median: on a shared host the speed shifts for
        # stretches of several sessions, and a run's median jumps between them.
        "wall_s": statistics.fmean(s["wall"] for s in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    if setup_s is not None:
        m["setup_s"] = setup_s
    for key in ("task_loss", "baseline_loss"):
        if key in first:
            m[key] = first[key]
    outs = [s["out"] for s in untraced
            if {"train_s", "predict_s"} <= s["out"].keys() and s["out"].get("one_ms")]
    if outs:
        m["train_s"] = statistics.median(o["train_s"] for o in outs)
        m["predict_qps"] = wl.queries / statistics.median(o["predict_s"] for o in outs)
        one = [v for o in outs for v in o["one_ms"]]
        m["predict_one_p50_ms"] = float(np.percentile(one, 50))
        m["predict_one_p90_ms"] = float(np.percentile(one, 90))
        m["predict_one_samples"] = len(one)
    return m


def per_layer(sessions):
    traced = [s for s in sessions if s["traced"]]
    untraced = [s for s in sessions if not s["traced"]]
    layers = [s["layer"] for s in traced]
    m = {}
    for name, _, _ in stages.per_layer_catalogue():
        m[name] = statistics.median(layer.get(name, 0) for layer in layers)
    for name, num, base in stages.RATIOS:
        total = sum(layer.get(base, 0) for layer in layers)
        m[name] = sum(layer.get(num, 0) for layer in layers) / total if total else 0.0
    m["bench.traced_wall_s"] = statistics.fmean(s["wall"] for s in traced)
    m["bench.untraced_wall_s"] = statistics.fmean(s["wall"] for s in untraced)
    m["bench.trace_overhead_s"] = m["bench.traced_wall_s"] - m["bench.untraced_wall_s"]
    return m


def main(args, root):
    spec_path = os.path.join(root, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        bound = stages.resolve()
    except stages.StageMapError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            wl = workloads.make(args.workload, args.seed, workdir)
            wl.prepare()
            workloads.warmup(args.workload, args.seed, workdir)
            return 0
        setup_s = None if args.trace else _median_setup(args, root)
        wl = workloads.make(args.workload, args.seed, workdir)
        wl.prepare()
        workloads.warmup(args.workload, args.seed, workdir)
        tracer = tracing.Tracer(bound) if args.trace else None
        sessions = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = reference.load(os.path.join(root, "bench")).get(args.workload, {}).get(str(args.seed))
    ref_attempted, ref_failed, errors = check_losses(sessions, expected)
    attempted = sum(s["tally"].attempted for s in sessions) + ref_attempted
    failed = sum(s["tally"].failed for s in sessions) + ref_failed
    for s in sessions:
        errors.extend(s["tally"].errors)

    e2e = end_to_end(wl, sessions, setup_s, attempted, failed)
    if args.trace:
        layer = per_layer(sessions)
        wanted = [m["name"] for m in spec["per_layer"]]
        source = layer
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        layer = None
        wanted = [m["name"] for m in spec["end_to_end"]]
        source = e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [name for name in wanted if name not in source]
    if missing:
        print(f"bench: BENCHMARK.json lists metrics this run cannot produce: {missing}",
              file=sys.stderr)
        return 2

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sessions": len(sessions),
        "traced_sessions": sum(s["traced"] for s in sessions),
        "session_walls_s": [s["wall"] for s in sessions],
        "reference": "absent" if expected is None else "checked",
        "machine": machine.record(),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "per_layer": layer,
        "errors": errors[:20],
    }
    print(f"{args.workload} seed {args.seed}: {len(sessions)} sessions, "
          f"{attempted} operations, {failed} failed")
    for k, v in e2e.items():
        print(f"  {k} = {v:.6g} {E2E_UNITS[k]}")
    for e in errors[:5]:
        print(f"  error: {e}")
    print("detail: " + json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0
