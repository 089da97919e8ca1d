#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2e_bench/steadiness.py [--runs 10] [--first-seed 1]
        [--seconds S] [--workloads generate_large,compact_xy,serve_mix]
        [--trace 0|1]

Runs run.py --runs times per workload, each with another seed, one process
at a time, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread
(q3 - q1) / median, the range (max - min) / median, and the bound from
BENCHMARK.json. A spread above a third of its bound is marked "wide", above
the bound "NOISY" (setup_s is judged on its median only, so its spread is
shown but not marked).

It also fails when any run is incorrect, when the quantities of the
exact-repeat guard (area_ratio, cif_bytes_per_box, compact.rounds,
compact.constraints, lang.procedure_calls, rsg.cache_hit_ratio, attempted,
failed) differ between any two runs of a workload, or when the runs saw
different core counts. Exit status 0 only if every check passed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("e2e-detail: "):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode} without a result")
    return json.loads(lines[-1]), json.loads(lines[-2][len("e2e-detail: "):])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        results, details = [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, detail = one_run(workload, seed, args.seconds, args.trace)
            results.append(result)
            details.append(detail)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}, "
              f"--trace {args.trace}")
        meta = details[0]["meta"]
        print(f"  host: nproc={meta['nproc']} hardware_concurrency={meta['hardware_concurrency']} "
              f"sweep_threads={meta['sweep_threads']} compiler={meta['compiler']} "
              f"build={meta['build_type']} commit={meta['commit']} "
              f"source={meta['source_digest']}")
        if "tail_percentile" in details[0]["detail"]:
            tails = sorted({(d["detail"]["tail_percentile"], d["detail"]["tail_beyond"],
                             d["detail"]["samples"]) for d in details})
            print("  latency_ms_tail = p{} with {} samples beyond, of {} measured".format(
                *tails[0]) + ("" if len(tails) == 1 else f" (varies: {tails})"))
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'rng/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(values) - min(values)) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "NOISY" if iqr > bound else "wide" if iqr > bound / 3 else ""
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} {rng:8.4f} "
                  f"{'' if bound is None else bound:>6} {mark}")
        if not all(r["correct"] for r in results):
            ok = False
            print("  FAIL: some runs were incorrect")
        guards = {json.dumps(d["guard"], sort_keys=True) for d in details}
        if len(guards) != 1:
            ok = False
            print("  FAIL: exact-repeat quantities differ between runs:")
            for g in sorted(guards):
                print("    " + g)
        else:
            print("  exact-repeat quantities identical across runs: " + guards.pop())
        if len({(d["meta"]["nproc"], d["meta"]["hardware_concurrency"]) for d in details}) != 1:
            ok = False
            print("  FAIL: runs saw different core counts; their figures are not comparable")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
