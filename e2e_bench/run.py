#!/usr/bin/env python3
"""End-to-end benchmark of the RSG generate, compact and serve paths.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload generate_large|compact_xy|serve_mix \
        --seed N --seconds S --trace 0|1

Builds the repository's libraries and the benchmark binary (e2e_bench.cpp) into
.bench_build/e2e_bench (a no-op when up to date), runs one workload in its
own process, checks every output against pins.json and the exact-repeat
guard, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json. The line before it starts with
"e2e-detail: " and holds the run metadata, the guarded quantities, the
per-input checksums, the tail percentile used and any metric the workload
reports beyond BENCHMARK.json's list (serve_mix's queue, run and cache
figures).

serve_mix runs here and in steadiness.py but is not one of BENCHMARK.json's
gated workloads: on a shared 4-vCPU host its run-to-run spread exceeded
every bound the gate allows (NOTES.md).

Exits 0 whenever it prints a result, correct or not; nonzero without a
result when it cannot run: no repository around it, a failed build, a
crashed or hung benchmark binary.

--update-pins rewrites pins.json from the outputs of this run; use it only
when a change to the program is meant to change its output bytes.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e_bench"
GUARD_FILE = ROOT / ".bench_build" / "e2e_guard.json"
PINS_FILE = HERE / "pins.json"
WORKLOADS = ("generate_large", "compact_xy", "serve_mix")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("CMakeLists.txt", "src", "designs", "cmake"):
        if not (ROOT / needed).exists():
            die(f"{needed} not found next to {HERE.name}/: run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's temporary files stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rsg_e2e_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd), 1)
    return BUILD / "rsg_e2e_bench"


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "designs", "cmake"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_pins(outputs, problems):
    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    for key, seen in sorted(outputs.items()):
        pin = pins.get(key)
        if pin is None:
            problems.append(f"{key}: no pinned checksum")
            continue
        for field in ("fnv1a64", "bytes", "boxes"):
            if pin[field] != seen[field]:
                problems.append(f"{key}: {field} {seen[field]} differs from pinned {pin[field]}")


def update_pins(outputs):
    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    for key, seen in outputs.items():
        pins[key] = {f: seen[f] for f in ("fnv1a64", "bytes", "boxes")}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
    PINS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def check_guard(key, quantities, problems):
    """Fails the run when a quantity that fixed work makes exact differs from
    an earlier run of the same binary, workload, length, mode and core count."""
    record = json.loads(GUARD_FILE.read_text()) if GUARD_FILE.exists() else {}
    earlier = record.get(key)
    if earlier is None:
        if problems:
            return  # record only a clean run as the reference
        record[key] = quantities
        GUARD_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return
    for name, value in quantities.items():
        if earlier.get(name) != value:
            problems.append(f"exact-repeat guard: {name} is {value}, an earlier run had "
                            f"{earlier.get(name)} (the work was not fixed)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        die("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    (ROOT / ".bench_build" / "traces").mkdir(parents=True, exist_ok=True)
    # Relative to the checkout root, the binary's working directory: short
    # enough for a unix socket path wherever the checkout lives.
    socket_path = os.path.join(".bench_build", f"e2e-{os.getpid()}.sock")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--socket", socket_path]
    if args.trace:
        cmd += ["--trace-out",
                str(ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if os.path.exists(ROOT / socket_path):
            os.unlink(ROOT / socket_path)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"rsg_e2e_bench exited with {proc.returncode}", 1)
    run = json.loads(lines[-1])

    problems = list(run["problems"])
    metrics = run["metrics"]
    want = expected_metrics(args.trace)
    for name, unit in want.items():
        if metrics.get(name, {}).get("unit") != unit:
            problems.append(f"{name}: not reported with unit {unit} as BENCHMARK.json names it")
    if args.update_pins:
        update_pins(run["outputs"])
    check_pins(run["outputs"], problems)
    meta = dict(run["meta"])
    meta.update(nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
                commit=commit(), source_digest=source_digest())
    quantities = dict(run["guard"], attempted=run["attempted"], failed=run["failed"])
    guard_key = (f"{args.workload}|seconds={args.seconds}|trace={args.trace}"
                 f"|cores={meta['hardware_concurrency']}|binary={file_digest(binary)[:16]}")
    check_guard(guard_key, quantities, problems)

    extra = {k: v for k, v in metrics.items() if k not in want}
    detail = {"meta": meta, "guard": quantities, "outputs": run["outputs"],
              "detail": run["detail"], "extra_metrics": extra, "problems": problems}
    print("e2e-detail: " + json.dumps(detail, sort_keys=True))
    for p in problems:
        print("e2e_bench: " + p, file=sys.stderr)
    # A run that produced a result exits 0 even when it is incorrect: the
    # verdict is the "correct" field. Nonzero means no result at all.
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: metrics[k] for k in want if k in metrics}}))


if __name__ == "__main__":
    main()
