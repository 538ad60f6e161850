"""Benchmark entry point: set up, time and check one workload of ssc.

    python3 bench/run.py --workload cnn_fit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src and
all files are written under ./.bench_work. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import settings

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # a run must end within 180 s; leave room to report

# Metric names and units come from BENCHMARK.json, the one list of them.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def worker_env(spec: dict) -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(spec["blas_threads"])
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               SSC_PRECISION="32", PYTHONHASHSEED="0")
    return env


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the machine, to tell host contention apart."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def call_worker(phase: str, args, spec: dict, deadline: float, extra=(),
                sample_rss: bool = False) -> tuple[dict, int]:
    """Run one worker phase; returns (its JSON result, peak tree RSS in KiB)."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(args.work), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(spec), text=True)
    peak = [0]
    done = threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], tree_rss_kb(proc.pid))
            done.wait(0.02)

    sampler = threading.Thread(target=sample, daemon=True) if sample_rss else None
    if sampler:
        sampler.start()
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{phase} phase ran past the {DEADLINE_S} s deadline") from None
    finally:
        done.set()
        if sampler:
            sampler.join()
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{phase} phase printed no result")
    return json.loads(lines[-1]), peak[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(settings.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not Path("src/ssc/__init__.py").is_file():
        print("bench: no src/ssc here; run from the root of an ssc checkout", file=sys.stderr)
        return 2
    spec = settings.WORKLOADS[args.workload]
    args.work = Path(".bench_work") / args.workload

    try:
        setups = [call_worker("setup", args, spec, deadline)[0]["setup_s"]
                  for _ in range(spec["setup_repeats"])]
        ticks0 = cpu_ticks()
        result, sampled_kb = call_worker(
            "run", args, spec, deadline, sample_rss=True,
            extra=("--seconds", str(args.seconds), "--trace", str(args.trace)))
        ticks1 = cpu_ticks()
        verdict, _ = call_worker("check", args, spec, deadline)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    rounds = result["rounds"]
    plain = [r["elapsed"] for r in rounds if not r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = {name: found for name, found in verdict["checks"].items() if found}
    # Failed operations are reported in `failed`; `correct` speaks of the rest.
    correct = not problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    steal = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
    print(f"host cpu steal during the run phase: {100 * steal:.1f} %")
    print(f"rounds {len(rounds)}: " + ", ".join(
        f"{r['elapsed']:.3f}s{' traced' if r['traced'] else ''}" for r in rounds))
    print("quality " + json.dumps(verdict["info"], sort_keys=True))
    for name in verdict["checks"]:
        print(f"check {name}: {'FAIL' if name in problems else 'ok'}")
        for line in problems.get(name, []):
            print(f"    {line}")
    print(f"operations attempted {attempted}  failed {failed}")

    if args.trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        print("self times per traced round (name, calls, total s, self s):")
        for name, calls, total, self_s in result["self_times"]:
            print(f"    {name:32s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    else:
        peak_kb = max(sampled_kb, result["maxrss_kb"])
        values = {"setup_s": statistics.median(setups), "run_s": statistics.median(plain),
                  "peak_rss_mb": peak_kb * 1024 / 1e6}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
