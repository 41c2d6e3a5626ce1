#!/usr/bin/env python3
"""HatRPC two-clock benchmark.

Builds perfbench (the repository's libraries plus this directory's round
binary) and runs one workload for a given host time, then prints every
metric with its unit and sample count and, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 20 --trace 0

`--workload all` runs rpc-small, rpc-mix and kv-failover in turn, each for
--seconds, and prints one table and JSON line per workload.

Each round is one process that builds a fresh simulated cluster, warms it,
times a window and checks its outputs. Rounds cycle over a fixed set of
replicas, each with its own seed derived from --seed. Virtual-clock figures
are the median over the replicas and must repeat exactly whenever a replica
runs again. Host-clock figures are the median over every round run.
With --trace 1, traced and untraced rounds alternate: the per-layer metrics
come from the traced rounds, and the tracing overhead is the untraced
host_kops over the traced one, and the spans of the first traced round are
written to <build dir>/<workload>.spans.jsonl.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Replicas per workload: independent seeded experiments whose median is a
# run's virtual-clock figure. kv-failover's single crash makes one
# experiment noisy, so it gets more.
REPLICAS = {"rpc-small": 3, "rpc-mix": 3, "kv-failover": 5}

# Figures shown beside the contract metrics in the table.
EXTRA = ["fail_frac", "recovery_ms", "after_kops", "before_kops"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the round binary; returns its directory."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out


def replica_seed(seed, replica):
    digest = hashlib.sha256(f"{seed}/{replica}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_round(binary, workload, seed, traced, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"round {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(lines[-1])


def figures(rnd):
    return {f["name"]: f for f in rnd["figures"]}


def exact_values(rnd):
    return {f["name"]: f["value"] for f in rnd["figures"] if f["exact"]}


def aggregate(rounds, replicas):
    """Merges rounds of one mode: exact figures by median over replicas,
    host figures by median over rounds. Returns (table, problems)."""
    problems = []
    by_replica = {}
    for r, rnd in rounds:
        first = by_replica.setdefault(r, rnd)
        if exact_values(first) != exact_values(rnd):
            problems.append(f"replica {r}: virtual figures differ between "
                            "two runs of one seed")
    table = {}
    names = [f["name"] for f in rounds[0][1]["figures"]]
    for name in names:
        f0 = figures(rounds[0][1])[name]
        if f0["exact"]:
            picks = [figures(by_replica[r]).get(name) for r in range(replicas)
                     if r in by_replica]
            picks = [p for p in picks if p]
            values = [p["value"] for p in picks]
            samples = sum(p["samples"] for p in picks)
            over = f"median of {len(values)} replicas"
        else:
            values = [figures(rnd)[name]["value"] for _, rnd in rounds
                      if name in figures(rnd)]
            samples = sum(figures(rnd)[name]["samples"] for _, rnd in rounds
                          if name in figures(rnd))
            over = f"median of {len(values)} rounds"
        table[name] = {"value": statistics.median(values), "unit": f0["unit"],
                       "samples": samples, "over": over, "exact": f0["exact"]}
    return table, problems


def measure(binary, out, args, workload, spec):
    """Runs one workload for args.seconds; prints its table and JSON line.
    Returns whether every check passed."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    replicas = REPLICAS[workload]
    modes = [False, True] if args.trace else [False]
    rounds = {m: [] for m in modes}
    spans = os.path.join(out, f"{workload}.spans.jsonl")
    start = time.monotonic()
    i = 0
    while i < replicas * len(modes) or time.monotonic() - start < args.seconds:
        traced = modes[i % len(modes)]
        r = (i // len(modes)) % replicas
        keep = spans if traced and not rounds[True] else None
        rounds[traced].append((r, run_round(
            binary, workload, replica_seed(args.seed, r), traced, keep)))
        i += 1

    measured = rounds[bool(args.trace)]
    table, problems = aggregate(measured, replicas)
    failed_checks = []
    labels = {}
    for mode in modes:
        for _, rnd in rounds[mode]:
            labels.update(rnd["labels"])
            failed_checks += [f"{c['name']}: {c['detail']}"
                              for c in rnd["checks"] if not c["ok"]]
    if args.trace:
        untraced, more = aggregate(rounds[False], replicas)
        problems += more
        for name, fig in untraced.items():  # tracing must not move virtual time
            mine = table.get(name)
            if mine and fig["exact"] and mine["value"] != fig["value"]:
                problems.append(f"{name} differs between traced and "
                                "untraced rounds")
        ratio = untraced["host_kops"]["value"] / table["host_kops"]["value"]
        table["obs.trace_overhead"] = {
            "value": ratio,
            "unit": "x", "samples": len(measured),
            "over": "untraced/traced host_kops"}
        labels["spans"] = spans

    attempted = sum(rnd["attempted"] for _, rnd in measured)
    failed = sum(rnd["failed"] for _, rnd in measured)
    metrics = {}
    print(f"# {workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(measured)} replicas={replicas} "
          f"host={time.monotonic() - start:.1f}s")
    for key, value in sorted(labels.items()):
        print(f"  {key:<36} {value}")
    for m in wanted + [{"name": n} for n in EXTRA if n in table]:
        fig = table.get(m["name"])
        if fig is None:
            print(f"  {m['name']:<36} {'n/a':>14}")
        else:
            print(f"  {m['name']:<36} {fig['value']:>14.6g} {fig['unit']:<6}"
                  f" n={fig['samples']:<10} ({fig['over']})")
        if "unit" in m:
            metrics[m["name"]] = {"value": fig["value"] if fig else 0,
                                  "unit": m["unit"]}
    if not args.trace:
        problems += [f"{m['name']} not measured" for m in wanted
                     if m["name"] not in table]
    for p in failed_checks + problems:
        print(f"  CHECK FAILED {p}")
    correct = not failed_checks and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(REPLICAS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    if selftest.returncode != 0:
        log(selftest.stdout)
        log("perfbench: perfbench_selftest failed")
        return 2
    binary = os.path.join(out, "perfbench")
    workloads = list(REPLICAS) if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        ok = measure(binary, out, args, workload, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
