#!/usr/bin/env python3
"""Build and run the stabreg benchmark, or compare two sets of its results.

Run from the root of the repository:

  python3 perfbench/run.py --workload register --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A run builds perfbench/main.exe with dune, runs one workload in its own
process, checks that the work counters equal those of any earlier run of
the same sources, workload and seed, appends the full result (metrics,
counters, nproc, OCaml version, git commit, seed) to
perfbench/_out/results.jsonl, prints every metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("register", "mc", "shard", "chaos")
RUN_LIMIT_S = 170  # the whole run, build excluded
BUILD_LIMIT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_proc(cmd, timeout, env=None):
    """Run cmd to completion (killed and reaped on timeout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            fail("%s timed out after %ds" % (cmd[0], timeout))
        return p.returncode, out, err


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    rc, out, err = run_proc(
        [dune, "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./%s/main.exe" % HERE],
        BUILD_LIMIT_S,
    )
    if rc != 0:
        sys.stderr.write(out + err)
        fail("build failed")
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    return os.path.join(build_dir, "default", HERE, "main.exe")


def source_digest():
    """Digest of every source the benchmark is built from."""
    h = hashlib.sha256()
    roots = ["dune-project", "lib", HERE]
    for root in roots:
        paths = [root] if os.path.isfile(root) else []
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            paths += [os.path.join(d, f) for f in files]
        for p in sorted(paths):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read() + b"\0")
    return h.hexdigest()


def git_commit():
    # only a repository rooted here, never one further up
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        rc, out, _ = run_proc(["git", "rev-parse", "HEAD"], 10, env)
    except OSError:
        return None
    return out.strip() if rc == 0 else None


def check_counters(res, key):
    """Same sources, workload and seed must give byte-identical counters."""
    path = os.path.join(OUT, "counters", key + ".json")
    blob = json.dumps(res["counters"], sort_keys=True)
    if os.path.exists(path):
        with open(path) as f:
            if f.read() != blob:
                res["correct"] = False
                res["problems"].append("counters differ from an earlier run: " + path)
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(blob)


def run(args):
    t0 = time.time()
    exe = build()
    digest = source_digest()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        cmd += ["--spans-out", os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    rc, out, err = run_proc(cmd, RUN_LIMIT_S)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        fail("benchmark exited with code %d" % rc)
    res = json.loads(lines[-1])
    if not args.trace:
        check_counters(res, "%s-%d-%s" % (args.workload, args.seed, digest[:16]))
    record = dict(res)
    record["run"].update(
        nproc=os.cpu_count(), commit=git_commit(), source_digest=digest,
        wall_s=time.time() - t0, unix_time=t0)
    with open(args.out, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for p in res["problems"]:
        print("INCORRECT: " + p)
    for name, m in res["metrics"].items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if res["correct"] else 1)


# --- compare ---------------------------------------------------------------


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(args):
    """Per (metric, workload): medians and quartiles of both sides, and the
    verdict of the choosing-metrics rule: a gain needs >= 9/10 of the
    seed-paired runs won and a median gap beyond the old side's IQR; a
    metric whose spread exceeds its bound is unresolved; a median worse by
    more than the bound is a regression; any rise in failed_share, in the
    median or on any seed, is flagged."""
    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old = [r for r in load(args.old) if r["run"]["trace"] == 0]
    new = [r for r in load(args.new) if r["run"]["trace"] == 0]
    bad = False
    print("%-8s %-15s %12s %12s %12s %12s %7s %7s %6s  %s" % (
        "workload", "metric", "old q1", "old med", "new med", "new q3",
        "old sp", "new sp", "wins", "verdict"))
    for wl in WORKLOADS:
        o_runs = {r["run"]["seed"]: r for r in old if r["run"]["workload"] == wl}
        n_runs = {r["run"]["seed"]: r for r in new if r["run"]["workload"] == wl}
        if not o_runs or not n_runs:
            continue
        seeds = sorted(set(o_runs) & set(n_runs))
        same = [s for s in seeds if o_runs[s]["counters"] == n_runs[s]["counters"]]
        print("%-8s counters identical on %d of %d shared seeds" % (wl, len(same), len(seeds)))
        for name, spec_m in bounds.items():
            ov = [r["metrics"][name]["value"] for r in o_runs.values()]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()]
            lower = spec_m["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            oq1, omed, oq3 = quartiles(ov)
            nq1, nmed, nq3 = quartiles(nv)
            osp = (oq3 - oq1) / omed if omed else float("inf")
            nsp = (nq3 - nq1) / nmed if nmed else float("inf")
            pairs = [(o_runs[s]["metrics"][name]["value"], n_runs[s]["metrics"][name]["value"]) for s in seeds]
            wins = sum(1 for o, n in pairs if better(n, o))
            bound = spec_m["bound"]
            worse_by = ((nmed - omed) if lower else (omed - nmed)) / omed if omed else 0.0
            if name == "failed_share" and (nmed > omed or any(n > o for o, n in pairs)):
                verdict = "FAILED_SHARE ROSE"
                bad = True
            elif osp > bound or nsp > bound:
                if all(better(n, o) for n in nv for o in ov):
                    verdict = "better (every run; spread over bound)"
                else:
                    verdict = "unresolved (spread over bound)"
            elif worse_by > bound:
                verdict = "REGRESSION (worse by %.1f%%)" % (100 * worse_by)
                bad = True
            elif pairs and wins >= 0.9 * len(pairs) and abs(nmed - omed) > (oq3 - oq1):
                verdict = "gain"
            else:
                verdict = "no change beyond bound"
            print("%-8s %-15s %12.5g %12.5g %12.5g %12.5g %6.1f%% %6.1f%% %3d/%-2d  %s" % (
                wl, name, oq1, omed, nmed, nq3, 100 * osp, 100 * nsp, wins, len(pairs), verdict))
    sys.exit(1 if bad else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        p.add_argument("--benchmark", default="BENCHMARK.json")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(OUT, "results.jsonl"))
    run(p.parse_args())


if __name__ == "__main__":
    main()
