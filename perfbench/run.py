#!/usr/bin/env python3
"""Run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-check

The first form builds perfbench/main.exe from source with dune (build
directory .bench_build), runs one workload, and prints as its last line
one JSON object with the metrics BENCHMARK.json names: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
report (every metric, sample counts, host record) goes to
perfbench/out/, as do the traced run's spans.

--all runs every workload untraced and traced and prints one table.
--self-check is the benchmark's own test: counts repeat exactly across
two runs with the same seed, and another seed changes the large routine.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

SPEC = "BENCHMARK.json"
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170

# One malloc arena.  serve-mix runs the server in a second thread of the
# benchmark process (ralloc serve runs it in its main thread); glibc gives
# that thread an arena of its own, whose fragmentation moved serve-mix's
# peak RSS by 10 MB from run to run.  Single-threaded workloads are not
# affected.
CHILD_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")

# Layers a workload does not reach: their per-layer metrics read 0 in
# that workload's traced run.
NOT_REACHED = {
    "kernels": ("serve.", "client."),
    "large": ("serve.", "client.", "core.chaitin.", "core.ssa.",
              "sim.chaitin.", "sim.ssa.", "frontend.", "opt."),
    "serve-mix": ("core.", "verify.", "iloc.", "frontend.", "opt.",
                  "sim.chaitin.", "sim.ssa.", "trace.glue_ms"),
}


class BenchError(Exception):
    pass


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError(f"build failed with exit code {r.returncode}")


def git_rev():
    """The checkout's revision, read from .git without leaving it."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_exe(args):
    """Run the benchmark program; return (report, stdout lines, peak RSS
    in MB).  Peak RSS is the child's own, from wait4."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         env=CHILD_ENV)
    timer = threading.Timer(RUN_TIMEOUT, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError(f"benchmark program exited with {p.returncode}")
    lines = out.splitlines()
    if not lines:
        raise BenchError("benchmark program printed nothing")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"unreadable result line: {e}")
    return report, lines[:-1], usage.ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, echo=True):
    """One run; returns (contract line, full report)."""
    with open(SPEC) as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(OUT_DIR, f"spans-{stem}.jsonl")]
    report, lines, rss_mb = run_exe(args)
    report["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    report["host"] = {"nproc": os.cpu_count(), "ocaml": report.get("ocaml"),
                      "git_rev": git_rev()}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = report["metrics"].get(name)
        if got is None and trace and name.startswith(NOT_REACHED[workload]):
            got = {"value": 0, "unit": unit}
        if got is None or got.get("value") is None:
            raise BenchError(f"{workload}: no value for metric {name}")
        if got["unit"] != unit:
            raise BenchError(
                f"{workload}: metric {name} in {got['unit']}, spec says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if echo:
        for line in lines:
            print(line)
        h = report["host"]
        print(f"# host: nproc={h['nproc']} ocaml={h['ocaml']} "
              f"rev={h['git_rev']}")
        print(f"# samples: {json.dumps(report['samples'], sort_keys=True)}")
        print(f"# failed_frac: {report['failed']}/{report['attempted']}")
        print(f"{'peak_rss_mb':36} {rss_mb:16.3f} MB")
    line = {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}
    return line, report


def run_all(seed, seconds):
    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    table = {}
    ok = True
    for w in names:
        for trace in (0, 1):
            line, _ = run_workload(w, seed, seconds, trace, echo=False)
            ok = ok and line["correct"]
            for k, v in line["metrics"].items():
                table.setdefault(k, {})[w] = v
            table.setdefault("failed_frac", {})[w] = {
                "value": line["failed"] / line["attempted"], "unit": "ratio"}
    print(f"{'metric':40}" + "".join(f"{w:>22}" for w in names))
    for k in sorted(table):
        row = table[k]
        unit = next(iter(row.values()))["unit"]
        print(f"{k:40}" + "".join(
            f"{row[w]['value']:22.6g}" if w in row else f"{'-':>22}"
            for w in names) + f"  {unit}")
    return ok


def self_check(seconds):
    """Counts repeat exactly across two same-seed runs on kernels and
    large; another seed changes the large routine."""
    problems = []

    def counts(report):
        return {k: v["value"] for k, v in report["metrics"].items()
                if k in ("cycles", "out_instrs")
                or (k.startswith("core.") and v["unit"] == "count")}

    digests = {}
    for workload in ("kernels", "large"):
        a = run_workload(workload, 1, seconds, 0, echo=False)[1]
        b = run_workload(workload, 1, seconds, 0, echo=False)[1]
        for r in (a, b):
            if not r["correct"]:
                problems.append(f"{workload}: run not correct: {r['failures']}")
        ca, cb = counts(a), counts(b)
        if not ca:
            problems.append(f"{workload}: no counts reported")
        for k in sorted(set(ca) | set(cb)):
            if ca.get(k) != cb.get(k):
                problems.append(
                    f"{workload}: {k} differs: {ca.get(k)} vs {cb.get(k)}")
        if a["inputs_digest"] != b["inputs_digest"]:
            problems.append(f"{workload}: same seed, different inputs")
        digests[workload] = a["inputs_digest"]
        print(f"{workload}: {len(ca)} counts compared across two runs")
    c = run_workload("large", 2, seconds, 0, echo=False)[1]
    if c["inputs_digest"] == digests["large"]:
        problems.append("large: seeds 1 and 2 give the same routine")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return not problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not os.path.isfile(SPEC):
        print(f"run from the repository root ({SPEC} not found)",
              file=sys.stderr)
        return 2
    try:
        build()
        if a.self_check:
            return 0 if self_check(1) else 1
        if a.all:
            return 0 if run_all(a.seed, a.seconds) else 1
        if not a.workload:
            ap.error("--workload, --all or --self-check is required")
        line, _ = run_workload(a.workload, a.seed, a.seconds, a.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
