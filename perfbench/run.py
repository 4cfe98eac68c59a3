#!/usr/bin/env python3
"""The descend repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload doc-skip --seed 1 --seconds 20 --trace 0

Builds the library, descend-cli and the perfbench tool from the sources
in this checkout (Release, into $CARGO_TARGET_DIR or .bench_build), sets
the workload up SETUP_REPEATS times (setup_s is the median), measures for
--seconds in as many slices, one after each set-up, checks every output
against an oracle, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the in-process traced run (perfbench layers) and reports the per-layer
metrics. A full report, with the machine fingerprint, the exactly-repeating
counts and the per-layer self times, goes to <build>/reports/. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

WORKLOADS = ("doc-skip", "doc-dense", "stream-multi")
# setup_s is the median of this many set-ups. The traced run reports no
# setup_s and sets up once.
SETUP_REPEATS = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log):
    """Runs a build step, its output into the log; exits on failure."""
    with open(log, "a") as out:
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build step failed: " + " ".join(cmd))


def build(build_root):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or not os.path.isdir("tools"):
        fail("run from the root of a descend checkout (src/ and tools/ not found)")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_root, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], log)
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target", "descend-cli", "perfbench"], log)
    return {"descend-cli": os.path.join(build_dir, "tools", "descend-cli"),
            "perfbench": os.path.join(build_dir, "perfbench")}


def fingerprint(bins, build_root):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fp = {"cpu_model": cpu, "nproc": os.cpu_count()}
    fp.update(json.loads(subprocess.run([bins["perfbench"], "fingerprint"], check=True,
                                        capture_output=True, text=True).stdout))
    with open(os.path.join(build_root, "perfbench", "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                fp["build_type"] = line.split("=", 1)[1].strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    if git.returncode == 0:
        fp["commit"] = git.stdout.strip()
    else:
        # Not a git checkout: identify the sources by content instead.
        digest = hashlib.sha256()
        for top in ("src", "tools"):
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        fp["commit"] = "source-sha256:" + digest.hexdigest()[:16]
    return fp


def timed_process(cmd, capture):
    """Runs one process; returns (seconds, exit code, stdout, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read() if capture else b""
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        proc.stdout.close()
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024.0


def set_up(args, bins, work):
    """One set-up: generates the inputs, writes them and warms the CLI up.

    Returns the seconds it took and the manifest. Deleting the previous
    set-up's files comes before the clock starts, and flushing the new ones
    to disk after it stops, so that their write-back does not fall into a
    measurement.
    """
    subprocess.run(["rm", "-rf", work], check=True)
    start = time.perf_counter()
    subprocess.run([bins["perfbench"], "setup", "--workload", args.workload, "--dir", work,
                    "--seed", str(args.seed)], check=True)
    manifest = read_json(os.path.join(work, "manifest.json"))
    # One CLI run, so the binary and the first input are paged in.
    if "queries" in manifest:
        first = manifest["queries"][0]
        cmd = ["--count", first["query"], manifest["datasets"][first["dataset"]]["path"]]
    else:
        cmd = ["--ndjson", "--count", "$.products.*.sku", manifest["stream"]]
    timed_process([bins["descend-cli"]] + cmd, False)
    seconds = time.perf_counter() - start
    os.sync()
    return seconds, manifest


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_queries(path):
    """The queries of a --queries file, one per line."""
    with open(path) as f:
        return [line for line in f.read().splitlines() if line]


def load_oracle(args, bins, work, cache):
    """The expected answers, from the files perfbench oracle names."""
    proc = subprocess.run([bins["perfbench"], "oracle", "--workload", args.workload,
                           "--dir", work, "--cache", cache, "--seed", str(args.seed)],
                          check=True, capture_output=True, text=True)
    oracle = {}
    for path in proc.stdout.split():
        oracle.update(read_json(path))
    return oracle


def parse_count(out):
    """The count descend-cli printed, or -1 if it printed something else."""
    try:
        return int(out)
    except ValueError:
        return -1


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def value_at(data, offset):
    """The JSON value starting at a byte offset, parsed independently.
    Raises ValueError if there is none."""
    decoder = json.JSONDecoder()
    window = 1 << 20
    while True:
        text = data[offset:offset + window].decode("utf-8", errors="surrogateescape")
        try:
            return decoder.raw_decode(text)[0]
        except json.JSONDecodeError:
            if offset + window >= len(data):
                raise
            window *= 8


class Passes:
    """Timed passes of descend-cli, one process at a time.

    jobs are (key, argv, input bytes, expected stdout count or None). A pass
    runs every job once, in a seed-shuffled order. throughput_gbps is the
    median over passes. The mix has a few queries of very different cost, so
    a pooled median can fall in the gap between two of them: latency_ms_p50
    is the median over jobs of each job's median wall time. latency_ms_p99
    is pooled over every invocation.
    """

    def __init__(self, seed, jobs):
        self.rng = random.Random(seed)
        self.jobs = jobs
        self.pass_gbps, self.rss, self.invocations = [], [], []
        self.attempted = self.failed = 0

    def run_for(self, seconds):
        """Runs passes for about the given seconds, at least one: another
        pass starts while more than half a pass's time is left."""
        deadline = time.perf_counter() + seconds
        while True:
            order = self.jobs[:]
            self.rng.shuffle(order)
            wall = 0.0
            total = 0
            for key, argv, size, expected in order:
                seconds, code, out, peak = timed_process(argv, expected is not None)
                self.attempted += 1
                ok = code == 0 and (expected is None or parse_count(out) == expected)
                self.failed += 0 if ok else 1
                self.invocations.append((key, seconds * 1e3))
                self.rss.append(peak)
                wall += seconds
                total += size
            self.pass_gbps.append(total / wall * 1e-9)
            if deadline - time.perf_counter() < wall / 2:
                return

    def metrics(self):
        per_job = {}
        for key, ms in self.invocations:
            per_job.setdefault(key, []).append(ms)
        return {
            "throughput_gbps": statistics.median(self.pass_gbps),
            "latency_ms_p50": statistics.median(statistics.median(v) for v in per_job.values()),
            "latency_ms_p99": percentile([ms for _, ms in self.invocations], 0.99),
            "peak_rss_mb": max(self.rss),
        }


def doc_mode(workload):
    return "--count" if workload == "doc-skip" else "--project=ndjson"


def cli_jobs(args, bins, manifest, oracle):
    """doc-*: one descend-cli run per query and 64 MB document, its count
    checked on doc-skip (doc-dense output is checked after the passes).
    stream-multi: one descend-cli --ndjson run per query set."""
    if args.workload == "stream-multi":
        return [(name, [bins["descend-cli"], "--ndjson", "--count", "--queries", info["path"],
                        manifest["stream"]],
                 manifest["bytes"], sum(oracle[q] for q in read_queries(info["path"])))
                for name, info in sorted(manifest["sets"].items())]
    datasets = manifest["datasets"]
    skip = args.workload == "doc-skip"
    return [(q["id"], [bins["descend-cli"], doc_mode(args.workload), q["query"],
                       datasets[q["dataset"]]["path"]],
             datasets[q["dataset"]]["bytes"], oracle[q["id"]]["count"] if skip else None)
            for q in manifest["queries"]]


def check_values(bins, manifest, oracle, report):
    """doc-dense, untimed: every projected value stream against the DOM
    oracle (match count, and the sampled values parsed independently)."""
    datasets = manifest["datasets"]
    failed = 0
    for q in manifest["queries"]:
        with open(datasets[q["dataset"]]["path"], "rb") as f:
            data = f.read()
        expected = oracle[q["id"]]
        samples_at = {index: offset for index, offset in expected["sample"]}
        proc = subprocess.Popen([bins["descend-cli"], doc_mode("doc-dense"), q["query"],
                                 datasets[q["dataset"]]["path"]],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = 0
        ok = True
        for line in proc.stdout:
            if lines in samples_at:
                try:
                    ok = ok and json.loads(line) == value_at(data, samples_at[lines])
                except ValueError:
                    ok = False
            lines += 1
        proc.stdout.close()
        ok = proc.wait() == 0 and ok and lines == expected["count"]
        failed += 0 if ok else 1
        report.setdefault("checked_values", {})[q["id"]] = {
            "lines": lines, "expected": expected["count"], "ok": ok}
    return len(manifest["queries"]), failed


def check_sets(bins, manifest, oracle, report):
    """stream-multi, untimed: per-query counts against the per-record oracle."""
    failed = 0
    for name, info in manifest["sets"].items():
        qs = read_queries(info["path"])
        proc = subprocess.Popen([bins["descend-cli"], "--ndjson", "--offsets", "--queries",
                                 info["path"], manifest["stream"]],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        counts = [0] * len(qs)
        for line in proc.stdout:
            counts[int(line.split(b" ", 2)[1])] += 1
        proc.stdout.close()
        ok = proc.wait() == 0 and counts == [oracle[q] for q in qs]
        failed += 0 if ok else 1
        report.setdefault("checked_sets", {})[name] = ok
    return len(manifest["sets"]), failed


def measure(args, bins, work, cache, report):
    """Sets the workload up SETUP_REPEATS times and, after each set-up, runs
    passes for an equal share of --seconds. On a shared VM the machine has
    slow and fast spells of tens of seconds; spreading the passes over the
    whole run averages more of them than one block of --seconds would, at
    no cost in run time. setup_s is the median set-up."""
    setup_times = []
    passes = None
    for _ in range(SETUP_REPEATS):
        seconds, manifest = set_up(args, bins, work)
        setup_times.append(seconds)
        if passes is None:
            oracle = load_oracle(args, bins, work, cache)
            passes = Passes(args.seed, cli_jobs(args, bins, manifest, oracle))
        passes.run_for(args.seconds / SETUP_REPEATS)
    report.update({"setup_runs_s": setup_times, "pass_gbps": passes.pass_gbps,
                   "invocations": passes.invocations,
                   "latency_samples": len(passes.invocations)})
    attempted, failed = passes.attempted, passes.failed
    if args.workload != "doc-skip":
        check = check_sets if args.workload == "stream-multi" else check_values
        checked, wrong = check(bins, manifest, oracle, report)
        attempted += checked
        failed += wrong
    values = passes.metrics()
    values["setup_s"] = statistics.median(setup_times)
    return attempted, failed, values


def traced_run(args, bins, work, manifest, oracle, report):
    """perfbench layers; its in-process answers checked like the CLI's."""
    spans = os.path.join(work, "spans.jsonl")
    proc = subprocess.run([bins["perfbench"], "layers", "--workload", args.workload,
                           "--dir", work, "--seed", str(args.seed), "--spans", spans],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail("traced run failed: " + proc.stderr)
    layers = json.loads(proc.stdout)
    report["trace"] = layers["trace"]
    report["counts"] = layers["counts"]
    if args.workload == "stream-multi":
        checks = [layers["counts"]["sets"][name]["matches"] ==
                  [oracle[q] for q in read_queries(info["path"])]
                  for name, info in manifest["sets"].items()]
    else:
        checks = [layers["counts"]["matches"][q["id"]] == oracle[q["id"]]["count"]
                  for q in manifest["queries"]]
    # The serve probe exits non-zero on the first answer that disagrees with
    # a direct run, so reaching here means every one of them matched.
    checks += [True] * layers["counts"]["serve_answers_checked"]
    return len(checks), checks.count(False), layers["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = read_json("BENCHMARK.json")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bins = build(build_root)
    work = os.path.join(build_root, "work", args.workload)
    cache = os.path.join(build_root, "oracle")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(bins, build_root)}
    if args.trace:
        seconds, manifest = set_up(args, bins, work)
        report["setup_runs_s"] = [seconds]
        oracle = load_oracle(args, bins, work, cache)
        attempted, failed, values = traced_run(args, bins, work, manifest, oracle, report)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = measure(args, bins, work, cache, report)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update({"attempted": attempted, "failed": failed, "error_rate": failed / attempted,
                   "metrics": metrics})
    os.makedirs(os.path.join(build_root, "reports"), exist_ok=True)
    report_path = os.path.join(build_root, "reports", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    print("fingerprint: " + json.dumps(report["fingerprint"]))
    if args.trace:
        print("self_ms: " + json.dumps(report["trace"]["self_ms"]))
        print("tracing overhead: %.3f ms per pass" % report["trace"]["overhead_ms"])
        print("counts: " + json.dumps(report["counts"]))
    print("error_rate: %d/%d; report: %s" % (failed, attempted, report_path))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
