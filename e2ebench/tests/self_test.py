#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 e2ebench/tests/self_test.py

Checks that
  * the benchmark's sources include nothing from src/jit/ or src/cluster/
    (both may be deleted without touching the benchmark);
  * the metric names and units a run prints are the ones BENCHMARK.json
    lists, for --trace 0 and --trace 1;
  * the serve-journal journal directory is gone after a run, a traced
    run and a run that fails part-way, and a killed run's directory is
    gone after the next run.
"""
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(HERE)
ROOT = os.path.dirname(PACKAGE)
RUN = os.path.join(PACKAGE, "run.py")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(out_dir, *args):
    cmd = [sys.executable, RUN, *args, "--out-dir", out_dir]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def sources_avoid_jit_and_cluster():
    pattern = re.compile(r'#\s*include\s*[<"](jit|cluster)/|\b(jit|cluster)::')
    hits = []
    for dirpath, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp")):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                for number, line in enumerate(f, 1):
                    if pattern.search(line):
                        hits.append(f"{os.path.relpath(path, ROOT)}:{number}")
    check(not hits, "sources use nothing from src/jit/ or src/cluster/ "
          + " ".join(hits))


def metrics_match_benchmark_json(out_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = run(out_dir, "--workload", "serve-live", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
        check(result.returncode == 0, f"serve-live --trace {trace} exits 0")
        last = json.loads(result.stdout.strip().splitlines()[-1])
        check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace} result has exactly the four keys")
        check(last["correct"] and last["failed"] == 0,
              f"--trace {trace} outputs are correct")
        printed = {k: v["unit"] for k, v in last["metrics"].items()}
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(printed == listed,
              f"--trace {trace} prints exactly the {key} metrics and units")


def journal_dirs(out_dir):
    tmp = os.path.join(out_dir, "tmp")
    return os.listdir(tmp) if os.path.isdir(tmp) else []


def journal_dir_removed(out_dir):
    result = run(out_dir, "--workload", "serve-journal", "--seed", "4",
                 "--seconds", "1", "--trace", "0")
    check(result.returncode == 0, "serve-journal run exits 0")
    check(journal_dirs(out_dir) == [], "journal directory removed after a run")

    result = run(out_dir, "--workload", "serve-journal", "--seed", "4",
                 "--seconds", "1", "--trace", "1")
    check(result.returncode == 0, "traced serve-journal run exits 0")
    check(journal_dirs(out_dir) == [],
          "journal directory removed after a traced run")
    with open(os.path.join(out_dir, "trace-serve-journal.json")) as f:
        events = json.load(f)["traceEvents"]
    check(events and all(e["ph"] == "X" for e in events),
          "traced run wrote Chrome trace events")

    result = run(out_dir, "--workload", "serve-journal", "--seed", "4",
                 "--seconds", "1", "--trace", "0", "--fail-after", "40")
    check(result.returncode != 0, "a run failing part-way exits non-zero")
    check('"correct"' not in result.stdout, "a failed run prints no result")
    check(journal_dirs(out_dir) == [],
          "journal directory removed after a failed run")

    # A killed run cannot clean up after itself; the next run does.
    binary = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
    killed = subprocess.Popen(
        [binary, "--workload", "serve-journal", "--seed", "4", "--seconds",
         "30", "--trace", "0", "--out-dir", out_dir],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    deadline = time.time() + 60
    while not journal_dirs(out_dir) and time.time() < deadline:
        time.sleep(0.05)
    killed.send_signal(signal.SIGKILL)
    killed.wait()
    check(journal_dirs(out_dir) != [], "a killed run leaves its directory")
    result = run(out_dir, "--workload", "serve-journal", "--seed", "4",
                 "--seconds", "1", "--trace", "0")
    check(result.returncode == 0 and journal_dirs(out_dir) == [],
          "the next run removes a killed run's directory")


def main():
    sources_avoid_jit_and_cluster()
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        metrics_match_benchmark_json(out_dir)
        journal_dir_removed(out_dir)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
