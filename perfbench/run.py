"""Benchmark of the elltree command line over seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI job runs in a fresh `python -m elltree.cli` child, one at a
time, so each pays cold caches as a user does.  One operation is one
pass over the workload's jobs.  The untimed warm-up import compiles the
package's bytecode once.

--trace 0 repeats passes while the next one would still end within
--seconds (at least one pass) and reports the end-to-end metrics of
BENCHMARK.json: wall time, child CPU and peak RSS per pass as medians
over passes, and setup_s, the median of several fresh interpreters
importing elltree.cli.  Each pass runs under its own PYTHONHASHSEED,
and every repetition of a job must print what the first one printed.

--trace 1 makes one pass twice: untraced, then with each job inside
perfbench/traced.py, which times the calls into each module from
outside the package.  It reports the per-layer metrics of
BENCHMARK.json and requires the traced and untraced stdout digests to
be equal; the two run under different PYTHONHASHSEEDs.  Spans go to
.bench_build/perfbench/trace-*.jsonl.

Every output passes the job's oracle (see workloads.py).  The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics; the lines before it list every job and metric for a reader.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"

DEADLINE_S = 165  # the whole run, well inside the 180 s limit
SETUP_REPEATS = 9


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def hashseed(seed, repetition):
    return (seed * 1000003 + repetition + 1) % 2**32


class Child:
    """One finished child process: exit code, outputs, wall, CPU, RSS."""

    def __init__(self, argv, env, deadline):
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            self.timed_out = False
            try:
                status, usage = self._wait(proc, deadline - time.monotonic())
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - start
        self.rc = os.waitstatus_to_exitcode(status)
        proc.returncode = self.rc
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")

    def _wait(self, proc, timeout):
        # wait without reaping first, so a late timer cannot signal a reused pid
        lock = threading.Lock()
        done = False

        def expire():
            with lock:
                if not done:
                    self.timed_out = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                done = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        return status, usage

    def digest(self):
        return hashlib.sha256(self.stdout).hexdigest()

    def problem(self, job):
        if self.timed_out:
            return "timed out"
        try:
            return job.check(self.rc, self.stdout.decode("utf-8"), self.stderr)
        except (ValueError, KeyError, TypeError) as exc:
            return f"output is not the expected report: {exc!r}"[:300]


def cli_argv(job):
    return [sys.executable, "-m", "elltree.cli", *job.argv]


def check_package(deadline):
    """Warm-up import: compiles bytecode and proves the checkout's src is used."""
    probe = "import elltree.cli, sys; sys.stdout.write(elltree.cli.__file__)"
    child = Child([sys.executable, "-c", probe], child_env(0), deadline)
    if child.rc != 0:
        fail(f"cannot import elltree.cli from {SRC}: {child.stderr.strip()[-300:]}")
    if not Path(child.stdout.decode()).resolve().is_relative_to(SRC.resolve()):
        fail(f"elltree.cli resolved outside {SRC}: {child.stdout.decode()}")


def measure_setup(deadline):
    samples = []
    for i in range(SETUP_REPEATS):
        child = Child([sys.executable, "-c", "import elltree.cli"], child_env(i), deadline)
        if child.rc != 0:
            fail(f"import elltree.cli failed: {child.stderr.strip()[-300:]}")
        samples.append(child.wall_s)
    return samples


class Pass:
    """One operation: every job of the workload once, in order."""

    def __init__(self, jobs, seed_for_hash, reference, deadline, log):
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.refused = 0
        self.problems = []
        self.aborted = False
        for job in jobs:
            child = Child(cli_argv(job), child_env(seed_for_hash), deadline)
            self.wall_s += child.wall_s
            self.cpu_s += child.cpu_s
            self.rss_mb = max(self.rss_mb, child.rss_mb)
            self.refused += child.rc == 3
            problem = child.problem(job)
            seen = (child.rc, child.digest(), child.stderr)
            first = reference.setdefault(job.name, seen)
            if problem is None and seen != first:
                problem = (f"output differs from the first repetition "
                           f"(PYTHONHASHSEED={seed_for_hash})")
            log(f"  {job.name}: exit {child.rc}, {child.wall_s:.3f} s wall, "
                f"{child.cpu_s:.3f} s cpu, {child.rss_mb:.1f} MB, "
                f"sha256 {child.digest()[:16]}" + (f"  FAILED: {problem}" if problem else ""))
            if problem:
                self.problems.append(f"{job.name}: {problem}")
            if child.timed_out:
                self.aborted = True
                return


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(samples)[max(0, -(-pct * n // 100) - 1)]


def timed_run(jobs, seed, seconds, deadline, log):
    setup = measure_setup(deadline)
    passes, reference = [], {}
    start = time.monotonic()
    while True:
        log(f"pass {len(passes) + 1} (PYTHONHASHSEED={hashseed(seed, len(passes))})")
        op = Pass(jobs, hashseed(seed, len(passes)), reference, deadline, log)
        passes.append(op)
        elapsed = time.monotonic() - start
        if op.aborted or time.monotonic() + op.wall_s > deadline - 5:
            break
        if elapsed + op.wall_s > seconds:
            break
    walls = [p.wall_s for p in passes]
    tail = tail_percentile(walls)
    log(f"wall_s: median {statistics.median(walls)} s over n={len(walls)} passes; "
        + (f"p{tail[0]} {tail[1]} s" if tail else
           "no percentile has ten samples beyond it (needs n >= 11)"))
    failed = sum(1 for p in passes if p.problems)
    jobs_run = len(passes) * len(jobs)
    log(f"failed_frac: {failed}/{len(passes)} = {failed / len(passes)}")
    log(f"refused_frac: {sum(p.refused for p in passes)}/{jobs_run} = "
        f"{sum(p.refused for p in passes) / jobs_run}")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    return len(passes), failed, metrics


def traced_run(jobs, workload, seed, deadline, log):
    self_s, counters, spans = {}, {}, []
    covered = root_wall = 0.0
    untraced_wall = traced_wall = 0.0
    refused = 0
    problems = []
    for job in jobs:
        plain = Child(cli_argv(job), child_env(hashseed(seed, 0)), deadline)
        untraced_wall += plain.wall_s
        refused += plain.rc == 3
        problem = plain.problem(job)
        result_path = OUT / "traced.json"
        result_path.unlink(missing_ok=True)
        traced = Child([sys.executable, str(TRACED), str(result_path), job.name, *job.argv],
                       child_env(hashseed(seed, 1)), deadline)
        traced_wall += traced.wall_s
        if problem is None and (traced.rc != 0 or not result_path.exists()):
            problem = f"traced driver failed: {traced.stderr.strip()[-300:]}"
        if problem is None:
            res = json.loads(result_path.read_text(encoding="utf-8"))
            if (res["exit"], res["stdout_sha256"], res["stderr"]) != (
                    plain.rc, plain.digest(), plain.stderr):
                problem = "traced output differs from the untraced output"
            if res["missing"]:
                log(f"  {job.name}: hooks not found in the package: {res['missing']}")
            for (name, start, end, parent), own in zip(res["spans"], res["self_s"]):
                spans.append({"job": job.name, "name": name, "start": start,
                              "end": end, "parent": parent})
                if parent is not None:
                    self_s[name] = self_s.get(name, 0.0) + own
                    covered += own
            root_wall += res["wall_s"]
            for key, value in res["counters"].items():
                merge = max if key.endswith("max_cells") else (lambda a, b: a + b)
                counters[key] = merge(counters.get(key, 0), value)
            counters["cli.report_bytes"] = counters.get("cli.report_bytes", 0) + res["report_bytes"]
        log(f"  {job.name}: exit {plain.rc}, untraced {plain.wall_s:.3f} s, "
            f"traced {traced.wall_s:.3f} s" + (f"  FAILED: {problem}" if problem else ""))
        if problem:
            problems.append(problem)
        if plain.timed_out or traced.timed_out:
            break
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    log(f"spans written to {trace_path.relative_to(ROOT)}")
    metrics = {f"{name}.self_s": value for name, value in self_s.items()}
    metrics.update(counters)
    metrics["traced.coverage"] = covered / root_wall if root_wall else 0.0
    metrics["traced.overhead_s"] = traced_wall - untraced_wall
    metrics["failed_frac"] = 1.0 if problems else 0.0
    metrics["refused_frac"] = refused / len(jobs)
    return 1, 1 if problems else 0, metrics


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (SRC / "elltree" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'elltree'}; run from a checkout of the repository")
    OUT.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    def log(line):
        print(line, flush=True)

    log(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"git={git_sha()} python={platform.python_version()} nproc={os.cpu_count()}")
    check_package(deadline)
    jobs = workloads.make_jobs(args.workload, args.seed)
    for job in jobs:
        log(f"job {job.name}: elltree {' '.join(job.argv)}")
    if args.trace:
        attempted, failed, values = traced_run(jobs, args.workload, args.seed, deadline, log)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = timed_run(jobs, args.seed, args.seconds, deadline, log)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"metric {m['name']} = {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
