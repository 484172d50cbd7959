#!/usr/bin/env python3
"""Runs the repository benchmark (see BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload session|hunt --seed N --seconds S --trace 0|1

Builds the benchmark if its sources changed (perfbench/build.py), then runs
one measurement in a single JVM with Spark in local mode on every core. The
last line of standard output is the JSON result. All files the run creates
stay under perfbench/target/, and the JVM is stopped before this script exits.
"""
import os
import signal
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# A run must end within 180 s; leave room for JVM shutdown.
RUN_TIMEOUT_S = 170


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main(argv):
    try:
        classpath, fp = build.build()
    except build.BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        return 2
    work = os.path.join(build.TARGET, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.work={work}",
           f"-Dperfbench.commit={commit()}",
           f"-Dperfbench.sources={fp[:12]}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", classpath, "perfbench.Bench"] + argv
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = threading.Event()

    def stop():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(RUN_TIMEOUT_S, stop)
    watchdog.start()
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if timed_out.is_set():
        print(f"run: stopped the JVM after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
