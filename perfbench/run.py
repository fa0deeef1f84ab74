#!/usr/bin/env python3
"""Build and run the lao end-to-end benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds this package (the lao libraries from
src/ plus the benchmark driver) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later runs rebuild
only what changed. Traces of --trace 1 runs go to <that root>/traces.

The driver's output passes through unchanged; its last stdout line is the
JSON result. A failed build exits with status 2 without printing a result.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    code = subprocess.run(cmd, stdout=log,
                                          stderr=subprocess.STDOUT).returncode
                except OSError as err:
                    log.write(f"{err}\n")
                    code = 1
                if code != 0:
                    log.flush()
                    with open(log_path) as text:
                        sys.stderr.write(text.read()[-4000:])
                    sys.stderr.write("perfbench: build failed: "
                                     + " ".join(cmd) + "\n")
                    return None
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(os.path.join(root, "perfbench"))
    if driver is None:
        return 2
    cmd = [driver] + sys.argv[1:] + ["--trace-dir",
                                     os.path.join(root, "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
