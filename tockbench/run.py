#!/usr/bin/env python3
"""Build the benchmark binary from the checkout's sources and run one workload.

    python3 tockbench/run.py --workload beacon_fleet --seed 1 --seconds 30 --trace 0

The repository is configured once into .bench_build/tockbench as a
RelWithDebInfo build, with hook.cmake adding the binary to the repository's
own CMake project; later runs only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the binary's JSON result.
"""
import argparse
import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tockbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "tockbench-out")
WORKLOADS = ("syscall_storm", "beacon_fleet", "ota_lossy")
# Upper bound on one run: a stuck binary is killed and reaped after this.
RUN_TIMEOUT_S = 170
# personality(2) flag that turns off address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print("tockbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources (CMakeLists.txt, src/) beside " + HERE)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "tockbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "tockbench")


def fixed_layout():
    """Runs in the child before exec: turn off address-space randomisation.

    With it on, each process places its heap, stack and libraries at other
    addresses, so cache and branch-predictor aliasing, and with them the
    simulator's speed, differ from run to run by a few percent (README.md).
    Where the call is not allowed, the run goes on with randomisation.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (smoke test)")
    parser.add_argument("--perturb", action="store_true",
                        help="flip one fingerprint word; the run must report it")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--out", OUT_DIR, "--git-sha", git_sha()]
    if args.perturb:
        command.append("--perturb")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False,
                                preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("tockbench exceeded %d s and was killed" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
