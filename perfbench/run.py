#!/usr/bin/env python3
"""Build the node and the benchmark from this checkout, then run one workload.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark program (see perfbench/main.go).
Builds, the Go build cache, CPU profiles and detailed results all stay under
.bench_build/ at the root of the checkout. Build output goes to standard
error; a failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "PPROF_TMPDIR": os.path.join(BUILD, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    return env


def source_digest():
    """SHA-256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit(env):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env, bindir):
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "dynamoth-node"), "./cmd/dynamoth-node"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bindir = os.path.join(BUILD, "bin")
    if not build(env, bindir):
        return 1
    env["PERFBENCH_GIT_COMMIT"] = git_commit(env)
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    bench = os.path.join(bindir, "perfbench")
    args = [bench] + sys.argv[1:] + [
        "-node-bin", os.path.join(bindir, "dynamoth-node"),
        "-out-dir", os.path.join(BUILD, "results"),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(bench, args, env)


if __name__ == "__main__":
    sys.exit(main())
