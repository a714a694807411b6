#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-fullsys --seed 1 --seconds 20 --trace 0

All build outputs (binary, Go build cache, module cache, tool config)
go under .bench_build/perfbench in the working directory. The arguments
are passed to the program unchanged; the program's exit code is this
script's exit code. If the build fails, the script exits 2 without
printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOENV": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # Free heap pages with MADV_FREE rather than MADV_DONTNEED, so memory
    # a forced collection hands back between iterations is not faulted in
    # again by the next one (replay-l2 took about 16 000 page faults per
    # iteration, and its run-to-run spread halved without them).
    run_env = dict(os.environ)
    run_env["GODEBUG"] = ",".join(filter(None, [run_env.get("GODEBUG"), "madvdontneed=0"]))
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
