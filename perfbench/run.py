#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary live in .bench_build/ at the
repository root, so the benchmark reads and writes nothing outside the
checkout. Arguments are passed to the binary unchanged; a failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
