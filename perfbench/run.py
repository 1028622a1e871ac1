#!/usr/bin/env python3
"""Build and run vplan's end-to-end benchmark from this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the build's own output goes to
stderr), then replaces this process with it, run from the checkout
root.  The benchmark prints its result as the last line of standard
output; see perfbench/main.ml.
"""

import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

# Address-space cap for the benchmark process.  A plan that blows up
# then fails inside this process with an allocation error instead of
# exhausting the memory of a machine shared with other jobs.  The
# largest workload peaks under 1 GB resident.
ADDRESS_SPACE_BYTES = 4 << 30


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
