#!/usr/bin/env python3
"""Build the TwigM benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload protein-path --seed 1 --seconds 10 --trace 0

The arguments are passed to the benchmark binary unchanged. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Build output goes to `$CARGO_TARGET_DIR` when it
is set, else to `perfbench/target`; traced runs write Chrome trace files
to `perfbench/out`. The script exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "twigm-perfbench")
    run = subprocess.run([binary] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
