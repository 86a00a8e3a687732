"""One fresh-process set-up, as a user pays it before the first solve.

Imports ``cograte.cli``, generates the workload's inputs and loads every
channel it will read.  ``run.py`` times whole runs of this script, from
process start to exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cograte.cli  # noqa: E402
from cograte.channel import load_channel  # noqa: E402

import inputs  # noqa: E402


def main(workload: str, seed: int, directory: str) -> None:
    texts = []
    for path in inputs.generate(workload, seed, directory).values():
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    for text in texts or [cograte.cli.bundled_channel_text()]:
        load_channel(text)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
