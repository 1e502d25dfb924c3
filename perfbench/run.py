"""Cross-process fetch benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-lossy --seed 1 --seconds 20 --trace 0

The server runs in its own process (``perfbench/serve.py``), and a
client process (``perfbench/agent.py``) drives it as a mobile user
agent with closed-loop ``NetClient`` connections.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the exit code is non-zero when a
fetch returned wrong bytes or an illegitimate early stop.  See
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import orchestrator

    return orchestrator.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
