"""Set-up probe: a fresh interpreter imports susyqw.cli and runs a workload's warm-up.

    python3 bench/setup_probe.py <workload> <output directory>

``run.py`` times this process from launch to exit; the median over several
probes is the ``setup_s`` metric.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, outdir = argv
    sys.path.insert(0, str(SRC))
    from susyqw import cli
    from workloads import WORKLOADS, warm_up

    warm_up(cli.main, WORKLOADS[name], Path(outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
