"""Regenerate ``golden.json``: the row digest of every workload input set.

Usage, from the checkout root::

    PYTHONPATH=src python3 -m perfbench.golden            # every workload
    PYTHONPATH=src python3 -m perfbench.golden dse        # one workload

Each workload's input sets run in one process, so all but the first
are served partly from warm caches; the benchmark's cold, disk-cold,
warm and disk-warm samples must reproduce these digests exactly.
Rerun this only when a change is meant to alter sweep outputs.
"""

import json
import sys
from pathlib import Path

from perfbench import workloads as wl

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main(names: list) -> int:
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names or list(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        table[name] = [wl.digest(workload.make_call(seed)())
                       for seed in range(wl.INPUT_SEEDS)]
        print(f"{name}: {wl.INPUT_SEEDS} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
