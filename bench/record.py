"""Record the report digests that the benchmark compares against.

    python3 bench/record.py [workload ...]

Runs every seed offset of each workload once and writes the SHA-256 of its
serialized reports to ``bench/reference.json``.  The digests fix the report
bytes of the commit they were recorded at; re-record only for a change that
is meant to alter report bytes, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, digest  # noqa: E402


def main() -> int:
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    for name in sys.argv[1:] or WORKLOADS:
        wl = WORKLOADS[name]
        digests = {}
        for offset in range(wl.pool):
            payloads = wl.run(offset)
            problems = wl.check(payloads)
            if problems:
                print(f"{name} offset {offset}: {problems}", file=sys.stderr)
                return 1
            digests[str(offset)] = digest(payloads)
            print(f"{name} offset {offset}: {digests[str(offset)]}", flush=True)
        sizes = {k: v for k, v in vars(type(wl)).items() if isinstance(v, int)}
        reference[name] = {"config": wl.__doc__.strip(), "sizes": sizes, "digests": digests}
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
