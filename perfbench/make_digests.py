"""Write the reference artifact digests the ``jobs-drain`` workload checks.

Each digest is the SHA-256 of ``encode_artifact(serial_artifact(spec))``
for one backlog variant: the chunkless, uncheckpointed path, so a
drained job must reproduce it through leases and checkpoints.
Regenerate only when a job kind's specification deliberately changes::

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.common import SRC  # noqa: E402

sys.path.insert(0, SRC)

from perfbench.drain import (DIGESTS, KINDS, VARIANTS, build_spec,  # noqa
                             digest, variant_params)


def main() -> None:
    from repro.jobs.executor import encode_artifact, serial_artifact

    digests = {}
    for kind in KINDS:
        for variant in range(VARIANTS[kind]):
            spec = build_spec(kind, variant_params(kind, variant))
            digests[f"{kind}-{variant}"] = digest(
                encode_artifact(serial_artifact(spec)))
            print(f"{kind}-{variant}", digests[f"{kind}-{variant}"])
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
