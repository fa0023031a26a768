"""Record the exact reference values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

Run it only on a commit whose outputs are trusted: the file pins the exact
counts R(n) and singular-series values of the `predict` target pool and the
exact moment counts that the `scan` workload checks.  The pool is 6 targets in each
of 50 equal strata of (5*10**6, 10**7], drawn from a fixed generator seed.
"""

import hashlib
import json
import sys

import numpy as np

from circleforge import moments
from circleforge.scan import predict

POOL_SEED = 1212_6150
POOL_LO, POOL_HI = 5 * 10**6, 10**7
POOL_STRATA, POOL_PER_STRATUM = 50, 6


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    width = (POOL_HI - POOL_LO) // POOL_STRATA
    targets = sorted(
        int(n)
        for j in range(POOL_STRATA)
        for n in rng.choice(np.arange(POOL_LO + j * width + 1, POOL_LO + (j + 1) * width + 1),
                            POOL_PER_STRATUM, replace=False)
    )
    rows = []
    for n in targets:
        rec = predict(n, 1000)
        rows.append([n, rec.R, rec.S_W, rec.tail_estimate])

    ms = moments.cube_multiplicity(3000)
    corr = moments.count_cube_sixth_correlation(10**8)
    moment_ref = {
        "sixth_power_eighth_moment_100": moments.sixth_power_eighth_moment(100).count,
        "cube_multiplicity_3000": [
            len(ms.members), ms.max_multiplicity,
            hashlib.blake2b(np.asarray(ms.members, dtype="<i8").tobytes()).hexdigest(),
        ],
        "count_cube_sixth_correlation_1e8": [corr.count, corr.parts],
    }
    # one pool row [n, R, S_W, tail_estimate] per line keeps the file diffable
    sys.stdout.write(
        '{\n "moments": ' + json.dumps(moment_ref, indent=1).replace("\n", "\n ")
        + ',\n "predict": {"W": 1000, "rows": [\n  '
        + ",\n  ".join(json.dumps(row) for row in rows)
        + "\n ]}\n}\n"
    )


if __name__ == "__main__":
    main()
