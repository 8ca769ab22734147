"""Regenerate ``perfbench/expected.json``: the report fingerprints the
tuning workloads must reproduce and the column digests of the
in-process collections the collect sweep must match, for every input
seed in the pool.

    python3 perfbench/make_expected.py

Run it from the root of a checkout only when a change is meant to alter
what the tuner decides, and say so in the change's description; the
benchmark fails its output checks until the table matches the program.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED_PATH, SEED_POOL, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import collect_sweep
    import retune_sizes
    import tune_paper

    table = {tune_paper.NAME: {}, retune_sizes.NAME: {}, collect_sweep.NAME: {}}
    model_state = retune_sizes.fit_model()
    for seed in range(SEED_POOL):
        unit = tune_paper.tune_once(seed)
        table[tune_paper.NAME][str(seed)] = unit["fingerprint"]
        unit = retune_sizes.retune(model_state, seed)
        table[retune_sizes.NAME][str(seed)] = [
            s["fingerprint"] for s in unit["sizes"]
        ]
        table[collect_sweep.NAME][str(seed)] = [
            collect_sweep.columns_digest(t) for t in collect_sweep.collect_all(seed)
        ]
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
