"""Regenerate ``des_fig14.json``: Fig. 14 category matches per seed.

    python3 perfbench/reference/make_des_fig14.py

Records, for run seeds ``0..SEEDS-1``, how many of the eight services
the first ``des_study`` job (rep 0) puts in the paper's Fig. 14
category. That count is exact at a fixed seed, so ``des_study`` fails a
run whose first job matches fewer than its seed's recorded value. Later
jobs of a run, and seeds not recorded here, have no reference: their
counts are reported but not gated. Run it only on a commit whose DES
output is the intended reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from common import Outcome, require_source, sub_seed, work_dir  # noqa: E402

#: Run seeds recorded: ``0..SEEDS-1``.
SEEDS = 128


def main() -> int:
    require_source()
    import des_study

    api = des_study.load()

    def matches(seed: int) -> int:
        with work_dir("ref") as root:
            out = des_study.job(api, sub_seed(seed, "des", 0), root)
            return des_study.check(api, out, Outcome(), None)[
                "fig14_services_matched"]

    doc = {"slice_s": des_study.SLICE_S,
           "rep0_by_seed": {str(seed): matches(seed)
                            for seed in range(SEEDS)}}
    out = Path(__file__).with_name("des_fig14.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
