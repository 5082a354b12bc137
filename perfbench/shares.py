#!/usr/bin/env python3
"""Measure how the draws of the benchmark's input families spread over
their work proxy, and write the strata the ladders use.

    python3 perfbench/shares.py [--draws N] [--seed S]

Run it from the root of a source checkout. It draws N accepted instances
from each family with the draw functions of ``workloads.py``, splits the
family's proxy range at quantiles into ``workloads.BINS`` strata (fewer
where proxy values tie), and writes each stratum's lower bound and share of
the draws to ``perfbench/strata.json``. Draws above the family's
``workloads.LIMIT`` are counted (``limit_share``) and left out of the strata.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import workloads

FAMILIES = {
    "solve": workloads.draw_solve,
    "rewrite": workloads.draw_rewrite,
    "audit-pure": lambda rng: workloads.draw_audit(rng, "audit-pure"),
    "audit-mixture": lambda rng: workloads.draw_audit(rng, "audit-mixture"),
}


def measure(draw, draws: int, seed: int, bins: int, limit) -> dict:
    rng = random.Random(seed)
    proxies = []
    while len(proxies) < draws:
        d = draw(rng)
        if d is not None:
            proxies.append(d[0])
    kept = sorted(p for p in proxies if limit is None or p <= limit)
    cuts = sorted({kept[k * len(kept) // bins] for k in range(bins)})
    counts = [0] * len(cuts)
    for p in kept:
        counts[workloads.stratum(cuts, p)] += 1
    return {"limit_share": round(1 - len(kept) / draws, 4),
            "proxy_range": [kept[0], kept[-1]],
            "cuts": cuts,
            "shares": [round(n / len(kept), 4) for n in counts]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--seed", type=int, default=12345)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    families = {}
    for family, draw in FAMILIES.items():
        families[family] = measure(draw, args.draws, args.seed,
                                   workloads.BINS[family], workloads.LIMIT.get(family))
        print(family, json.dumps(families[family]))
    with open(workloads.STRATA_FILE, "w", encoding="utf-8") as fh:
        json.dump({"draws": args.draws, "seed": args.seed, "families": families},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
