"""Survey random covering masks: how #L relates to shift-mask duality.

Draws seeded random masks whose refinable solutions are guaranteed to fit
a declared Fourier support, then tabulates, per (p, N, M) cell, how many
instances land within the #L <= p^N bound and whether every translate
admits a verified shift mask. The two columns must agree row by row; a
disagreement would be a counterexample to the duality criterion. A last
column counts the draws where the set rule p L in L, read off the L set,
agrees with the refinability the refinement residual decided.
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from padic_mra import check_mra, refinable_from_mask
from padic_mra.errors import SupportViolationError
from padic_mra.generators import random_covering_mask


def survey_cell(
    rng: np.random.Generator, p: int, N: int, M: int, trials: int
) -> dict[str, int]:
    out = Counter()
    done = 0
    while done < trials:
        mask = random_covering_mask(rng, p, N, M)
        try:
            phi = refinable_from_mask(mask, M)
        except SupportViolationError:
            out["regenerated"] += 1
            continue
        done += 1
        # axiom_a_ok covers every refined-window shift expansion, b = k/p^N:
        # under the count phi-hat's bins decide it with no solve, else every
        # roll is projected on one SVD of the window block.
        report = check_mra(phi)
        ls = report.lset
        dual = report.axiom_a_ok
        out["within_bound"] += ls.within_bound
        out["dual_ok"] += dual
        out["agree"] += ls.within_bound == dual
        out["set_rule"] += report.set_rule_ok == report.refinable
        out["lset_total"] += ls.size
    return dict(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25, help="instances per cell")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'p':>2} {'N':>2} {'M':>2} {'trials':>7} {'#L<=p^N':>8} {'dual ok':>8} {'agree':>6} {'mean #L':>8} {'set rule':>8}"
    print(header)
    print("-" * len(header))
    total_agree = total = 0
    for p in (2, 3):
        for N in range(3):
            for M in range(3):
                cell = survey_cell(rng, p, N, M, args.trials)
                total += args.trials
                total_agree += cell.get("agree", 0)
                print(
                    f"{p:>2} {N:>2} {M:>2} {args.trials:>7} "
                    f"{cell.get('within_bound', 0):>8} "
                    f"{cell.get('dual_ok', 0):>8} "
                    f"{cell.get('agree', 0):>6} "
                    f"{cell.get('lset_total', 0) / args.trials:>8.2f} "
                    f"{cell.get('set_rule', 0):>8}"
                )
    print("-" * len(header))
    print(f"duality agreement: {total_agree}/{total}")
    if total_agree != total:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
