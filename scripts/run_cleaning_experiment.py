#!/usr/bin/env python3
"""Does removing flagged anomalies sharpen the age-vs-branchiness signal?

For each seed: generate a strong-effect synthetic corpus, inject anomalies,
then compare per-region slope p-values before and after applying the repair
script.  Prints one row per seed and the fraction of (seed, region) cells
where cleaning lowered (or tied) the p-value.
"""

import argparse

from dlview.core import CorpusEntry, Region
from dlview.edit import apply_script
from dlview.stats import region_age_analysis
from dlview.synth import GenParams, generate_corpus, inject_corpus


def run_seed(seed: int, n_subjects: int, effect: float):
    base = GenParams(p0=1.35, decay=0.1)
    entries = generate_corpus(n_subjects, effect, seed, base_params=base)
    dirty, _truth, repairs = inject_corpus(entries, seed)
    covariates = {e.tree.subject_id: e.covariate for e in dirty}
    corpus = {(e.tree.subject_id, e.tree.region.value): e.tree for e in dirty}
    cleaned = apply_script(corpus, repairs)
    cleaned_entries = [CorpusEntry(t, covariates[s]) for (s, _), t in cleaned.items()]
    return region_age_analysis(dirty), region_age_analysis(cleaned_entries)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--subjects", type=int, default=100)
    ap.add_argument("--effect", type=float, default=0.005)
    args = ap.parse_args()

    improved = total = 0
    print("seed\t" + "\t".join(f"{r.label}_dirty\t{r.label}_clean" for r in Region))
    for seed in range(args.seeds):
        before, after = run_seed(seed, args.subjects, args.effect)
        cells = []
        for region in Region:
            pb, pa = before[region].p_value, after[region].p_value
            cells.append(f"{pb:.3g}\t{pa:.3g}")
            total += 1
            if pa <= pb:
                improved += 1
        print(f"{seed}\t" + "\t".join(cells))
    print(f"# cleaned <= dirty in {improved}/{total} cells "
          f"({100.0 * improved / total:.1f}%)")


if __name__ == "__main__":
    main()
