#!/usr/bin/env python3
"""The NQC and UEF post-retrieval predictors on a toy corpus.

NQC reads retrieval quality off the spread of the top scores, normalized
by the score a whole-corpus pseudo-document would get. UEF instead asks
how stable the ranking is: it samples subsets of the top documents,
re-ranks the head with a relevance model built from each subset, and
weights each subset's NQC by the rank overlap with the original head.
Both read a run as the index ordinals of its documents and their scores.
"""

import numpy as np

from qvqpp import bm25_retrieve, build_index, collection_score, nqc, tokenize, uef
from qvqpp.text_index import ordinal_run

DOCS = [
    ("d1", "glacier ice flows slowly toward the terminus"),
    ("d2", "meltwater carves channels under the glacier ice"),
    ("d3", "a moraine marks the old edge of the glacier"),
    ("d4", "crevasse fields open where the ice bends"),
    ("d5", "fjords were cut by glaciers reaching the sea"),
    ("d6", "volcanic ash can darken an icefield surface"),
]


def main():
    index = build_index(DOCS)
    query = "glacier ice meltwater"
    terms = tokenize(query)
    run = bm25_retrieve(index, terms, depth=10, query_id="q")
    cscore = collection_score(index, terms)
    print(f"query: {query!r}")
    print(f"run: {[(d, round(s, 3)) for d, s in run.entries]}")
    print(f"collection pseudo-document score: {cscore:.4f}\n")

    ordinals, scores = ordinal_run(index, run)
    print(f"nqc  = {nqc(scores, cscore, top_k=10):.4f}   (std of top scores / collection score)")

    print(f"nqc on a zero-variance run = {nqc(np.full_like(scores, 2.0), cscore):.4f}")

    print(f"nqc after scaling scores and normalizer by 10: "
          f"{nqc(10 * scores, 10 * cscore):.4f} (unchanged)\n")

    for seed in (7, 7, 8):
        value = uef((ordinals, scores), cscore, index, rng_seed=seed, samples=10, sample_size=3, top_k=10)
        print(f"uef(seed={seed}, samples=10, sample_size=3) = {value:.6f}")
    print("same seed, same value; a different seed samples different subsets")


if __name__ == "__main__":
    main()
