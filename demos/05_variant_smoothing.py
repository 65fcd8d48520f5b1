#!/usr/bin/env python3
"""The full variant-smoothing pipeline on an inline mini-corpus.

For a target query we (1) retrieve similar training queries directly,
(2) expand through the judged relevant documents of those hits — a
paraphrase that shares no words with the target becomes reachable this
way — (3) re-rank all candidates by the overlap of their document
rankings with the target's, and (4) blend the base predictor's estimate
for the target run with the overlap-weighted estimates of the variants.
"""

from qvqpp import (
    PipelineResources,
    PredictorParams,
    QppConfig,
    Query,
    base_predictions,
    bm25_retrieve,
    build_index,
    build_qv_set,
    expand_2hop,
    retrieve_1hop,
    smooth_qpp,
    tokenize,
)
from qvqpp.text_index import ranked_list

DOCS = [
    ("p1", "brewing coffee with water at the right temperature improves the cup"),
    ("p2", "a french press steeps coarse coffee in hot water and the plunger controls steeping heat level"),
    ("p3", "espresso needs a fine grind and stable pressure for crema"),
    ("p4", "cold brew steeps coffee grounds overnight in cold water"),
    ("p5", "light roast beans keep more acidity than dark roast"),
    ("p6", "a paper filter removes oils and sediment from brewed coffee"),
]

TRAIN_QUERIES = [
    ("t1", "coffee brewing water temperature"),
    ("t2", "espresso grind crema"),
    ("t3", "french press plunger steeping heat level"),  # no overlap with the target
    ("t4", "cold brew overnight"),
]

TRAIN_QRELS = {"t1": {"p2": 1, "p1": 1}, "t2": {"p3": 1}, "t3": {"p2": 1}, "t4": {"p4": 1}}

TARGET = Query("T", "best water temperature for brewing coffee")


def main():
    doc_index = build_index(DOCS)
    res = PipelineResources(
        doc_index=doc_index,
        query_index=build_index(TRAIN_QUERIES),
        training_texts=[text for _, text in TRAIN_QUERIES],
        training_qrels=TRAIN_QRELS,
        params=PredictorParams(uef_sample_size=2),
        seed=7,
    )
    config = QppConfig(lam=0.6, k=2, n=4, use_2hop=True, internal_depth=10)

    print(f"target: {TARGET.text!r} -> tokens {tokenize(TARGET.text)}\n")

    one_hop = retrieve_1hop(TARGET, config, res)
    print("1-hop candidates (direct lexical matches):")
    for cand in one_hop.candidates:
        print(f"  {cand.query.id}: {cand.query.text!r}  score {cand.retrieval_score:.3f}")
    print(f"  note: t3 {dict(TRAIN_QUERIES)['t3']!r} shares no token with the target\n")

    merged = expand_2hop(one_hop, config, res)
    print("after 2-hop expansion through judged relevant documents:")
    for cand in merged.candidates:
        print(f"  hop {cand.hop}  {cand.query.id}: {cand.query.text!r}")
    gained = set(merged.query_ids()) - set(one_hop.query_ids())
    print(f"  newly reachable: {sorted(gained)} (via the relevant document p2)\n")

    qv_set = build_qv_set(TARGET, config, res)
    print(f"re-ranked by rank overlap with the target's own document ranking (k={config.k}):")
    for cand in qv_set.candidates:
        run = ranked_list(doc_index, cand.internal_run, cand.query.id)
        print(f"  {cand.query.id}  hop {cand.hop}  rbo {cand.rbo:.4f}  run {run.doc_ids()}")

    target_run = bm25_retrieve(doc_index, tokenize(TARGET.text), depth=10, query_id=TARGET.id)
    # the base predictor runs once per query here; each lambda below only re-weights these values
    widest = QppConfig(lam=1.0, k=2, n=4, use_2hop=True, internal_depth=10)
    phi = base_predictions(TARGET, target_run, qv_set, widest, res)
    print("\nsmoothed estimates as lambda moves from 'target only' to 'variants only':")
    for lam in (0.0, 0.3, 0.6, 1.0):
        cfg = QppConfig(lam=lam, k=2, n=4, use_2hop=True, internal_depth=10)
        value = smooth_qpp(target_run, qv_set, cfg, phi)
        print(f"  lambda={lam:.1f}  estimate {value:.4f}")

    print(f"\nwith 2-hop disabled the candidate set is just {one_hop.query_ids()}")


if __name__ == "__main__":
    main()
