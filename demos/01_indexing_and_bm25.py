#!/usr/bin/env python3
"""Tokenization, inverted indexing, BM25 retrieval and pseudo-queries.

Builds a tiny in-memory corpus, shows what the fixed tokenizer keeps and
drops, ranks documents for a few queries, and distills a document into
the highest-frequency pseudo-query used by the 2-hop expansion.
"""

from qvqpp import Document, bm25_retrieve, build_index, make_pseudo_query, tokenize

DOCS = [
    ("d1", "Brewing coffee with water at the right temperature improves the cup."),
    ("d2", "Espresso needs a fine grind and enough pressure for good crema."),
    ("d3", "A paper filter removes oils and sediment from brewed coffee."),
    ("d4", "Cold brew steeps coarse coffee grounds in cold water overnight."),
    ("d5", "Light roast beans keep more acidity than dark roast beans."),
]


def main():
    print("== tokenizer ==")
    for text in ("What is the best water temperature?", "Paula Deen's brother", "THE the The"):
        print(f"  {text!r:45} -> {tokenize(text)}")

    print("\n== index ==")
    index = build_index(DOCS)
    print(f"  {index.size} documents, {len(index.terms)} terms, avgdl {index.avgdl:.2f}")
    ordinals, tfs = index.postings("coffee")
    print(f"  postings['coffee'] = {list(zip(ordinals.tolist(), tfs.tolist()))}")

    print("\n== bm25 retrieval ==")
    for query in ("coffee water temperature", "espresso crema", "tea ceremony"):
        ranked = bm25_retrieve(index, tokenize(query), depth=5)
        print(f"  {query!r}")
        if not ranked.entries:
            print("    (no document shares a term with the query)")
        for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
            print(f"    {rank}. {doc_id}  {score:.4f}")

    print("\n== pseudo-query from a document ==")
    doc = Document("d4", DOCS[3][1])
    pseudo = make_pseudo_query(doc, m=5)
    print(f"  source: {doc.text}")
    print(f"  top-5 terms by frequency: {list(pseudo.terms)}")
    ranked = bm25_retrieve(index, list(pseudo.terms), depth=3)
    print(f"  retrieving with the pseudo-query: {ranked.doc_ids()}")


if __name__ == "__main__":
    main()
