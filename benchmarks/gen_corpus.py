#!/usr/bin/env python3
"""Seeded synthetic retrieval corpus for the qvqpp benchmark.

Writes, into one directory, every file the ``qvqpp`` CLI reads:

- ``collection.tsv``: passage-length documents. Each document mixes a main
  topic, a secondary topic and a Zipfian background vocabulary, padded
  with English stopwords so the tokenizer has real work to do.
- ``train_queries.tsv`` / ``train_qrels.txt``: short keyword queries, each
  drawn from one source document, with 1-2 judged relevant documents.
- ``test_queries.tsv`` / ``test_qrels.txt``: target queries with graded
  judgments (3 for the source document, 2/1 by term overlap, 0 otherwise).
- ``target_run.txt``: a 100-deep TREC run per target from a simple
  saturated tf-idf scorer with noise; it is padded with low-scored
  documents so UEF always has enough to sample.
- ``embeddings.txt``: a vector per training and target query (sum of
  per-term vectors plus a topic vector) for dense 1-hop retrieval.

The generator never imports ``qvqpp``, so changes to the library cannot
change its inputs. Same (scale, seed, targets) gives byte-identical files.

    python3 benchmarks/gen_corpus.py OUT_DIR --scale S --seed 1 --targets 45
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# docs / training queries / content vocabulary / topics
SCALES = {
    "T": dict(docs=400, train=200, vocab=3000, topics=12),
    "R": dict(docs=2000, train=1000, vocab=10000, topics=40),
    "S": dict(docs=5000, train=2000, vocab=20000, topics=100),
    "M": dict(docs=50000, train=10000, vocab=60000, topics=400),
}

FILLER = "the of and a to in is for on with that as by from at".split()
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
TOPIC_WORDS = 150
DOC_LEN_MEDIAN = 48  # content tokens; stopword filler comes on top
STOP_SHARE = 0.25
MAIN_SHARE, SECOND_SHARE = 0.55, 0.15  # the rest is background
EMBED_DIM = 32
RUN_DEPTH = 100
QUERY_COMMON_SHARE = 0.3  # extra query terms drawn from frequent background words
# Each query has 1+ words of background ranks COMMON_RANKS, so 1-hop retrieval
# reaches across topics without every query matching most of the collection.
COMMON_RANKS = (20, 60)
MIN_MATCHES = 60  # every query matches this many docs, so UEF can always draw its samples


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct three-syllable words; no word can be a stopword (all are 6 letters, CVCVCV)."""
    syllables = [c + v for c in CONSONANTS for v in VOWELS]
    n = len(syllables)
    codes = rng.choice(n**3, size=size, replace=False)
    return [syllables[c // (n * n)] + syllables[(c // n) % n] + syllables[c % n] for c in codes]


def _zipf(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(size) + 2.7, exponent)
    return weights / weights.sum()


class _Corpus:
    def __init__(self, rng: np.random.Generator, docs: int, vocab: int, topics: int):
        self.words = _vocabulary(rng, vocab)
        self.background = _zipf(vocab, 1.0)
        self.topic_terms = np.array([rng.choice(vocab, size=TOPIC_WORDS, replace=False) for _ in range(topics)])
        self.topic_weights = _zipf(TOPIC_WORDS, 1.1)
        self.doc_topic = rng.integers(0, topics, size=docs)
        # All tokens of all documents are drawn at once; each token comes from the
        # document's main topic, its secondary topic or the background.
        lengths = np.clip(np.rint(rng.lognormal(np.log(DOC_LEN_MEDIAN), 0.4, size=docs)), 8, 300).astype(np.int64)
        second = rng.integers(0, topics, size=docs)
        doc_of = np.repeat(np.arange(docs), lengths)
        source = rng.choice(3, size=len(doc_of), p=[MAIN_SHARE, SECOND_SHARE, 1 - MAIN_SHARE - SECOND_SHARE])
        topic = np.where(source == 0, self.doc_topic[doc_of], second[doc_of])
        topical = self.topic_terms[topic, rng.choice(TOPIC_WORDS, size=len(doc_of), p=self.topic_weights)]
        background = rng.choice(vocab, size=len(doc_of), p=self.background)
        ends = np.cumsum(lengths)
        self.doc_terms: list[np.ndarray] = np.split(np.where(source == 2, background, topical), ends[:-1])
        stop_counts = (lengths * STOP_SHARE / (1 - STOP_SHARE)).astype(np.int64)
        stops = np.split(rng.integers(0, len(FILLER), size=stop_counts.sum()), np.cumsum(stop_counts)[:-1])
        slots = np.split(rng.random(stop_counts.sum()), np.cumsum(stop_counts)[:-1])
        self.texts: list[str] = []
        for terms, doc_stops, doc_slots in zip(self.doc_terms, stops, slots):
            tokens = [self.words[t] for t in terms.tolist()]
            for slot, stop in sorted(zip((doc_slots * (len(tokens) + 1)).astype(int).tolist(), doc_stops.tolist()),
                                     reverse=True):
                tokens.insert(slot, FILLER[stop])
            self.texts.append(" ".join(tokens))
        self.by_topic = [np.flatnonzero(self.doc_topic == t) for t in range(topics)]
        df = np.zeros(vocab)
        for terms in self.doc_terms:
            df[np.unique(terms)] += 1
        self.idf = np.log(1.0 + (docs - df + 0.5) / (df + 0.5))
        self.doc_sets = [set(t.tolist()) for t in self.doc_terms]
        self.postings: dict[int, set[int]] = {}
        for d, terms in enumerate(self.doc_sets):
            for term in terms:
                self.postings.setdefault(term, set()).add(d)
        self.avg_len = float(np.mean([len(t) for t in self.doc_terms]))

    def query_from(self, rng: np.random.Generator, doc: int) -> list[int]:
        """2-5 distinct terms: main-topic terms of ``doc`` plus some frequent background words.

        Frequent topic terms are added until the query matches MIN_MATCHES docs.
        """
        terms = self.doc_terms[doc]
        topic_terms = self.topic_terms[self.doc_topic[doc]]
        topical = np.intersect1d(terms, topic_terms)
        pool = topical if len(topical) >= 2 else np.unique(terms)
        size = int(rng.integers(2, 6))
        common = 1 + int(rng.binomial(size - 2, QUERY_COMMON_SHARE))
        chosen = rng.choice(pool, size=min(len(pool), size - common), replace=False).tolist()
        for term in rng.choice(np.arange(*COMMON_RANKS), size=common, replace=False).tolist():
            if term not in chosen and term in self.postings:
                chosen.append(term)
        matched = set().union(*(self.postings[t] for t in chosen))
        for term in topic_terms.tolist():
            if len(matched) >= MIN_MATCHES:
                break
            if term not in chosen and term in self.postings:
                chosen.append(term)
                matched |= self.postings[term]
        return sorted(chosen)

    def pick_doc(self, rng: np.random.Generator) -> int:
        topic = int(rng.integers(0, len(self.by_topic)))
        while len(self.by_topic[topic]) == 0:
            topic = (topic + 1) % len(self.by_topic)
        return int(rng.choice(self.by_topic[topic]))

    def related(self, doc: int, terms: list[int]) -> list[tuple[int, int]]:
        """(doc, shared-term count) for other docs of the same topic sharing a query term."""
        out = []
        for other in self.by_topic[self.doc_topic[doc]].tolist():
            shared = len(self.doc_sets[other].intersection(terms))
            if other != doc and shared:
                out.append((other, shared))
        return out

    def score_run(self, rng: np.random.Generator, terms: list[int]) -> list[tuple[int, float]]:
        scores = {}
        for d in set().union(*(self.postings[t] for t in terms)):
            doc_terms = self.doc_terms[d]
            hits = self.doc_sets[d].intersection(terms)
            norm = 1.2 * (0.25 + 0.75 * len(doc_terms) / self.avg_len)
            score = 0.0
            for term in hits:
                tf = int(np.count_nonzero(doc_terms == term))
                score += self.idf[term] * tf * 2.2 / (tf + norm)
            scores[d] = score
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:RUN_DEPTH]
        top = ranked[0][1] if ranked else 1.0
        noisy = [(d, s + rng.normal(0.0, 0.05 * top)) for d, s in ranked]
        if len(noisy) < RUN_DEPTH:
            taken = {d for d, _ in noisy}
            floor = min([s for _, s in noisy], default=1.0)
            fill = [d for d in rng.permutation(len(self.doc_terms)).tolist() if d not in taken]
            for i, d in enumerate(fill[: RUN_DEPTH - len(noisy)]):
                noisy.append((d, floor * 0.5 * (1.0 - i / RUN_DEPTH)))
        return sorted(noisy, key=lambda kv: (-kv[1], kv[0]))


def generate(out_dir, scale: str, seed: int, targets: int) -> dict:
    """Write the corpus files into ``out_dir`` and return its scale statistics."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    spec = SCALES[scale]
    if targets < 2:
        raise ValueError("need at least 2 targets so Kendall tau is defined")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, spec["docs"], targets])
    corpus = _Corpus(rng, spec["docs"], spec["vocab"], spec["topics"])
    words = corpus.words
    doc_id = [f"d{i:06d}" for i in range(spec["docs"])]

    train_lines, qrel_lines, query_terms = [], [], {}
    for i in range(spec["train"]):
        qid = f"t{i:06d}"
        doc = corpus.pick_doc(rng)
        terms = corpus.query_from(rng, doc)
        query_terms[qid] = (terms, corpus.doc_topic[doc])
        train_lines.append(f"{qid}\t{' '.join(words[t] for t in terms)}\n")
        relevant = [doc]
        related = corpus.related(doc, terms)
        if related and rng.random() < 0.5:
            relevant.append(related[int(rng.integers(0, len(related)))][0])
        qrel_lines += [f"{qid} 0 {doc_id[d]} 1\n" for d in sorted(relevant)]

    test_lines, test_qrels, run_lines = [], [], []
    for i in range(targets):
        qid = f"q{i:04d}"
        doc = corpus.pick_doc(rng)
        terms = corpus.query_from(rng, doc)
        query_terms[qid] = (terms, corpus.doc_topic[doc])
        test_lines.append(f"{qid}\t{' '.join(words[t] for t in terms)}\n")
        grades = {doc: 3}
        related = corpus.related(doc, terms)
        for j in rng.permutation(len(related))[:20].tolist():
            other, shared = related[j]
            grades[other] = 2 if shared >= 2 else int(rng.random() < 0.6)
        for other in rng.choice(spec["docs"], size=5, replace=False).tolist():
            grades.setdefault(other, 0)
        test_qrels += [f"{qid} 0 {doc_id[d]} {g}\n" for d, g in sorted(grades.items())]
        for rank, (d, score) in enumerate(corpus.score_run(rng, terms), start=1):
            run_lines.append(f"{qid} Q0 {doc_id[d]} {rank} {score:.6f} synth\n")

    term_vecs = rng.normal(size=(spec["vocab"], EMBED_DIM))
    topic_vecs = rng.normal(size=(spec["topics"], EMBED_DIM))
    embed_lines = [f"{len(query_terms)} {EMBED_DIM}\n"]
    for qid in sorted(query_terms):
        terms, topic = query_terms[qid]
        vec = term_vecs[terms].sum(axis=0) + 1.5 * topic_vecs[topic] + rng.normal(0.0, 0.3, EMBED_DIM)
        embed_lines.append(qid + "".join(f" {v:.6f}" for v in vec) + "\n")

    files = {
        "collection.tsv": [f"{doc_id[d]}\t{text}\n" for d, text in enumerate(corpus.texts)],
        "train_queries.tsv": train_lines,
        "train_qrels.txt": qrel_lines,
        "test_queries.tsv": test_lines,
        "test_qrels.txt": test_qrels,
        "target_run.txt": run_lines,
        "embeddings.txt": embed_lines,
    }
    for name, lines in files.items():
        (out / name).write_text("".join(lines), encoding="utf-8")

    lengths = np.array([len(text.split()) for text in corpus.texts])
    used = set()
    for terms in corpus.doc_terms:
        used.update(terms.tolist())
    return {
        "scale": scale,
        "seed": seed,
        "docs": spec["docs"],
        "train_queries": spec["train"],
        "targets": targets,
        "vocab_size": len(used),
        "doc_len_mean": round(float(lengths.mean()), 2),
        "doc_len_p95": float(np.percentile(lengths, 95)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--scale", default="S", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--targets", type=int, default=45)
    args = parser.parse_args()
    print(json.dumps(generate(args.out_dir, args.scale, args.seed, args.targets), sort_keys=True))


if __name__ == "__main__":
    main()
