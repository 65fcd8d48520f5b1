"""Independent brute-force oracles the implementation is checked against.

Each oracle recomputes its target quantity from first principles (plain
loops over raw data; no shared index or scoring code), so agreement with
the library is evidence of correctness rather than of shared bugs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter

import numpy as np

from qvqpp import tokenize
from qvqpp.text_index import STOPWORDS  # the stopword list is data the tokenizer is defined by, not logic


def tokenize_regex(text):
    """The tokenizer as a pattern: the ``[a-z0-9]+`` runs of the lowercased text, stopwords dropped."""
    return [t for t in re.findall(r"[a-z0-9]+", text.lower()) if t not in STOPWORDS]


def build_index_counter(items):
    """The term matrix of (id, text) items by a Counter per item and one lexsort of the entries.

    Returns the fields an ``InvertedIndex`` is made of besides the tokenizer
    digest: item ids, the sorted vocabulary, CSR ``row_ptr`` (int64),
    ``row_terms`` and ``row_tfs`` (int32), and the items' SHA-256, each item
    hashed as its JSON array.
    """
    items = list(items)
    first_seen = {}  # term -> id in order of first occurrence
    entry_terms, entry_tfs, row_sizes = [], [], []
    for _, text in items:
        counts = Counter(tokenize_regex(text))
        entry_terms.extend(first_seen.setdefault(term, len(first_seen)) for term in counts)
        entry_tfs.extend(counts.values())
        row_sizes.append(len(counts))
    terms = sorted(first_seen)
    sorted_id = np.empty(len(terms), dtype=np.int32)
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms))
    row_terms = sorted_id[np.asarray(entry_terms, dtype=np.int64)]
    sizes = np.asarray(row_sizes, dtype=np.int64)
    order = np.lexsort((row_terms, np.repeat(np.arange(len(items)), sizes)))
    row_ptr = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(sizes, out=row_ptr[1:])
    digest = hashlib.sha256()
    for item_id, text in items:
        digest.update(json.dumps([item_id, text]).encode("ascii"))
    return {
        "item_ids": [item_id for item_id, _ in items],
        "terms": terms,
        "row_ptr": row_ptr,
        "row_terms": row_terms[order],
        "row_tfs": np.asarray(entry_tfs, dtype=np.int32)[order],
        "source_sha256": digest.hexdigest(),
    }


def bm25_rank_all(items, terms, k1=0.9, b=0.4):
    """Score every item with the BM25 formula directly; return [(id, score)].

    Sorted by (score desc, id asc); zero-score items dropped. ``items``
    are raw (id, text) pairs; statistics are recomputed from scratch.
    """
    token_bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    n_items = len(token_bags)
    lengths = {item_id: sum(bag.values()) for item_id, bag in token_bags.items()}
    avgdl = sum(lengths.values()) / n_items if n_items else 0.0
    doc_freq = Counter()
    for bag in token_bags.values():
        for term in bag:
            doc_freq[term] += 1
    results = []
    for item_id, bag in token_bags.items():
        score = 0.0
        for term in terms:  # bag semantics: repeats add repeatedly
            tf = bag.get(term, 0)
            if tf == 0:
                continue
            df = doc_freq[term]
            idf = math.log(1.0 + (n_items - df + 0.5) / (df + 0.5))
            norm = k1 * (1.0 - b + b * lengths[item_id] / avgdl)
            score += idf * tf * (k1 + 1.0) / (tf + norm)
        if score > 0.0:
            results.append((item_id, score))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def bm25_postings_loop(items, terms, k1=0.9, b=0.4):
    """BM25 over a postings dict built from raw texts, in the library's arithmetic order.

    Per query term in ``Counter(terms)`` order, each posting adds
    qtf * idf * tf * (k1 + 1) / (tf + norm) to a running sum from 0.0, so
    the library must agree bit for bit. Returns [(id, score)] sorted by
    (score desc, id asc), zero scores dropped.
    """
    bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    lengths = {item_id: sum(bag.values()) for item_id, bag in bags.items()}
    avgdl = sum(lengths.values()) / len(bags) if bags else 0.0
    postings = {}
    for item_id, bag in bags.items():
        for term, tf in bag.items():
            postings.setdefault(term, []).append((item_id, tf))
    scores = {}
    for term, query_tf in Counter(terms).items():
        plist = postings.get(term, [])
        df = len(plist)
        idf = math.log(1.0 + (len(bags) - df + 0.5) / (df + 0.5))
        for item_id, tf in plist:
            norm = k1 * (1.0 - b + b * lengths[item_id] / avgdl)
            scores[item_id] = scores.get(item_id, 0.0) + query_tf * idf * tf * (k1 + 1.0) / (tf + norm)
    return sorted(((i, s) for i, s in scores.items() if s > 0.0), key=lambda e: (-e[1], e[0]))


def collection_score_virtual_doc(items, terms, k1=0.9, b=0.4, floor=1e-6):
    """Build the whole-corpus virtual document explicitly, then score it."""
    token_bags = [Counter(tokenize(text)) for _, text in items]
    n_items = len(token_bags)
    virtual = Counter()
    for bag in token_bags:
        virtual.update(bag)
    total_len = sum(virtual.values())
    avgdl = sum(sum(bag.values()) for bag in token_bags) / n_items
    doc_freq = Counter()
    for bag in token_bags:
        for term in bag:
            doc_freq[term] += 1
    score = 0.0
    for term in terms:
        tf = virtual.get(term, 0)
        if tf == 0:
            continue
        df = doc_freq[term]
        idf = math.log(1.0 + (n_items - df + 0.5) / (df + 0.5))
        norm = k1 * (1.0 - b + b * total_len / avgdl)
        score += idf * tf * (k1 + 1.0) / (tf + norm)
    return score if score > 0.0 else floor


def cosine_rank_all(vectors, query_vec):
    """Cosine similarity of every finite-norm vector, by plain loops."""
    qnorm = math.sqrt(math.fsum(v * v for v in query_vec))
    results = []
    for vec_id, vec in vectors.items():
        norm = math.sqrt(math.fsum(v * v for v in vec))
        if norm == 0.0:
            continue
        dot = math.fsum(a * b for a, b in zip(vec, query_vec))
        results.append((vec_id, dot / (norm * qnorm)))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def rbo_ext_prefix_sets(a_ids, b_ids, p):
    """Extrapolated RBO with every prefix overlap recomputed via set algebra."""
    s = min(len(a_ids), len(b_ids))
    l = max(len(a_ids), len(b_ids))
    if s == 0:
        return 0.0
    longer, shorter = (a_ids, b_ids) if len(a_ids) >= len(b_ids) else (b_ids, a_ids)

    def x(d):
        return len(set(longer[:d]) & set(shorter[: min(d, s)]))

    sum1 = sum(x(d) / d * p**d for d in range(1, l + 1))
    sum2 = sum(x(s) * (d - s) / (s * d) * p**d for d in range(s + 1, l + 1))
    sum3 = ((x(l) - x(s)) / l + x(s) / s) * p**l
    return (1.0 - p) / p * (sum1 + sum2) + sum3


def merge_2hop(target_id, one_hop, hit_lists):
    """The 2-hop pool by plain loops over ids.

    ``one_hop`` holds the 1-hop (id, hop, score) triples and ``hit_lists``
    the (id, score) hits of each relevant document, in (1-hop candidate,
    document id) order. Each hit that is neither the target nor already in
    the pool joins it as (id, 2, score), so a query keeps its first hit and
    the lowest hop.
    """
    merged = list(one_hop)
    seen = {qid for qid, _, _ in merged}
    for hits in hit_lists:
        for qid, score in hits:
            if qid == target_id or qid in seen:
                continue
            seen.add(qid)
            merged.append((qid, 2, score))
    return merged


def kendall_tau_pairs(predicted, actual):
    """Tau-b by O(n^2) pair counting; raises when the denominator is zero."""
    n = len(predicted)
    concordant = discordant = ties_pred_only = ties_actual_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            dp = predicted[i] - predicted[j]
            da = actual[i] - actual[j]
            if dp == 0 and da == 0:
                continue
            if dp == 0:
                ties_pred_only += 1
            elif da == 0:
                ties_actual_only += 1
            elif (dp > 0) == (da > 0):
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + ties_pred_only)
        * (concordant + discordant + ties_actual_only)
    )
    if denom == 0.0:
        raise ValueError("tau-b undefined: zero denominator")
    return (concordant - discordant) / denom


def relevance_model_dense(items, sample, mu=1000.0):
    """RM1 term weights by the dense vocabulary x sample loop, from raw texts.

    ``sample`` is [(doc_id, score)]; document weights are the softmax of
    the scores. Every term of the sampled documents gets
    sum_D weight_D * (tf + mu * p(w|C)) / (|D| + mu), normalized to sum 1.
    """
    token_bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    corpus = Counter()
    for bag in token_bags.values():
        corpus.update(bag)
    total = sum(corpus.values())
    top = max(score for _, score in sample)
    exps = [math.exp(score - top) for _, score in sample]
    doc_weights = [e / math.fsum(exps) for e in exps]
    vocab = set()
    for doc_id, _ in sample:
        vocab.update(token_bags[doc_id])
    masses = {}
    for term in vocab:
        corpus_prob = corpus[term] / total
        masses[term] = math.fsum(
            weight * (token_bags[doc_id].get(term, 0) + mu * corpus_prob)
            / (sum(token_bags[doc_id].values()) + mu)
            for weight, (doc_id, _) in zip(doc_weights, sample)
        )
    normalizer = math.fsum(masses.values())
    return {term: mass / normalizer for term, mass in masses.items()}


def relevance_model_sparse_loop(items, sample, doc_weights, mu=1000.0):
    """RM1 weights by a per-document dict loop, in the library's arithmetic order.

    ``doc_weights`` are the sample's softmax weights. Each term's tf mass is
    a running sum over the sample in order; the smoothing mass and the
    normalizer are fsums. The library must agree bit for bit.
    """
    bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    corpus = Counter()
    for bag in bags.values():
        corpus.update(bag)
    coefs = [w / (sum(bags[doc_id].values()) + mu) for w, (doc_id, _) in zip(doc_weights, sample)]
    tf_mass = {}
    for coef, (doc_id, _) in zip(coefs, sample):
        for term, tf in bags[doc_id].items():
            tf_mass[term] = tf_mass.get(term, 0.0) + coef * tf
    smoothing = mu * math.fsum(coefs) / sum(corpus.values())
    masses = {term: tf_mass[term] + smoothing * corpus[term] for term in sorted(tf_mass)}
    normalizer = math.fsum(masses.values())
    return {term: mass / normalizer for term, mass in masses.items()}


def rm_rerank_sparse_loop(items, model_weights, doc_ids, mu=1000.0):
    """rm_rerank's identity C - S ln(|D| + mu) + sum_{w in D} weight ln(1 + tf / (mu p_w)), term by term.

    Every addend is formed as the library forms it and each document's
    sum is an fsum, so the library must agree bit for bit. Needs mu > 0.
    Returns [(doc_id, score)] sorted by (score desc, id asc).
    """
    bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    corpus = Counter()
    for bag in bags.values():
        corpus.update(bag)
    total = sum(corpus.values())
    mu_p = {term: mu * corpus[term] / total for term in model_weights}
    constant = math.fsum(weight * math.log(mu_p[term]) for term, weight in model_weights.items())
    weight_sum = math.fsum(model_weights.values())
    results = []
    for doc_id in doc_ids:
        bag = bags[doc_id]
        parts = [constant, -weight_sum * math.log(sum(bag.values()) + mu)]
        parts += [model_weights[t] * math.log1p(tf / mu_p[t]) for t, tf in bag.items() if t in model_weights]
        results.append((doc_id, math.fsum(parts)))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def rm_rescore(items, model_weights, doc_ids, mu=1000.0):
    """Score docs by sum_w weight * ln(dirichlet p(w|D)), from raw texts.

    Summed with math.fsum, so documents whose terms contribute the same
    multiset of addends tie exactly. Returns [(doc_id, score)] sorted by
    (score desc, id asc).
    """
    token_bags = {item_id: Counter(tokenize(text)) for item_id, text in items}
    corpus = Counter()
    for bag in token_bags.values():
        corpus.update(bag)
    total = sum(corpus.values())
    results = []
    for doc_id in doc_ids:
        bag = token_bags[doc_id]
        length = sum(bag.values())
        score = math.fsum(
            weight * math.log((bag.get(term, 0) + mu * corpus.get(term, 0) / total) / (length + mu))
            for term, weight in model_weights.items()
        )
        results.append((doc_id, score))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def top_frequency_terms(text, m):
    """The m most frequent tokens, ties alphabetical, by explicit counting."""
    counts = {}
    for token in tokenize(text):
        counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return ordered[:m]
