"""Tokenization, inverted index construction, BM25 retrieval, pseudo-queries.

One tokenizer is used for documents and for queries-as-documents:
lowercase, split on runs of non-alphanumeric characters, drop words on
the built-in stopword list, no stemming. The stopword list is part of
the interface; changing it changes every downstream ranking.
"""

from __future__ import annotations

import math
import pickle
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .corpus_io import Document, RankedList

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

INDEX_FORMAT = "qvqpp.inverted_index"
INDEX_VERSION = 1
# What unpickling truncated, corrupted or foreign bytes raises (seen by mutating saved artifacts).
UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, ValueError, TypeError, AttributeError,
                   ImportError, IndexError, KeyError, OverflowError, MemoryError)

# Fixed English stopword list. Deliberately keeps single letters such as
# "s" (possessive fragments stay searchable) while dropping question
# words, which carry no topical signal in query-to-query retrieval.
STOPWORDS = frozenset(
    """
    a about an and are as at be been but by can could did do does for
    from had has have how i if in into is it its of on or such that the
    their then there these they this to was were what when where which
    who whom why will with would you your
    """.split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, remove stopwords."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


@dataclass
class InvertedIndex:
    """Immutable term -> postings index over a fixed item collection.

    Ordinals are assigned in input order; postings lists are sorted by
    ordinal. ``term_counts`` keeps each item's token frequencies so that
    language-model scoring (relevance models) can re-read item content
    without the raw text. ``total_tokens`` and ``avgdl`` are computed on
    first use and kept, so an index must not be mutated after it is read.
    """

    item_ids: list[str]
    item_lengths: list[int]
    postings: dict[str, list[tuple[int, int]]]
    doc_freqs: dict[str, int]
    collection_freqs: dict[str, int]
    term_counts: list[Counter]
    ordinal_of: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.item_ids)

    @cached_property
    def total_tokens(self) -> int:
        return sum(self.item_lengths)

    @cached_property
    def avgdl(self) -> float:
        return self.total_tokens / self.size if self.size else 0.0


def build_index(items: Iterable[tuple[str, str]]) -> InvertedIndex:
    """Build an inverted index from (id, text) pairs; ids must be unique."""
    item_ids: list[str] = []
    item_lengths: list[int] = []
    term_counts: list[Counter] = []
    postings: dict[str, list[tuple[int, int]]] = {}
    ordinal_of: dict[str, int] = {}
    for item_id, text in items:
        if item_id in ordinal_of:
            raise ValueError(f"duplicate item id {item_id!r}")
        ordinal = len(item_ids)
        ordinal_of[item_id] = ordinal
        counts = Counter(tokenize(text))
        item_ids.append(item_id)
        item_lengths.append(sum(counts.values()))
        term_counts.append(counts)
        for term, tf in counts.items():
            postings.setdefault(term, []).append((ordinal, tf))
    doc_freqs = {term: len(plist) for term, plist in postings.items()}
    collection_freqs = {term: sum(tf for _, tf in plist) for term, plist in postings.items()}
    return InvertedIndex(
        item_ids=item_ids,
        item_lengths=item_lengths,
        postings=postings,
        doc_freqs=doc_freqs,
        collection_freqs=collection_freqs,
        term_counts=term_counts,
        ordinal_of=ordinal_of,
    )


def bm25_idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    df = index.doc_freqs.get(term, 0)
    return math.log(1.0 + (index.size - df + 0.5) / (df + 0.5))


def bm25_retrieve(
    index: InvertedIndex,
    terms: Sequence[str],
    depth: int,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    query_id: str = "",
) -> RankedList:
    """Score ``terms`` (a bag: repeats weigh a term multiple times) with BM25.

    Returns the top-``depth`` items by score, ties broken by item id
    ascending; items sharing no terms with the query (score 0) are never
    returned. An empty term bag yields an empty list.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    avgdl = index.avgdl
    scores: dict[int, float] = {}
    for term, query_tf in Counter(terms).items():
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = bm25_idf(index, term)
        for ordinal, tf in plist:
            norm = k1 * (1.0 - b + b * index.item_lengths[ordinal] / avgdl)
            gain = query_tf * idf * tf * (k1 + 1.0) / (tf + norm)
            scores[ordinal] = scores.get(ordinal, 0.0) + gain
    pairs = [(index.item_ids[o], s) for o, s in scores.items() if s > 0.0]
    return RankedList.from_scores(query_id, pairs, depth=depth)


@dataclass(frozen=True)
class PseudoQuery:
    """A term-bag query distilled from one document (highest-TF terms)."""

    source_doc_id: str
    terms: tuple[str, ...]


def make_pseudo_query(doc: Document, m: int) -> PseudoQuery:
    """Take the ``m`` highest-frequency tokens of ``doc``, ties alphabetical.

    A document that tokenizes to nothing (all stopwords) yields an empty
    term tuple.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = Counter(tokenize(doc.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return PseudoQuery(doc.id, tuple(term for term, _ in ranked[:m]))


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index; the artifact carries a format/version tag."""
    payload = {"format": INDEX_FORMAT, "version": INDEX_VERSION, "index": index}
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=4)


def load_index(path) -> InvertedIndex:
    """Read an index written by :func:`save_index`; any other content is a ValueError."""
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except UNPICKLE_ERRORS:
            payload = None
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact")
    if payload.get("version") != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {payload.get('version')!r}")
    if not isinstance(payload.get("index"), InvertedIndex):
        raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact")
    return payload["index"]
