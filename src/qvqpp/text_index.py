"""Tokenization, the term-matrix index, BM25 retrieval, pseudo-queries.

One tokenizer is used for documents and for queries-as-documents:
lowercase, split on runs of non-alphanumeric characters, drop words on
the built-in stopword list, no stemming. The stopword list is part of
the interface; changing it changes every downstream ranking.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Sequence

import numpy as np

from .corpus_io import Document, RankedList

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

INDEX_FORMAT = "qvqpp.inverted_index"
INDEX_VERSION = 2

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

# Digest of the tokenizer's data; an index built under another stopword list or pattern is stale.
TOKENIZER_SHA256 = hashlib.sha256(json.dumps([_TOKEN_RE.pattern, sorted(STOPWORDS)]).encode("ascii")).hexdigest()


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, remove stopwords."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


def _items_sha256(items: Iterable[tuple[str, str]]) -> str:
    """SHA-256 of (id, text) items in order; each item is hashed as its JSON array, which delimits itself.

    The array is written as ``json.dumps([item_id, text])`` writes it, without a JSON encoder call per item.
    """
    digest = hashlib.sha256()
    for item_id, text in items:
        digest.update(f"[{_json_str(item_id)}, {_json_str(text)}]".encode("ascii"))
    return digest.hexdigest()


def _segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Integer sums of ``values[ptr[i]:ptr[i + 1]]`` for every i."""
    sums = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=sums[1:])
    return sums[ptr[1:]] - sums[ptr[:-1]]


def _segments(ptr: np.ndarray, keys: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR segments ``keys``, segment after segment, and each segment's bounds among them."""
    keys = np.asarray(keys, dtype=np.int64)
    starts = ptr[keys]
    counts = ptr[keys + 1] - starts
    bounds = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], counts), bounds


@dataclass(eq=False)
class InvertedIndex:
    """A term-frequency matrix over a fixed item collection, kept in CSR form.

    Row ``o`` is the item ``item_ids[o]`` (ordinals follow input order).
    Its distinct terms are ``row_terms[row_ptr[o]:row_ptr[o + 1]]``, in
    ascending order, as ids into the sorted vocabulary ``terms``, and
    ``row_tfs`` holds their frequencies. The two SHA-256 strings name the
    (id, text) items and the tokenizer the index was built from. Nothing
    else is stored: ordinals, term ids, lengths, the postings (column)
    view, df, cf, the totals and one BM25 gain table per ``(k1, b)``
    (each term's idf and each posting's gain, 8 bytes per posting) are
    derived on first use and kept, so an index must not be mutated after
    it is read.
    """

    item_ids: list[str]
    terms: list[str]
    row_ptr: np.ndarray
    row_terms: np.ndarray
    row_tfs: np.ndarray
    source_sha256: str
    tokenizer_sha256: str

    @property
    def size(self) -> int:
        return len(self.item_ids)

    def built_from(self, items: Iterable[tuple[str, str]]) -> bool:
        """Whether the index was built from exactly these (id, text) items, in order, by this tokenizer."""
        return self.tokenizer_sha256 == TOKENIZER_SHA256 and self.source_sha256 == _items_sha256(items)

    @cached_property
    def ordinal_of(self) -> dict[str, int]:
        return {item_id: ordinal for ordinal, item_id in enumerate(self.item_ids)}

    @cached_property
    def term_id(self) -> dict[str, int]:
        return {term: tid for tid, term in enumerate(self.terms)}

    @cached_property
    def lengths(self) -> np.ndarray:
        """Token count of each item."""
        return _segment_sums(self.row_tfs, self.row_ptr)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The postings view (col_ptr, ordinals, tfs); a stable sort keeps ordinals ascending per term."""
        order = np.argsort(self.row_terms, kind="stable")
        col_ptr = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.row_terms, minlength=len(self.terms)), out=col_ptr[1:])
        rows = np.repeat(np.arange(self.size), np.diff(self.row_ptr))
        return col_ptr, rows[order], self.row_tfs[order]

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals (ascending) and term frequencies of the items containing ``term``."""
        col_ptr, ordinals, tfs = self._columns
        tid = self.term_id.get(term)
        if tid is None:
            return ordinals[:0], tfs[:0]
        return ordinals[col_ptr[tid]:col_ptr[tid + 1]], tfs[col_ptr[tid]:col_ptr[tid + 1]]

    def rows(self, ordinals: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term ids and tfs of the given rows, row after row; row i's entries are at bounds[i]:bounds[i + 1]."""
        positions, bounds = _segments(self.row_ptr, ordinals)
        return self.row_terms[positions], self.row_tfs[positions], bounds

    @cached_property
    def df(self) -> np.ndarray:
        """Number of items containing each term id."""
        return np.diff(self._columns[0])

    @cached_property
    def cf(self) -> np.ndarray:
        """Number of occurrences of each term id in the collection."""
        col_ptr, _, tfs = self._columns
        return _segment_sums(tfs, col_ptr)

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Position of each ordinal's id in ascending id order (the ranking tie-break)."""
        rank = np.empty(self.size, dtype=np.int64)
        rank[sorted(range(self.size), key=self.item_ids.__getitem__)] = np.arange(self.size)
        return rank

    @cached_property
    def _bm25_tables(self) -> dict[tuple[float, float], tuple[np.ndarray, np.ndarray]]:
        return {}

    def bm25_table(self, k1: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Each term id's idf and each posting's ``idf * tf * (k1 + 1.0) / (tf + norm)``, in postings order.

        Built in one pass on the first call for ``(k1, b)`` and kept. The
        idf is :func:`bm25_idf`'s ``math.log``, taken once per distinct df.
        """
        table = self._bm25_tables.get((k1, b))
        if table is None:
            _, ordinals, tfs = self._columns
            df = self.df
            distinct = np.flatnonzero(np.bincount(df))
            idf_of_df = np.zeros(int(df.max(initial=0)) + 1)
            idf_of_df[distinct] = [math.log(1.0 + (self.size - d + 0.5) / (d + 0.5)) for d in distinct.tolist()]
            idf = idf_of_df[df]
            norm = k1 * (1.0 - b + b * self.lengths[ordinals] / self.avgdl)
            table = self._bm25_tables[(k1, b)] = (idf, np.repeat(idf, df) * tfs * (k1 + 1.0) / (tfs + norm))
        return table

    @cached_property
    def total_tokens(self) -> int:
        return int(self.row_tfs.sum())

    @cached_property
    def avgdl(self) -> float:
        return self.total_tokens / self.size if self.size else 0.0


def build_index(items: Iterable[tuple[str, str]]) -> InvertedIndex:
    """Build the term matrix of (id, text) pairs; ids must be unique."""
    items = list(items)
    item_ids: list[str] = []
    seen: set[str] = set()
    first_seen: dict[str, int] = {}  # term -> id in order of first occurrence
    entry_terms: list[int] = []
    entry_tfs: list[int] = []
    row_sizes: list[int] = []
    for item_id, text in items:
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id!r}")
        seen.add(item_id)
        item_ids.append(item_id)
        counts = Counter(tokenize(text))
        entry_terms.extend(first_seen.setdefault(term, len(first_seen)) for term in counts)
        entry_tfs.extend(counts.values())
        row_sizes.append(len(counts))
    terms = sorted(first_seen)
    sorted_id = np.empty(len(terms), dtype=np.int32)
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms))
    row_terms = sorted_id[np.asarray(entry_terms, dtype=np.int64)]
    sizes = np.asarray(row_sizes, dtype=np.int64)
    rows = np.repeat(np.arange(len(item_ids)), sizes)
    order = np.lexsort((row_terms, rows))
    row_ptr = np.zeros(len(item_ids) + 1, dtype=np.int64)
    np.cumsum(sizes, out=row_ptr[1:])
    return InvertedIndex(
        item_ids=item_ids,
        terms=terms,
        row_ptr=row_ptr,
        row_terms=row_terms[order],
        row_tfs=np.asarray(entry_tfs, dtype=np.int32)[order],
        source_sha256=_items_sha256(items),
        tokenizer_sha256=TOKENIZER_SHA256,
    )


def bm25_idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    tid = index.term_id.get(term)
    df = 0 if tid is None else int(index.df[tid])
    return math.log(1.0 + (index.size - df + 0.5) / (df + 0.5))


# A ranking as item ordinals (int32) and their scores (float64), best first.
OrdinalRun = tuple[np.ndarray, np.ndarray]


def ranked_list(index: InvertedIndex, run: OrdinalRun, query_id: str) -> RankedList:
    """The ranking ``run`` over ``index`` with item ids and Python float scores."""
    ordinals, scores = run
    return RankedList(query_id, list(zip([index.item_ids[o] for o in ordinals.tolist()], scores.tolist())))


def bm25_ordinals(
    index: InvertedIndex,
    terms: Sequence[str],
    depth: int,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> OrdinalRun:
    """:func:`bm25_retrieve`'s ranking as the items' ordinals (int32) and their scores (float64).

    A bag whose every term occurs once gathers its postings' gains from
    :meth:`InvertedIndex.bm25_table`, as ``1 * idf == idf``; a bag with a
    repeated term weighs each term's postings by ``query_tf * idf`` as
    before. Only the hits scoring at least the depth-th score (ties at the
    cut included, found with ``np.partition``) are sorted.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    query = [(index.term_id[term], query_tf) for term, query_tf in Counter(terms).items() if term in index.term_id]
    col_ptr, col_ordinals, col_tfs = index._columns
    idf, posting_gains = index.bm25_table(k1, b)
    positions, bounds = _segments(col_ptr, [tid for tid, _ in query])
    ordinals = col_ordinals[positions]
    if all(query_tf == 1 for _, query_tf in query):
        gains = posting_gains[positions]
    else:  # query_tf * idf per term, then the gain of every posting of the query's terms in one pass
        tfs = col_tfs[positions]
        weights = np.repeat([query_tf * idf[tid] for tid, query_tf in query], np.diff(bounds))
        norm = k1 * (1.0 - b + b * index.lengths[ordinals] / index.avgdl)
        gains = weights * tfs * (k1 + 1.0) / (tfs + norm)
    # bincount adds each item's gains in query-term order, as a running sum from 0.0 would
    scores = np.bincount(ordinals, weights=gains, minlength=index.size)
    hits = np.flatnonzero(scores > 0.0)
    if len(hits) > depth:
        hit_scores = scores[hits]
        hits = hits[hit_scores >= np.partition(hit_scores, len(hits) - depth)[len(hits) - depth]]
    hits = hits[np.lexsort((index._id_rank[hits], -scores[hits]))][:depth]
    return hits.astype(np.int32), scores[hits]


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
    returned. An empty term bag yields an empty list. Each item's score
    adds one gain per query term, in the order of ``Counter(terms)``.
    """
    return ranked_list(index, bm25_ordinals(index, terms, depth, k1=k1, b=b), query_id)


@dataclass(frozen=True)
class PseudoQuery:
    """A term-bag query distilled from one document (highest-TF terms)."""

    source_doc_id: str
    terms: tuple[str, ...]


def make_pseudo_query(doc: Document, m: int) -> PseudoQuery:
    """Take the ``m`` highest-frequency tokens of ``doc``, ties alphabetical.

    A document that tokenizes to nothing (all stopwords) yields an empty
    term tuple. The pipeline reads the same terms from the document's
    index row (:func:`pseudo_query_terms`); this text-side form is their
    reference.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = Counter(tokenize(doc.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return PseudoQuery(doc.id, tuple(term for term, _ in ranked[:m]))


def pseudo_query_terms(index: InvertedIndex, ordinal: int, m: int) -> tuple[str, ...]:
    """:func:`make_pseudo_query`'s terms for item ``ordinal``, read from its index row, not its text.

    The row's top ``m`` terms by (tf desc, term id asc): a row lists its
    term ids in ascending order and the vocabulary is sorted, so a stable
    sort by tf breaks ties alphabetically, as :func:`make_pseudo_query` does.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    start, end = index.row_ptr[ordinal : ordinal + 2].tolist()
    top = np.argsort(-index.row_tfs[start:end], kind="stable")[:m]
    return tuple(index.terms[tid] for tid in index.row_terms[start:end][top].tolist())


# The artifact is an .npz archive: one .npy member per name. JSON values
# (the header and the two string lists) are stored as their ASCII bytes in
# uint8 arrays, so a string costs its own length, not the longest one's.
_JSON_MEMBERS = ("header", "item_ids", "terms")
_ARRAY_DTYPES = {"row_ptr": np.int64, "row_terms": np.int32, "row_tfs": np.int32}
# Zip member time; a fixed one makes equal indexes give equal bytes.
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)
# What reading a truncated, corrupt or foreign zip or .npy member raises.
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError,
                NotImplementedError, RuntimeError, MemoryError, RecursionError)


def _json_array(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("ascii"), dtype=np.uint8)


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index as an .npz archive of plain arrays with a format/version header.

    The archive is written through an open handle, so it keeps ``path``
    exactly (``np.savez`` would append ``.npz``), and its member times are
    fixed, so two builds from the same items write the same bytes.
    """
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "source_sha256": index.source_sha256,
        "tokenizer_sha256": index.tokenizer_sha256,
    }
    members = {
        "header": _json_array(header),
        "item_ids": _json_array(index.item_ids),
        "terms": _json_array(index.terms),
        "row_ptr": index.row_ptr,
        "row_terms": index.row_terms,
        "row_tfs": index.row_tfs,
    }
    with open(path, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy", _MEMBER_TIME), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array)


def _index_from(members: dict[str, np.ndarray]) -> InvertedIndex:
    """Check the members read from an artifact and assemble the index; a ValueError names the first flaw."""
    values = {}
    for name in _JSON_MEMBERS:
        if members[name].dtype != np.uint8 or members[name].ndim != 1:
            raise ValueError(f"{name} is not a JSON byte array")
        values[name] = json.loads(members[name].tobytes())
    header, item_ids, terms = values["header"], values["item_ids"], values["terms"]
    if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
        raise ValueError("no format header")
    if header.get("version") != INDEX_VERSION:
        raise ValueError(f"version {header.get('version')!r}, not {INDEX_VERSION}; rerun qvqpp index")
    fingerprint = [header.get("source_sha256"), header.get("tokenizer_sha256")]
    if not all(isinstance(value, str) for value in fingerprint):
        raise ValueError("no source and tokenizer fingerprint")
    if not isinstance(item_ids, list) or not all(isinstance(i, str) for i in item_ids):
        raise ValueError("item ids are not a list of strings")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("duplicate item ids")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValueError("terms are not a list of strings")
    if any(a >= b for a, b in itertools.pairwise(terms)):
        raise ValueError("terms are not sorted and distinct")
    for name, dtype in _ARRAY_DTYPES.items():
        if members[name].dtype != dtype or members[name].ndim != 1:
            raise ValueError(f"{name} is not a 1-d {np.dtype(dtype).name} array")
    row_ptr, row_terms, row_tfs = (members[name] for name in _ARRAY_DTYPES)
    if len(row_ptr) != len(item_ids) + 1 or row_ptr[0] != 0 or np.any(np.diff(row_ptr) < 0):
        raise ValueError("row_ptr is not a monotone offset per item")
    if row_ptr[-1] != len(row_terms) or len(row_tfs) != len(row_terms):
        raise ValueError("row_ptr, row_terms and row_tfs disagree in length")
    if len(row_terms) and (row_terms.min() < 0 or row_terms.max() >= len(terms) or row_tfs.min() < 1):
        raise ValueError("a term id or term frequency is out of range")
    return InvertedIndex(item_ids, terms, row_ptr, row_terms, row_tfs, *fingerprint)


def load_index(path) -> InvertedIndex:
    """Read an index written by :func:`save_index`; any other content is a ValueError.

    Nothing in the file can run code: numpy's .npy reader refuses object
    arrays unless told otherwise, and every member is checked before use.
    """
    with open(path, "rb") as handle:
        if handle.read(1) == b"\x80":  # the first byte of every version 1 artifact
            raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact (version 1 format; rerun qvqpp index)")
        handle.seek(0)
        try:
            with zipfile.ZipFile(handle) as archive:
                members = {
                    name: np.lib.format.read_array(archive.open(f"{name}.npy"))
                    for name in (*_JSON_MEMBERS, *_ARRAY_DTYPES)
                }
            return _index_from(members)
        except _READ_ERRORS as exc:
            raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact ({exc})") from None
