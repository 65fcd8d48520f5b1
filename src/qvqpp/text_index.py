"""Tokenization, the term-matrix index, BM25 retrieval, pseudo-queries.

One tokenizer is used for documents and for queries-as-documents:
lowercase, split on every character outside ``[a-z0-9]``, drop words on
the built-in stopword list, no stemming. The split is one byte-table pass
over the lowercased text's UTF-8 bytes: every byte outside ``[a-z0-9]``
becomes a space, and a non-ASCII character encodes to bytes of 0x80 and
above only, so it separates words as ``[a-z0-9]+`` would. The stopword
list is part of the interface; changing it changes every downstream
ranking.

:func:`build_index` reads its items in one pass and calls no
:func:`tokenize` per item: it splits a batch of texts of a few thousand
characters as one string and maps its words to ids in one ``map`` pass,
with the stopwords seeded as the lowest ids so that an id mask drops them;
:func:`tokenize` stays the reference its rows are held to. An index names
the SHA-256 of the bytes of the file it was built from (format version 4),
and an index whose source file now holds other bytes is stale. It is saved
as an artifact of :mod:`qvqpp.artifacts`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

# before numpy, so that every module that importing qvqpp.cli loads compiles before numpy is resident (see cli)
from .artifacts import MemberSpec, _json_array, _json_value, _segment_pairs, read_artifact, write_artifact
import numpy as np

from .config import DEFAULT_B, DEFAULT_K1
from .corpus_io import Document, RankedList

INDEX_FORMAT = "qvqpp.inverted_index"
INDEX_VERSION = 4

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
# Maps each byte a word of _TOKEN_RE can hold to itself and every other byte to a space.
_SPLIT_TABLE = bytes(byte if _TOKEN_RE.fullmatch(chr(byte)) else 0x20 for byte in range(256))

# Digest of the tokenizer's data; an index built under another stopword list or pattern is stale.
TOKENIZER_SHA256 = hashlib.sha256(json.dumps([_TOKEN_RE.pattern, sorted(STOPWORDS)]).encode("ascii")).hexdigest()


# build_index splits and maps the texts of an item batch as one string: each text is followed by _TEXT_END,
# whose "\n" _BATCH_TABLE turns into the word "|". The stopwords, then "|", take the lowest ids of the
# mapping, so one id comparison drops the stopwords and finds where each text ends.
_TEXT_END = " \n "
_BATCH_TABLE = _SPLIT_TABLE[:0x0A] + b"|" + _SPLIT_TABLE[0x0B:]
_SEEDED = (*sorted(STOPWORDS), "|")
_END_ID = len(STOPWORDS)
# A batch closes once its texts hold this many characters, about 650 words (40 KB of word objects): small
# enough that a batch costs less memory than the index arrays, even at scale T; building the scale-S
# documents took no measurably different time with batches from 2 to 128 KiB.
_BATCH_CHARS = 1 << 12


def tokenize(text: str) -> list[str]:
    """Lowercase, split on runs of characters outside ``[a-z0-9]``, remove stopwords.

    ``surrogatepass`` encodes a lone surrogate to three bytes of 0x80 and
    above, so it separates words like any other non-ASCII character.
    """
    words = text.lower().encode("utf-8", "surrogatepass").translate(_SPLIT_TABLE).decode("ascii").split()
    return list(itertools.filterfalse(STOPWORDS.__contains__, words))


def file_sha256(path) -> str:
    """SHA-256 of the bytes of the file at ``path``, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
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


@dataclass(repr=False, eq=False)
class InvertedIndex:
    """A term-frequency matrix over a fixed item collection, kept in CSR form.

    Row ``o`` is the item ``item_ids[o]`` (ordinals follow input order).
    Its distinct terms are ``row_terms[row_ptr[o]:row_ptr[o + 1]]``, in
    ascending order, as ids into the sorted vocabulary ``terms``, and
    ``row_tfs`` holds their frequencies. The two SHA-256 strings name the
    tokenizer and the bytes of the file the items were read from (``""``
    when they came from no file). Nothing else is stored: ordinals, term
    ids, lengths, the postings (column) view, df, cf, the totals and one
    BM25 gain table per ``(k1, b)`` (each term's idf and each posting's
    gain, 8 bytes per posting) are derived on first use and kept, so an
    index must not be mutated after it is read.
    """

    item_ids: list[str]
    terms: list[str]
    row_ptr: np.ndarray
    row_terms: np.ndarray
    row_tfs: np.ndarray
    tokenizer_sha256: str
    file_sha256: str

    @property
    def size(self) -> int:
        return len(self.item_ids)

    def built_from_file(self, path) -> bool:
        """Whether the index was built by this tokenizer from a file with the bytes ``path`` now has.

        This is the one staleness rule: other bytes are another source, even
        when they would parse to the same items.
        """
        return self.tokenizer_sha256 == TOKENIZER_SHA256 and self.file_sha256 == file_sha256(path)

    @property
    def fingerprint(self) -> str:
        """Names the index's contents: its format version, the bytes of its source file and its tokenizer.

        An index built from no file has ``""`` for the file digest, so its
        fingerprint does not name its items.
        """
        return f"{INDEX_FORMAT}/{INDEX_VERSION}/{self.file_sha256}/{self.tokenizer_sha256}"

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
        """The postings view (col_ptr, ordinals, tfs); a stable sort keeps ordinals ascending per term.

        Ordinals and tfs are int32, as in the rows.

        The sort runs on 16-bit digits of the term ids, which numpy sorts by
        radix: the low digit first, then, for a vocabulary of more than
        2**16 terms, stably by the high digit, which gives the same order.
        """
        order = np.argsort((self.row_terms & 0xFFFF).astype(np.uint16), kind="stable")
        if len(self.terms) > 1 << 16:
            order = order[np.argsort((self.row_terms[order] >> 16).astype(np.uint16), kind="stable")]
        col_ptr = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.row_terms, minlength=len(self.terms)), out=col_ptr[1:])
        rows = np.repeat(np.arange(self.size, dtype=np.int32), np.diff(self.row_ptr))
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

        Built in one pass on the first call for ``(k1, b)`` and kept. The idf is
        ``ln(1 + (N - df + 0.5) / (df + 0.5)) >= 0``, one ``math.log`` per distinct df.
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


def _map_batch(texts: list[str], first_seen: defaultdict[str, int]) -> np.ndarray:
    """The kept first-seen term ids (int32) of ``texts``, text after text, each text's followed by _END_ID.

    The texts are joined, each followed by _TEXT_END, then lowercased,
    encoded, translated and split as one string, which gives each text the
    words :func:`tokenize` gives it: the spaces keep texts apart, and
    lowercasing depends on context only for the Greek capital sigma, which
    becomes a non-ASCII letter either way. A text's own ``"\\n"`` separates
    words as a space does, so it is replaced by one first; then each
    ``"\\n"`` left becomes the word ``"|"``, whose id marks a text's end.
    """
    joined = _TEXT_END.join([*texts, ""])
    if joined.count("\n") != len(texts):
        joined = _TEXT_END.join([text.replace("\n", " ") for text in texts] + [""])
    words = joined.lower().encode("utf-8", "surrogatepass").translate(_BATCH_TABLE).decode("ascii").split()
    del joined
    ids = np.fromiter(map(first_seen.__getitem__, words), dtype=np.int32, count=len(words))
    return ids[ids >= _END_ID]


def build_index(items: Iterable[tuple[str, str]]) -> InvertedIndex:
    """Build the term matrix of (id, text) pairs; ids must be unique.

    The index names no source file (``file_sha256`` is ``""``); a caller
    that read the items from a file sets the file's digest.

    The items are read once, in batches that close when their texts hold
    _BATCH_CHARS characters, so only one batch's words are ever held as
    objects. Each batch is split as one string and its words mapped to
    first-seen ids in one ``map`` pass (:func:`_map_batch`); the stopwords
    are seeded as the lowest ids, so an id mask drops them, and the kept ids
    are stored as int32. No :func:`tokenize` call runs, yet each row holds
    exactly ``Counter(tokenize(text))``.

    Each kept token then gets one int64 key, ``row * n_terms + term``; one
    sort of the keys puts the tokens of each (item, term) pair in one run, in
    row and then term order, and each run's length is the pair's term
    frequency.
    """
    item_ids: list[str] = []
    seen: set[str] = set()
    counter = itertools.count()
    # word -> id in order of first occurrence, the seeded words first: zip takes ids 0.. for them from counter
    first_seen = defaultdict(counter.__next__, zip(_SEEDED, counter))
    batches = []  # each batch's kept ids, each text's followed by _END_ID
    texts: list[str] = []
    size = 0
    for item_id, text in items:
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id!r}")
        seen.add(item_id)
        item_ids.append(item_id)
        texts.append(text)
        size += len(text)
        if size >= _BATCH_CHARS:
            batches.append(_map_batch(texts, first_seen))
            texts, size = [], 0
    batches.append(_map_batch(texts, first_seen))
    terms = sorted(itertools.islice(first_seen, len(_SEEDED), None))
    sorted_id = np.zeros(len(first_seen), dtype=np.int64)  # first-seen id -> id in the sorted vocabulary
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms))
    del first_seen
    marked = np.concatenate(batches)
    del batches
    at_end = marked == _END_ID
    ends = np.flatnonzero(at_end) - np.arange(len(item_ids))  # each item's end in tokens
    tokens = marked[~at_end]
    del marked, at_end
    keys = np.repeat(np.arange(len(item_ids), dtype=np.int64) * len(terms), np.diff(ends, prepend=0))
    keys += sorted_id[tokens]
    del tokens  # each per-token array is freed once read, so few are held at a time
    keys.sort()  # the tokens of row r stay at positions ends[r - 1]:ends[r]
    boundary = np.ones(len(keys) + 1, dtype=bool)  # where a run starts, and the end of the last one
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:-1])
    bounds = np.flatnonzero(boundary)
    row_ptr = np.zeros(len(item_ids) + 1, dtype=np.int64)
    row_ptr[1:] = np.searchsorted(bounds[:-1], ends)
    pair_terms = keys[bounds[:-1]]
    del keys
    np.remainder(pair_terms, len(terms) or 1, out=pair_terms)  # no terms, no keys
    return InvertedIndex(
        item_ids=item_ids,
        terms=terms,
        row_ptr=row_ptr,
        row_terms=pair_terms.astype(np.int32),
        row_tfs=np.diff(bounds).astype(np.int32),
        tokenizer_sha256=TOKENIZER_SHA256,
        file_sha256="",
    )


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
    if not query:  # bincount of no postings would give int64 scores
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
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


class PseudoQuery:
    """A term-bag query distilled from one document (highest-TF terms)."""

    def __init__(self, source_doc_id: str, terms: tuple[str, ...]) -> None:
        self.source_doc_id, self.terms = source_doc_id, terms


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


_INDEX_SCHEMA: dict[str, MemberSpec] = {
    "item_ids": (np.uint8, 1, _json_value),
    "terms": (np.uint8, 1, _json_value),
    "row_ptr": (np.int64, 1, None),
    "row_terms": (np.int32, 1, None),
    "row_tfs": (np.int32, 1, None),
}


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index as an artifact of plain arrays with a format/version header.

    The version 4 header holds the format name, the version and two SHA-256
    strings: of the tokenizer and of the source file's bytes
    (``file_sha256``, ``""`` for items read from no file), by which a
    command tells whether the index is stale. Two builds from the same
    items write the same bytes.
    """
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "tokenizer_sha256": index.tokenizer_sha256,
        "file_sha256": index.file_sha256,
    }
    write_artifact(path, header, {
        "item_ids": _json_array(index.item_ids),
        "terms": _json_array(index.terms),
        "row_ptr": index.row_ptr,
        "row_terms": index.row_terms,
        "row_tfs": index.row_tfs,
    })


def _index_from(header: dict, values: dict) -> InvertedIndex:
    """Check what spans the members read from an index artifact and assemble the index."""
    fingerprint = [header.get("tokenizer_sha256"), header.get("file_sha256")]
    if not all(isinstance(value, str) for value in fingerprint):
        raise ValueError("no tokenizer and file fingerprint")
    item_ids, terms, row_ptr, row_terms, row_tfs = (values[name] for name in _INDEX_SCHEMA)
    if not isinstance(item_ids, list) or not all(isinstance(i, str) for i in item_ids):
        raise ValueError("item ids are not a list of strings")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("duplicate item ids")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValueError("terms are not a list of strings")
    if any(a >= b for a, b in itertools.pairwise(terms)):
        raise ValueError("terms are not sorted and distinct")
    if len(row_ptr) != len(item_ids) + 1 or row_ptr[0] != 0 or np.any(np.diff(row_ptr) < 0):
        raise ValueError("row_ptr is not a monotone offset per item")
    if row_ptr[-1] != len(row_terms) or len(row_tfs) != len(row_terms):
        raise ValueError("row_ptr, row_terms and row_tfs disagree in length")
    if len(row_terms) and (row_terms.min() < 0 or row_terms.max() >= len(terms) or row_tfs.min() < 1):
        raise ValueError("a term id or term frequency is out of range")
    if np.any((np.diff(row_terms) <= 0) & _segment_pairs(row_ptr, len(row_terms))):
        raise ValueError("a row's term ids are not ascending and distinct")
    return InvertedIndex(item_ids, terms, row_ptr, row_terms, row_tfs, *fingerprint)


def load_index(path) -> InvertedIndex:
    """Read an index written by :func:`save_index`; any other content is a ValueError (see :func:`read_artifact`)."""
    with open(path, "rb") as handle:
        if handle.read(1) == b"\x80":  # the first byte of every version 1 artifact
            raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact (version 1 format; rerun qvqpp index)")
    return read_artifact(path, INDEX_FORMAT, INDEX_VERSION, _INDEX_SCHEMA, _index_from, hint="; rerun qvqpp index")
