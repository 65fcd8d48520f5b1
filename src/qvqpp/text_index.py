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
the SHA-256 of the bytes of the file it was built from (format version 5),
and an index whose source file now holds other bytes is stale. It is saved
as an artifact of :mod:`qvqpp.artifacts` that stores what query evaluation
reads: the term-major postings, each item's length, each term's collection
frequency and the id ranks. A command reading it derives nothing from the
whole collection: BM25 gains are computed for each query's postings only,
and the row view only when a row is read (relevance models, pseudo-queries).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import operator
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
INDEX_VERSION = 5

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
    """A term-frequency matrix over a fixed item collection, stored term-major as postings.

    Item ``o`` is ``item_ids[o]`` (ordinals follow input order). Term ``t``
    is ``terms[t]`` of the sorted vocabulary; the items holding it are
    ``col_ordinals[col_ptr[t]:col_ptr[t + 1]]``, ascending, with its
    frequencies in ``col_tfs`` at the same positions. ``lengths`` holds each
    item's token count, ``cf`` each term's count in the collection, and
    ``id_rank`` each ordinal's position in ascending id order (the ranking
    tie-break). The two SHA-256 strings name the tokenizer and the bytes of
    the file the items were read from (``""`` when they came from no file).
    All of these are stored, so a command reads them and sorts nothing. The
    row view (:meth:`rows`, ``row_ptr``, ``row_terms``, ``row_tfs``) and the
    ordinal of each id are derived on first use and kept, so an index must
    not be mutated after it is read.
    """

    item_ids: list[str]
    terms: list[str]
    col_ptr: np.ndarray
    col_ordinals: np.ndarray
    col_tfs: np.ndarray
    lengths: np.ndarray
    cf: np.ndarray
    id_rank: np.ndarray
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

    def term_id(self, term: str) -> int:
        """The id of ``term`` in the sorted vocabulary, or -1 when the index lacks it."""
        tid = bisect.bisect_left(self.terms, term)
        return tid if tid < len(self.terms) and self.terms[tid] == term else -1

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals (ascending) and term frequencies of the items containing ``term``."""
        tid = self.term_id(term)
        lo, hi = (self.col_ptr[tid], self.col_ptr[tid + 1]) if tid >= 0 else (0, 0)
        return self.col_ordinals[lo:hi], self.col_tfs[lo:hi]

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row view (row_ptr, term ids, tfs); a stable sort by ordinal keeps each row's term ids ascending.

        Term ids and tfs are int32, as in the postings.

        The sort runs on 16-bit digits of the ordinals, which numpy sorts by
        radix: the low digit first, then, for more than 2**16 items, stably
        by the high digit, which gives the same order.
        """
        order = np.argsort((self.col_ordinals & 0xFFFF).astype(np.uint16), kind="stable")
        if self.size > 1 << 16:
            order = order[np.argsort((self.col_ordinals[order] >> 16).astype(np.uint16), kind="stable")]
        row_ptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.col_ordinals, minlength=self.size), out=row_ptr[1:])
        term_ids = np.repeat(np.arange(len(self.terms), dtype=np.int32), np.diff(self.col_ptr))
        return row_ptr, term_ids[order], self.col_tfs[order]

    @property
    def row_ptr(self) -> np.ndarray:
        """Row ``o``'s entries of ``row_terms`` and ``row_tfs`` are at ``row_ptr[o]:row_ptr[o + 1]``."""
        return self._rows[0]

    @property
    def row_terms(self) -> np.ndarray:
        """Each row's term ids, ascending within the row."""
        return self._rows[1]

    @property
    def row_tfs(self) -> np.ndarray:
        return self._rows[2]

    def rows(self, ordinals: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term ids and tfs of the given rows, row after row; row i's entries are at bounds[i]:bounds[i + 1]."""
        row_ptr, row_terms, row_tfs = self._rows
        positions, bounds = _segments(row_ptr, ordinals)
        return row_terms[positions], row_tfs[positions], bounds

    def idf(self, tid: int) -> float:
        """BM25's ``ln(1 + (N - df + 0.5) / (df + 0.5)) >= 0`` of term id ``tid``."""
        df = int(self.col_ptr[tid + 1] - self.col_ptr[tid])
        return math.log(1.0 + (self.size - df + 0.5) / (df + 0.5))

    @cached_property
    def total_tokens(self) -> int:
        return int(self.lengths.sum())

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

    Each kept token then gets one int64 key, ``term << 32 | row``; one sort
    of the keys puts the tokens of each (term, item) pair in one run, in term
    and then row order, so the runs are the postings and each run's length
    is the pair's term frequency. A key's high half is its term and its low
    half its row, read with a shift and a mask. An item's length is its
    count of kept tokens, and a term's cf the sum of its postings' tfs.
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
    lengths = np.diff(ends, prepend=0)
    keys = (sorted_id << 32)[tokens]
    del tokens  # each per-token array is freed once read, so few are held at a time
    keys |= np.repeat(np.arange(len(item_ids), dtype=np.int64), lengths)
    keys.sort()
    boundary = np.ones(len(keys) + 1, dtype=bool)  # where a run starts, and the end of the last one
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:-1])
    bounds = np.flatnonzero(boundary)
    del boundary
    pair_keys = keys[bounds[:-1]]
    del keys
    col_tfs = np.diff(bounds).astype(np.int32)
    del bounds
    col_ordinals = (pair_keys & 0xFFFFFFFF).astype(np.int32)
    col_ptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_keys >> 32, minlength=len(terms)), out=col_ptr[1:])
    del pair_keys
    cf = np.add.reduceat(col_tfs, col_ptr[:-1], dtype=np.int64)  # every term has a posting: no segment is empty
    id_rank = np.empty(len(item_ids), dtype=np.int32)
    id_rank[sorted(range(len(item_ids)), key=item_ids.__getitem__)] = np.arange(len(item_ids), dtype=np.int32)
    return InvertedIndex(
        item_ids=item_ids,
        terms=terms,
        col_ptr=col_ptr,
        col_ordinals=col_ordinals,
        col_tfs=col_tfs,
        lengths=lengths,
        cf=cf,
        id_rank=id_rank,
        tokenizer_sha256=TOKENIZER_SHA256,
        file_sha256="",
    )


# A ranking as item ordinals (int32) and their scores (float64), best first.
OrdinalRun = tuple[np.ndarray, np.ndarray]


def ranked_list(index: InvertedIndex, run: OrdinalRun, query_id: str) -> RankedList:
    """The ranking ``run`` over ``index`` with item ids and Python float scores."""
    ordinals, scores = run
    return RankedList(query_id, list(zip([index.item_ids[o] for o in ordinals.tolist()], scores.tolist())))


def ordinal_run(index: InvertedIndex, ranked: RankedList) -> OrdinalRun:
    """``ranked`` as an :data:`OrdinalRun` over ``index``: an id the index lacks gets ordinal -1."""
    ordinals = [index.ordinal_of.get(doc_id, -1) for doc_id in ranked.doc_ids()]
    return np.array(ordinals, dtype=np.int32), np.array(ranked.scores(), dtype=np.float64)


def top_depth(rows: np.ndarray, scores: np.ndarray, id_rank: np.ndarray, depth: int) -> np.ndarray:
    """The first ``depth`` of ``rows`` by ``scores`` descending, then ``id_rank`` ascending (both indexed by row).

    Only the rows at or above the depth-th score (ties at the cut included, found with ``np.partition``) are sorted."""
    if len(rows) > depth:
        row_scores = scores[rows]
        rows = rows[row_scores >= np.partition(row_scores, len(rows) - depth)[len(rows) - depth]]
    return rows[np.lexsort((id_rank[rows], -scores[rows]))][:depth]


def bm25_ordinals(
    index: InvertedIndex,
    terms: Sequence[str],
    depth: int,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> OrdinalRun:
    """:func:`bm25_retrieve`'s ranking as the items' ordinals (int32) and their scores (float64).

    Each posting of a query term gains ``query_tf * idf * tf * (k1 + 1.0) /
    (tf + norm)``, computed for the query's postings only, in one pass, with
    the float operations of the whole-collection table this replaced
    (``1 * idf == idf``). The hits are cut to depth by :func:`top_depth`.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    bag = Counter(terms)
    query = [(tid, query_tf) for tid, query_tf in zip(map(index.term_id, bag), bag.values()) if tid >= 0]
    if not query:  # bincount of no postings would give int64 scores
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
    positions, bounds = _segments(index.col_ptr, [tid for tid, _ in query])
    ordinals = index.col_ordinals[positions]
    tfs = index.col_tfs[positions]
    # query_tf * idf per term, then the gain of every posting of the query's terms in one pass
    weights = np.repeat([query_tf * index.idf(tid) for tid, query_tf in query], np.diff(bounds))
    norm = k1 * (1.0 - b + b * index.lengths[ordinals] / index.avgdl)
    gains = weights * tfs * (k1 + 1.0) / (tfs + norm)
    # bincount adds each item's gains in query-term order, as a running sum from 0.0 would
    scores = np.bincount(ordinals, weights=gains, minlength=index.size)
    hits = top_depth(np.flatnonzero(scores > 0.0), scores, index.id_rank, depth)
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
    "col_ptr": (np.int64, 1, None),
    "col_ordinals": (np.int32, 1, None),
    "col_tfs": (np.int32, 1, None),
    "lengths": (np.int64, 1, None),
    "cf": (np.int64, 1, None),
    "id_rank": (np.int32, 1, None),
}


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index as an artifact of plain arrays with a format/version header.

    The version 5 header holds the format name, the version and two SHA-256
    strings: of the tokenizer and of the source file's bytes
    (``file_sha256``, ``""`` for items read from no file), by which a
    command tells whether the index is stale. The members are the ids, the
    vocabulary, the postings, the lengths, cf and the id ranks. Two builds
    from the same items write the same bytes.
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
        **{name: getattr(index, name) for name in ("col_ptr", "col_ordinals", "col_tfs", "lengths", "cf", "id_rank")},
    })


def _index_from(header: dict, values: dict) -> InvertedIndex:
    """Check what spans the members read from an index artifact and assemble the index.

    Beyond bounds, the checks cost a pass over each member and none
    recomputes one: ``lengths`` and ``cf`` must sum to the postings'
    total, and the ids must ascend strictly in the order of ``id_rank``
    (which makes them distinct). So counts moved between items, or between
    terms, with their sums kept are not found: such an artifact loads and
    scores by the counts it holds.
    """
    fingerprint = [header.get("tokenizer_sha256"), header.get("file_sha256")]
    if not all(isinstance(value, str) for value in fingerprint):
        raise ValueError("no tokenizer and file fingerprint")
    item_ids, terms, col_ptr, col_ordinals, col_tfs, lengths, cf, id_rank = (values[name] for name in _INDEX_SCHEMA)
    if not isinstance(item_ids, list) or not set(map(type, item_ids)) <= {str}:
        raise ValueError("item ids are not a list of strings")
    if not isinstance(terms, list) or not set(map(type, terms)) <= {str}:
        raise ValueError("terms are not a list of strings")
    if not all(map(operator.lt, terms, terms[1:])):
        raise ValueError("terms are not sorted and distinct")
    size = len(item_ids)
    if len(col_ptr) != len(terms) + 1 or col_ptr[0] != 0 or np.any(np.diff(col_ptr) < 0):
        raise ValueError("col_ptr is not a monotone offset per term")
    if col_ptr[-1] != len(col_ordinals) or len(col_tfs) != len(col_ordinals):
        raise ValueError("col_ptr, col_ordinals and col_tfs disagree in length")
    if len(col_ordinals) and (col_ordinals.min() < 0 or col_ordinals.max() >= size or col_tfs.min() < 1):
        raise ValueError("an ordinal or term frequency is out of range")
    if np.any((np.diff(col_ordinals) <= 0) & _segment_pairs(col_ptr, len(col_ordinals))):
        raise ValueError("a term's ordinals are not ascending and distinct")
    total = int(col_tfs.sum())
    for name, counts, count in (("lengths", lengths, size), ("cf", cf, len(terms))):
        if len(counts) != count or (count and counts.min() < 0) or int(counts.sum()) != total:
            raise ValueError(f"{name} is not {count} counts >= 0 summing to the postings' {total} tokens")
    if len(id_rank) != size or size and (id_rank.min() < 0 or id_rank.max() >= size):
        raise ValueError("id_rank is not a rank in range per item")
    order = np.zeros(size, dtype=np.int64)  # each rank's ordinal, once id_rank is a permutation
    order[id_rank] = np.arange(size)
    if not np.array_equal(id_rank[order], np.arange(size)):
        raise ValueError("id_rank is not a permutation")
    ranked = [item_ids[o] for o in order.tolist()]
    if not all(map(operator.lt, ranked, ranked[1:])):
        raise ValueError("the ids do not ascend strictly in id_rank order")
    return InvertedIndex(item_ids, terms, col_ptr, col_ordinals, col_tfs, lengths, cf, id_rank, *fingerprint)


def load_index(path) -> InvertedIndex:
    """Read an index written by :func:`save_index`; any other content is a ValueError (see :func:`read_artifact`)."""
    with open(path, "rb") as handle:
        if handle.read(1) == b"\x80":  # the first byte of every version 1 artifact
            raise ValueError(f"{path}: not a {INDEX_FORMAT} artifact (version 1 format; rerun qvqpp index)")
    return read_artifact(path, INDEX_FORMAT, INDEX_VERSION, _INDEX_SCHEMA, _index_from, hint="; rerun qvqpp index")
