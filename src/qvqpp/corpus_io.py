"""Readers and writers for the on-disk formats used across the toolkit.

Formats:

- queries / collection: TSV, ``id<TAB>text``, one record per line
- run: TREC 6-column whitespace format, ``qid Q0 docid rank score tag``
- qrels: TREC 4-column format, ``qid 0 docid grade``
- score TSV (predictions, ground-truth metrics): ``id<TAB>value``
- embeddings: header ``count dim``, then ``id`` followed by ``dim`` floats
  (parsed by :mod:`qvqpp.dense_index`)

All parsers are strict: malformed input, a ``nan``, an infinite number, a
number with a ``_`` or a non-ASCII character or a byte that is not UTF-8
included, raises :class:`ValueError` naming the offending line instead of
being silently repaired. Files are UTF-8.
Run ranks are ignored on read and recomputed from (score desc, doc_id asc)
so that downstream rank comparisons are reproducible.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

# query_id -> doc_id -> integer grade
Qrels = dict[str, dict[str, int]]

SCORE_DECIMALS = 6


class _Record:
    """An ``id`` and a ``text``, equal and hashed by value and shown as ``Query(id='q1', text='...')``.

    Built once per line of a file, so a plain class with slots rather than
    a dataclass; treat it as immutable, as it hashes by value.
    """

    __slots__ = ("id", "text")

    def __init__(self, id: str, text: str) -> None:
        self.id = id
        self.text = text

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id, self.text) == (other.id, other.text)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.text))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(id={self.id!r}, text={self.text!r})"


class Query(_Record):
    __slots__ = ()


class Document(_Record):
    __slots__ = ()


class RankedList:
    """An ordered retrieval result: (doc_id, score) pairs.

    Canonical order is score descending with ties broken by doc_id
    ascending; doc_ids are unique within a list. Use :meth:`from_scores`
    to build a list in canonical order from unordered pairs.
    """

    def __init__(self, query_id: str, entries: list[tuple[str, float]]) -> None:
        self.query_id = query_id
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.query_id, self.entries) == (other.query_id, other.entries)
        return NotImplemented

    @classmethod
    def from_scores(
        cls,
        query_id: str,
        pairs: Iterable[tuple[str, float]],
        depth: int | None = None,
    ) -> "RankedList":
        pairs = list(pairs)
        seen: set[str] = set()
        for doc_id, _ in pairs:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in ranked list for {query_id!r}")
            seen.add(doc_id)
        pairs.sort(key=lambda e: (-e[1], e[0]))
        if depth is not None:
            if depth < 1:
                raise ValueError(f"depth must be >= 1, got {depth}")
            pairs = pairs[:depth]
        return cls(query_id, pairs)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]

    def scores(self) -> list[float]:
        return [score for _, score in self.entries]

    def top(self, k: int) -> "RankedList":
        return RankedList(self.query_id, list(self.entries[:k]))

    def __len__(self) -> int:
        return len(self.entries)


class _Digesting(io.RawIOBase):
    """A binary file read through ``raw`` that feeds every byte it returns to ``digest`` first."""

    def __init__(self, raw, digest) -> None:
        self._raw, self._digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


@contextmanager
def open_utf8(path, digest=None) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 ends in a ValueError naming its line.

    Lines are counted as text mode ends them: at LF, CRLF or CR. With
    ``digest`` (a :mod:`hashlib` object), each block of bytes is fed to it as
    the decoder gets it, so once the file is read to its end the digest
    names exactly the bytes that were decoded, whatever happens to the file
    afterwards.
    """
    if digest is None:
        handle = open(path, "r", encoding="utf-8")
    else:
        handle = io.TextIOWrapper(io.BufferedReader(_Digesting(open(path, "rb", buffering=0), digest)), "utf-8")
    with handle:
        try:
            yield handle
        except UnicodeDecodeError:
            data = Path(path).read_bytes()  # text mode decodes in chunks, so find the first bad byte here
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{len((data[: exc.start] + b'x').splitlines())}: {exc}") from None
            raise  # the file changed since: report the error as raised


def parse_number(kind, text: str):
    """``kind(text)`` (int or float), refusing the ``_`` separators and non-ASCII digits that both also read."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return kind(text)


def _iter_lines(path, digest=None) -> Iterable[tuple[int, str]]:
    with open_utf8(path, digest) as handle:
        for number, raw in enumerate(handle, start=1):
            yield number, raw.rstrip("\r\n")


def iter_tsv(path, require_text: bool, digest=None) -> Iterator[tuple[str, str]]:
    """The (id, text) records of an ``id<TAB>text`` file, read as they are yielded.

    Duplicate ids, and with ``require_text`` empty texts, are rejected.
    ``digest`` is fed the file's bytes as :func:`open_utf8` describes.
    """
    seen: set[str] = set()
    for number, line in _iter_lines(path, digest):
        if "\t" not in line:
            raise ValueError(f"{path}:{number}: expected id<TAB>text, got {line!r}")
        item_id, text = line.split("\t", 1)
        if not item_id:
            raise ValueError(f"{path}:{number}: empty id")
        if item_id in seen:
            raise ValueError(f"{path}:{number}: duplicate id {item_id!r}")
        if require_text and not text.strip():
            raise ValueError(f"{path}:{number}: empty text for id {item_id!r}")
        seen.add(item_id)
        yield item_id, text


def parse_queries(path) -> list[Query]:
    """Read a ``id<TAB>text`` query file; duplicate ids and empty texts are rejected."""
    return [Query(i, t) for i, t in iter_tsv(path, require_text=True)]


def parse_collection(path) -> list[Document]:
    """Read a ``id<TAB>text`` document file; duplicate ids are rejected."""
    return [Document(i, t) for i, t in iter_tsv(path, require_text=False)]


def parse_run(path, depth: int) -> dict[str, RankedList]:
    """Read a TREC run file into per-query ranked lists.

    The stated rank column is ignored: entries are re-sorted by (score
    desc, doc_id asc) and then truncated to ``depth``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    pairs: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    for number, line in _iter_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"{path}:{number}: expected 6 whitespace-separated fields, got {len(fields)}")
        qid, _, doc_id, _, score_text, _ = fields
        try:
            score = parse_number(float, score_text)
        except ValueError:
            raise ValueError(f"{path}:{number}: non-numeric score {score_text!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"{path}:{number}: non-finite score {score_text!r}")
        if (qid, doc_id) in seen:
            raise ValueError(f"{path}:{number}: duplicate entry for query {qid!r}, doc {doc_id!r}")
        seen.add((qid, doc_id))
        pairs.setdefault(qid, []).append((doc_id, score))
    return {qid: RankedList.from_scores(qid, entries, depth=depth) for qid, entries in pairs.items()}


def write_run(lists: Mapping[str, RankedList], tag: str, path) -> None:
    """Write ranked lists as a TREC run file.

    Queries are written in ascending id order, ranks are 1-based
    positions, scores carry 6 decimal places. Round-trips through
    :func:`parse_run` up to that printed precision.
    """
    if not tag or any(ch.isspace() for ch in tag):
        raise ValueError(f"run tag must be non-empty and whitespace-free, got {tag!r}")
    with open(path, "w", encoding="utf-8") as handle:
        for qid in sorted(lists):
            for rank, (doc_id, score) in enumerate(lists[qid].entries, start=1):
                handle.write(f"{qid} Q0 {doc_id} {rank} {score:.{SCORE_DECIMALS}f} {tag}\n")


def parse_qrels(path) -> Qrels:
    """Read TREC qrels (``qid 0 docid grade``); grades are kept as given, including 0."""
    qrels: Qrels = {}
    for number, line in _iter_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"{path}:{number}: expected 4 whitespace-separated fields, got {len(fields)}")
        qid, _, doc_id, grade_text = fields
        try:
            grade = parse_number(int, grade_text)
        except ValueError:
            raise ValueError(f"{path}:{number}: non-integer grade {grade_text!r}") from None
        if grade < 0:
            raise ValueError(f"{path}:{number}: negative grade {grade} for ({qid!r}, {doc_id!r})")
        per_query = qrels.setdefault(qid, {})
        if doc_id in per_query:
            raise ValueError(f"{path}:{number}: duplicate judgment for ({qid!r}, {doc_id!r})")
        per_query[doc_id] = grade
    return qrels


def parse_score_tsv(path) -> dict[str, float]:
    """Read an ``id<TAB>value`` file (predictions or per-query metric values)."""
    scores: dict[str, float] = {}
    for number, line in _iter_lines(path):
        if "\t" not in line:
            raise ValueError(f"{path}:{number}: expected id<TAB>value, got {line!r}")
        item_id, value_text = line.split("\t", 1)
        if item_id in scores:
            raise ValueError(f"{path}:{number}: duplicate id {item_id!r}")
        try:
            value = parse_number(float, value_text)
        except ValueError:
            raise ValueError(f"{path}:{number}: non-numeric value {value_text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{number}: non-finite value {value_text!r}")
        scores[item_id] = value
    return scores


def write_score_tsv(scores: Mapping[str, float], path) -> None:
    """Write an ``id<TAB>value`` file in ascending id order, 6 decimal places."""
    with open(path, "w", encoding="utf-8") as handle:
        for item_id in sorted(scores):
            handle.write(f"{item_id}\t{scores[item_id]:.{SCORE_DECIMALS}f}\n")
