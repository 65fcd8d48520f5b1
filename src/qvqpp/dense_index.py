"""Exact cosine-similarity kNN over externally precomputed embeddings.

No embedding model runs in-process: vectors are ingested from a text
dump (header ``count dim``, then one ``id f1 .. fdim`` row per vector)
and searched by exhaustive scan, so results are exact and deterministic.
A search returns store rows, not ids: the caller maps a row to whatever
it indexes by (``store.ids[row]`` is its id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

import numpy as np

from .corpus_io import open_utf8, parse_number
from .text_index import top_depth

# The square root of the smallest normal float64: a norm below it was summed from subnormal squares and lost digits.
MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclass(repr=False, eq=False)
class EmbeddingStore:
    """Immutable id -> vector store with precomputed norms and id ranks (each row's position in ascending id order)."""

    dim: int
    ids: list[str]
    matrix: np.ndarray  # shape (len(ids), dim), float64
    index_of: dict[str, int]
    norms: np.ndarray
    id_rank: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.index_of

    def vector(self, item_id: str) -> np.ndarray:
        return self.matrix[self.index_of[item_id]]


def _make_store(dim: int, ids: list[str], matrix: np.ndarray, where: Callable[[int], str]) -> EmbeddingStore:
    """The store of ``matrix``, refusing a row whose norm is not finite or, for a non-zero row, below :data:`MIN_NORM`.

    Such a norm would make every cosine with the row 0, nan or inexact
    (even above 1). ``where(r)`` locates row r in error messages.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | ((norms < MIN_NORM) & matrix.any(axis=1)))
    if len(bad):
        row = int(bad[0])
        if not np.isfinite(norms[row]):
            problem = "is not finite"
        elif norms[row] == 0.0:
            problem = "underflows to 0 for a non-zero vector"
        else:
            problem = f"is {norms[row]:.6g}, below {MIN_NORM:.3g}"
        raise ValueError(f"{where(row)}: the norm of row {ids[row]!r} {problem}")
    index_of = {item_id: i for i, item_id in enumerate(ids)}
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return EmbeddingStore(dim=dim, ids=ids, matrix=matrix, index_of=index_of, norms=norms, id_rank=id_rank)


def load_vectors(path) -> EmbeddingStore:
    """Read an embedding dump, checking the declared count and dimension and that every value and norm is finite.

    All-zero rows are tolerated at load; they are simply never returned
    by :func:`knn_cosine`. A non-zero row whose norm underflows to 0 or
    is below :data:`MIN_NORM` is refused.
    """
    with open_utf8(path) as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: header must be 'count dim', got {header!r}")
        try:
            count, dim = parse_number(int, header[0]), parse_number(int, header[1])
        except ValueError:
            raise ValueError(f"{path}:1: non-integer header fields {header!r}") from None
        if count < 0 or dim < 1:
            raise ValueError(f"{path}:1: invalid header count={count} dim={dim}")
        ids: list[str] = []
        rows: list[list[float]] = []
        seen: set[str] = set()
        for number, raw in enumerate(handle, start=2):
            fields = raw.split()
            if not fields:
                raise ValueError(f"{path}:{number}: empty row")
            row_id = fields[0]
            if row_id in seen:
                raise ValueError(f"{path}:{number}: duplicate id {row_id!r}")
            if len(fields) - 1 != dim:
                raise ValueError(
                    f"{path}:{number}: row {row_id!r} has {len(fields) - 1} values, expected {dim}"
                )
            try:
                values_text = raw[raw.index(row_id) + len(row_id):]  # checked once per row; an id may hold any text
                if "_" in values_text or not values_text.isascii():  # as parse_number refuses
                    raise ValueError(row_id)
                values = [float(v) for v in fields[1:]]
            except ValueError:
                raise ValueError(f"{path}:{number}: non-numeric value in row {row_id!r}") from None
            seen.add(row_id)
            ids.append(row_id)
            rows.append(values)
    if len(ids) != count:
        raise ValueError(f"{path}: header declares {count} vectors but file has {len(ids)}")
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))  # row r is on line r + 2: the header, then one line per row
        raise ValueError(f"{path}:{row + 2}: non-finite value in row {ids[row]!r}")
    return _make_store(dim, ids, matrix, lambda row: f"{path}:{row + 2}")


def store_from_arrays(ids: Sequence[str], matrix: np.ndarray) -> EmbeddingStore:
    """Build a store from in-memory vectors (mainly for tests/demos), with :func:`load_vectors`'s norm checks."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError("matrix must be 2-D with one row per id")
    if len(set(ids)) != len(ids):
        raise ValueError("ids must be unique")
    return _make_store(matrix.shape[1], list(ids), matrix, lambda row: "store_from_arrays")


def knn_cosine(
    store: EmbeddingStore, query_vec: Sequence[float], depth: int, exclude: Collection[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-scan top-``depth`` store rows by cosine similarity: the rows (int64) and similarities (float64).

    Rows in ``exclude`` are skipped. Ties are broken by id ascending.
    Stored zero-norm vectors score -inf and are never returned; a query
    with a non-finite component, or whose norm is not finite, is 0 or is
    below :data:`MIN_NORM`, is an error. The rows are cut to depth by
    :func:`~qvqpp.text_index.top_depth`.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query vector has shape {q.shape}, expected ({store.dim},)")
    if not np.isfinite(q).all():
        raise ValueError("query vector has a non-finite component")
    with np.errstate(over="ignore"):
        qnorm = float(np.linalg.norm(q))
    if not math.isfinite(qnorm):
        raise ValueError("query vector norm is not finite")
    if qnorm == 0.0:
        raise ValueError("query vector has zero norm")
    if qnorm < MIN_NORM:
        raise ValueError(f"query vector norm {qnorm:.6g} is below {MIN_NORM:.3g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (store.matrix @ q) / (store.norms * qnorm)
    rows = np.flatnonzero(store.norms != 0.0)
    rows = top_depth(rows[~np.isin(rows, np.fromiter(exclude, np.int64))], sims, store.id_rank, depth)
    return rows, sims[rows]
