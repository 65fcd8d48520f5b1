"""The term matrix that ``qvqpp.text_index.build_index`` must reproduce member for member.

Tokenizes one item at a time with :func:`qvqpp.tokenize` and maps each
kept token through a ``defaultdict`` into an ``array``; then one sort of
int64 keys gives the rows. Kept as the reference for the batched build:
same rows (the index's derived row view), same dtypes, and the peak memory
the build must not exceed. :func:`index_from_rows` turns such rows into the
stored form of an index.
"""

from __future__ import annotations

import array
import itertools
from collections import defaultdict
from typing import Iterable

import numpy as np

from qvqpp import tokenize
from qvqpp.text_index import InvertedIndex


def build_index_arrays(items: Iterable[tuple[str, str]]) -> dict:
    """The members of the index of (id, text) pairs: ``item_ids``, ``terms``, ``row_ptr``, ``row_terms``, ``row_tfs``.

    Each token gets one int64 key, ``row * n_terms + term``; one sort of
    the keys puts the tokens of each (item, term) pair in one run, in row
    and then term order, and each run's length is the pair's term frequency.
    """
    items = list(items)
    item_ids: list[str] = []
    seen: set[str] = set()
    first_seen = defaultdict(itertools.count().__next__)  # term -> id in order of first occurrence
    tokens = array.array("i")  # every token's first-seen term id, item after item
    item_ends: list[int] = []  # each item's end in tokens
    for item_id, text in items:
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id!r}")
        seen.add(item_id)
        item_ids.append(item_id)
        tokens.extend(map(first_seen.__getitem__, tokenize(text)))
        item_ends.append(len(tokens))
    terms = sorted(first_seen)
    sorted_id = np.empty(len(terms), dtype=np.int64)
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms))
    ends = np.asarray(item_ends, dtype=np.int64)
    keys = np.repeat(np.arange(len(items), dtype=np.int64) * len(terms), np.diff(ends, prepend=0))
    keys += sorted_id[np.frombuffer(tokens, dtype=np.intc)]
    del tokens  # each per-token array is freed once read, so few are held at a time
    keys.sort()  # the tokens of row r stay at positions ends[r - 1]:ends[r]
    boundary = np.ones(len(keys) + 1, dtype=bool)  # where a run starts, and the end of the last one
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:-1])
    bounds = np.flatnonzero(boundary)
    row_ptr = np.zeros(len(items) + 1, dtype=np.int64)
    row_ptr[1:] = np.searchsorted(bounds[:-1], ends)
    pair_terms = keys[bounds[:-1]]
    del keys
    np.remainder(pair_terms, len(terms) or 1, out=pair_terms)  # no terms, no keys
    return {
        "item_ids": item_ids,
        "terms": terms,
        "row_ptr": row_ptr,
        "row_terms": pair_terms.astype(np.int32),
        "row_tfs": np.diff(bounds).astype(np.int32),
    }


def index_from_rows(item_ids, terms, row_ptr, row_terms, row_tfs, *, tokenizer_sha256: str,
                    file_sha256: str) -> InvertedIndex:
    """The index whose rows these are, its stored members computed from them apart from ``build_index``.

    The postings come from one lexsort of the entries by (term, row), the
    lengths and cf from per-row and per-term sums, the id ranks from the
    sorted ids.
    """
    entry_rows = np.repeat(np.arange(len(item_ids), dtype=np.int32), np.diff(row_ptr))
    order = np.lexsort((entry_rows, row_terms))
    col_ptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_terms, minlength=len(terms)), out=col_ptr[1:])
    lengths = np.array([int(row_tfs[lo:hi].sum()) for lo, hi in zip(row_ptr[:-1], row_ptr[1:])], dtype=np.int64)
    cf = np.zeros(len(terms), dtype=np.int64)
    np.add.at(cf, row_terms, row_tfs)
    rank_of = {item_id: rank for rank, item_id in enumerate(sorted(item_ids))}
    id_rank = np.array([rank_of[item_id] for item_id in item_ids], dtype=np.int32)
    return InvertedIndex(item_ids, terms, col_ptr, entry_rows[order], row_tfs[order], lengths, cf, id_rank,
                         tokenizer_sha256, file_sha256)
