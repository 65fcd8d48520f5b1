from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
import random
import tempfile
import time
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from index_reference import build_index_arrays, index_from_rows
from qvqpp import (
    Document,
    RankedList,
    bm25_retrieve,
    build_index,
    build_relevance_model,
    collection_score,
    load_index,
    make_pseudo_query,
    parse_collection,
    rm_rerank,
    save_index,
    tokenize,
)
from qvqpp import text_index
from qvqpp.corpus_io import iter_tsv
from qvqpp.predictors import COLLECTION_SCORE_FLOOR
from qvqpp.text_index import (
    INDEX_VERSION,
    TOKENIZER_SHA256,
    bm25_ordinals,
    pseudo_query_terms,
    ranked_list,
)
from test_bench_corpus import load_generator

TOY_CORPUS = [
    ("d1", "coffee beans need a medium roast for balanced flavor"),
    ("d2", "grind coffee beans right before brewing coffee"),
    ("d3", "water temperature matters more than the filter"),
    ("d4", "espresso espresso espresso crema"),
    ("d5", "a short note on tea"),
]


class TestTokenize:
    def test_spec_sentence(self):
        # "what" and "is" are stopwords; "s" from the possessive survives
        assert tokenize("What is Paula Deen's brother") == ["paula", "deen", "s", "brother"]

    def test_empty(self):
        assert tokenize("") == []

    def test_all_stopwords(self):
        assert tokenize("THE the The") == []

    def test_non_alphanumeric_split(self):
        assert tokenize("solar-panel, rooftop/array (v2)") == ["solar", "panel", "rooftop", "array", "v2"]

    def test_digits_kept(self):
        assert tokenize("top 100 results") == ["top", "100", "results"]

    def test_every_code_point_splits_as_the_pattern(self):
        # lone surrogates included; U+212A (Kelvin sign) lowercases to "k" and joins its neighbours
        texts = [f"x{chr(code)}y" for code in range(0x110000)]
        assert [text for text in texts if tokenize(text) != oracles.tokenize_regex(text)] == []
        assert tokenize("x\u212ay") == ["xky"]

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(" -_'aZ09\u212a\u0130\u00e9\ud800") | st.characters(exclude_categories=())))
    @example("The İstanbul KELVIN-\u212aelvin ſun \udfff été 42")
    def test_arbitrary_text_splits_as_the_pattern(self, text):
        assert tokenize(text) == oracles.tokenize_regex(text)


class TestBuildIndex:
    def test_shared_term_has_two_postings(self):
        index = build_index([("a", "apple pie"), ("b", "apple tart")])
        ordinals, tfs = index.postings("apple")
        assert ordinals.tolist() == [0, 1] and tfs.tolist() == [1, 1]

    def test_empty_collection(self):
        index = build_index([])
        assert index.size == 0
        assert bm25_retrieve(index, ["anything"], 5).entries == []

    def test_all_stopword_item_has_length_zero(self):
        index = build_index([("a", "the of and"), ("b", "apple")])
        assert index.lengths[index.ordinal_of["a"]] == 0

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate item id"):
            build_index([("a", "x"), ("a", "y")])

    def test_invariants(self):
        index = build_index(TOY_CORPUS)
        assert index.terms == sorted(set(index.terms))
        assert index.row_ptr[0] == 0 and np.all(np.diff(index.row_ptr) >= 0)
        for ordinal, (item_id, text) in enumerate(TOY_CORPUS):
            lo, hi = index.row_ptr[ordinal], index.row_ptr[ordinal + 1]
            row = dict(zip([index.terms[t] for t in index.row_terms[lo:hi]], index.row_tfs[lo:hi].tolist()))
            assert index.row_terms[lo:hi].tolist() == sorted(set(index.row_terms[lo:hi].tolist()))
            assert row == Counter(tokenize(text))
            assert index.lengths[ordinal] == len(tokenize(text))
        for tid, term in enumerate(index.terms):
            ordinals, tfs = index.postings(term)
            assert ordinals.tolist() == sorted(ordinals.tolist())
            assert tfs.sum() == index.cf[tid]
            assert len(ordinals) == index.col_ptr[tid + 1] - index.col_ptr[tid]
        assert index.avgdl == pytest.approx(index.total_tokens / index.size)


# Texts that stress build_index's one-string pass over a batch: the word "|" and the "\n" that end each
# text there, other line breaks (\r, \x85, \u2028), 0x7F, U+212A (Kelvin sign, lowercases to "k"), "İ"
# (lowercases to "i" and a combining dot), lone surrogates, "Σ" (lowercased by context), digits,
# mixed-case stopwords, and empty or all-stopword texts.
BATCH_WORDS = ["the", "The", "OF", "and", "Alpha", "beta", "x1", "42", "ß", "--", "é", "|", "a|b", "\n", "x\ny",
               "\r", "\x7f", "\x85", "\u2028", "\u212a", "\u212aelvin", "İ", "İx", "\ud800", "a\udfffb", "ΑΣ", ""]
batch_texts = st.lists(st.sampled_from(BATCH_WORDS), max_size=8).map(" ".join) | st.lists(
    st.sampled_from(BATCH_WORDS), max_size=4).map("".join)

# ids without repeats, and texts mixing words, stopwords, case, punctuation and non-ASCII, empty ones included
index_items = st.lists(st.tuples(st.text(max_size=4), batch_texts), max_size=10, unique_by=lambda item: item[0])


class TestIndexAgainstCounterBuilder:
    @settings(max_examples=200, deadline=None)
    @given(index_items)
    @example([])
    @example([("a", ""), ("b", "the of"), ("c", "")])
    def test_arrays_and_artifact_bytes_match(self, items):
        index = build_index(items)
        want = oracles.build_index_counter(items)
        del want["source_sha256"]  # the oracle also hashes the items, which an index no longer records
        assert index.item_ids == want["item_ids"] and index.terms == want["terms"]
        for name in ("row_ptr", "row_terms", "row_tfs"):
            got = getattr(index, name)
            assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
        with tempfile.TemporaryDirectory() as scratch:
            save_index(index, Path(scratch) / "built.idx")
            oracle_index = index_from_rows(**want, tokenizer_sha256=TOKENIZER_SHA256, file_sha256="")
            save_index(oracle_index, Path(scratch) / "oracle.idx")
            assert (Path(scratch) / "built.idx").read_bytes() == (Path(scratch) / "oracle.idx").read_bytes()

    def test_postings_order_past_two_byte_term_ids(self):
        # 70,000 terms: the stored postings of ids past 2**16 agree with the rows
        rng = random.Random(7)
        words = [f"w{i:05d}" for i in range(70_000)]
        items = [("all", " ".join(words))] + [(f"d{doc}", " ".join(rng.choices(words, k=20_000))) for doc in range(3)]
        index = build_index(items)
        assert len(index.terms) > 1 << 16
        col_ptr, ordinals, tfs = index.col_ptr, index.col_ordinals, index.col_tfs
        order = np.argsort(index.row_terms, kind="stable")
        rows = np.repeat(np.arange(index.size), np.diff(index.row_ptr))
        assert np.array_equal(ordinals, rows[order]) and np.array_equal(tfs, index.row_tfs[order])
        assert ordinals.dtype == tfs.dtype == np.int32
        assert np.array_equal(np.diff(col_ptr), np.bincount(index.row_terms, minlength=len(index.terms)))

    def test_row_view_past_two_byte_ordinals(self):
        # 70,000 items: ordinals past 2**16 need the row view's high-digit pass to sort after the low ones
        rng = random.Random(8)
        words = ["the", *(f"w{i}" for i in range(300))]
        items = [(f"i{n:05d}", " ".join(rng.choices(words, k=rng.randint(0, 4)))) for n in range(70_000)]
        index = build_index(items)
        want = oracles.build_index_counter(items)
        for name in ("row_ptr", "row_terms", "row_tfs"):
            got = getattr(index, name)
            assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name


def _assert_members_equal_the_reference(items):
    index = build_index(items)
    for name, want in build_index_arrays(items).items():
        got = getattr(index, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name


class TestIndexAgainstReferenceBuilder:
    """build_index against the per-item builder it replaced (``tests/index_reference.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(batch_texts, max_size=40), st.sampled_from([1, 2, 5, 16, 64, 4096]))
    @example(["x\ny", "|", "", "the Of", "\u212a\u0130\ud800"], 1)
    def test_members_equal_the_reference(self, texts, batch_chars):
        # a small bound closes a batch after every item or few, so each batch boundary is crossed
        with mock.patch.object(text_index, "_BATCH_CHARS", batch_chars):
            _assert_members_equal_the_reference([(f"i{n}", text) for n, text in enumerate(texts)])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("batches", [1, 2])
    def test_item_counts_around_the_batch_bound(self, batches, extra):
        # texts of 64 characters: a batch closes after exactly _BATCH_CHARS // 64 of them
        rng = random.Random(10 * batches + extra)
        words = ["the", "Alpha", "beta", "x1", "é", "|", "\u212a", "OF"]
        count = batches * (text_index._BATCH_CHARS // 64) + extra
        texts = [(" ".join(rng.choices(words, k=30)) + " " * 64)[:64] for _ in range(count)]
        _assert_members_equal_the_reference([(f"i{n}", text) for n, text in enumerate(texts)])

    @pytest.mark.parametrize("file_name", ["collection.tsv", "train_queries.tsv"])
    def test_peak_memory_is_not_above_the_reference(self, tmp_path, file_name):
        load_generator()(tmp_path, "T", 1, 10)
        items = list(iter_tsv(tmp_path / file_name, require_text=False))
        peaks = {}
        for build in (build_index_arrays, build_index):
            tracemalloc.start()
            try:
                build(items)
                peaks[build] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[build_index] <= peaks[build_index_arrays], peaks


class TestBm25Retrieve:
    @pytest.mark.parametrize("items", [TOY_CORPUS, []], ids=["toy", "empty-index"])
    @pytest.mark.parametrize("terms", [[], ["zzzz"], ["zzzz", "zzzz"]])
    def test_empty_run_keeps_its_dtypes(self, items, terms):
        ordinals, scores = bm25_ordinals(build_index(items), terms, 5)
        assert len(ordinals) == len(scores) == 0
        assert ordinals.dtype == np.int32 and scores.dtype == np.float64

    def test_single_doc_corpus(self):
        index = build_index([("only", "solar panel wattage")])
        assert bm25_retrieve(index, ["solar"], 3).doc_ids() == ["only"]

    def test_out_of_vocabulary(self):
        index = build_index(TOY_CORPUS)
        assert bm25_retrieve(index, ["zzzz"], 5).entries == []

    def test_empty_term_bag(self):
        index = build_index(TOY_CORPUS)
        assert bm25_retrieve(index, [], 5).entries == []

    def test_ordinal_core_matches_ranked_list(self):
        index = build_index(TOY_CORPUS)
        terms = ["coffee", "beans", "water", "coffee"]
        ordinals, scores = bm25_ordinals(index, terms, 4)
        assert ordinals.dtype == np.int32 and scores.dtype == np.float64
        run = bm25_retrieve(index, terms, 4, query_id="q")
        assert ranked_list(index, (ordinals, scores), "q") == run
        assert [index.item_ids[o] for o in ordinals] == run.doc_ids() and scores.tolist() == run.scores()

    def test_toy_corpus_matches_oracle(self):
        index = build_index(TOY_CORPUS)
        terms = ["coffee", "beans"]
        got = bm25_retrieve(index, terms, depth=10, k1=0.9, b=0.4)
        expected = oracles.bm25_rank_all(TOY_CORPUS, terms, k1=0.9, b=0.4)
        assert got.doc_ids() == [doc_id for doc_id, _ in expected]
        for (_, got_score), (_, want_score) in zip(got.entries, expected):
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_insertion_order_invariance(self):
        shuffled = list(TOY_CORPUS)
        random.Random(3).shuffle(shuffled)
        terms = ["coffee", "water", "espresso"]
        a = bm25_retrieve(build_index(TOY_CORPUS), terms, 10)
        b = bm25_retrieve(build_index(shuffled), terms, 10)
        assert a.doc_ids() == b.doc_ids()
        for (_, sa), (_, sb) in zip(a.entries, b.entries):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_score_zero_iff_no_shared_terms(self):
        rng = random.Random(11)
        vocabulary = [f"w{i}" for i in range(12)]
        items = [
            (f"d{i}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 8))))
            for i in range(25)
        ]
        index = build_index(items)
        terms = rng.sample(vocabulary, 3)
        returned = set(bm25_retrieve(index, terms, depth=25).doc_ids())
        for item_id, text in items:
            shares = bool(set(tokenize(text)) & set(terms))
            assert (item_id in returned) == shares

    def test_random_corpus_matches_oracle_exactly(self):
        rng = random.Random(99)
        vocabulary = [f"t{i}" for i in range(40)]
        items = [
            (f"d{i:03d}", " ".join(rng.choices(vocabulary, k=rng.randint(2, 20))))
            for i in range(300)
        ]
        index = build_index(items)
        for _ in range(10):
            terms = rng.choices(vocabulary, k=rng.randint(1, 4))  # repeats allowed
            got = bm25_retrieve(index, terms, depth=300)
            want = oracles.bm25_rank_all(items, terms)
            assert got.doc_ids() == [doc_id for doc_id, _ in want]

    def test_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            bm25_retrieve(build_index(TOY_CORPUS), ["coffee"], 0)


class TestMakePseudoQuery:
    def test_frequency_dominance(self):
        doc = Document("d", "apple apple banana")
        assert make_pseudo_query(doc, 1).terms == ("apple",)

    def test_tie_breaks_alphabetical(self):
        doc = Document("d", "cherry banana apple")
        assert make_pseudo_query(doc, 2).terms == ("apple", "banana")

    def test_long_passage_matches_counting_oracle(self):
        rng = random.Random(5)
        words = [f"w{i}" for i in range(60)]
        text = " ".join(rng.choices(words, k=400))
        doc = Document("d", text)
        assert list(make_pseudo_query(doc, 20).terms) == oracles.top_frequency_terms(text, 20)

    def test_all_stopword_doc_is_empty(self):
        assert make_pseudo_query(Document("d", "the of and is"), 5).terms == ()

    def test_short_doc_returns_fewer(self):
        assert len(make_pseudo_query(Document("d", "apple banana"), 20).terms) == 2

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            make_pseudo_query(Document("d", "x"), 0)


class TestPseudoQueryTerms:
    @staticmethod
    def assert_rows_match_texts(documents):
        index = build_index((d.id, d.text) for d in documents)
        longest = int(np.diff(index.row_ptr).max())
        for m in (1, 3, 20, longest + 1):
            for ordinal, doc in enumerate(documents):
                assert pseudo_query_terms(index, ordinal, m) == make_pseudo_query(doc, m).terms

    def test_fixture_corpus_rows_match_texts(self, corpus):
        self.assert_rows_match_texts(corpus.documents)

    def test_scale_t_corpus_rows_match_texts(self, tmp_path):
        load_generator()(tmp_path, "T", 1, 10)
        self.assert_rows_match_texts(parse_collection(tmp_path / "collection.tsv"))

    def test_all_stopword_document_is_empty(self):
        documents = [Document("a", "the of and is"), Document("b", "apple apple banana")]
        index = build_index((d.id, d.text) for d in documents)
        assert pseudo_query_terms(index, 0, 5) == make_pseudo_query(documents[0], 5).terms == ()
        assert pseudo_query_terms(index, 1, 5) == ("apple", "banana")

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            pseudo_query_terms(build_index(TOY_CORPUS), 0, 0)


class TestPersistence:
    def test_reload_gives_identical_retrieval(self, tmp_path):
        index = build_index(TOY_CORPUS)
        path = tmp_path / "toy.idx"
        save_index(index, path)
        reloaded = load_index(path)
        for terms in (["coffee"], ["espresso", "crema"], ["water", "temperature"]):
            assert bm25_retrieve(index, terms, 10).entries == bm25_retrieve(reloaded, terms, 10).entries

    def test_loaded_index_holds_its_stored_members_and_derives_the_rest_on_first_use(self, tmp_path, monkeypatch):
        # the artifact holds the postings, lengths, cf and id ranks; the row view is derived when read
        index = build_index(TOY_CORPUS)
        path = tmp_path / "toy.idx"
        save_index(index, path)
        reloaded = load_index(path)
        for name in ("col_ptr", "col_ordinals", "col_tfs", "lengths", "cf", "id_rank"):
            assert np.array_equal(vars(reloaded)[name], getattr(index, name)), name
        assert reloaded.lengths.tolist() == [len(tokenize(text)) for _, text in TOY_CORPUS]
        derived = ("ordinal_of", "_rows", "total_tokens", "avgdl")
        assert not set(derived) & set(vars(reloaded))
        idf_read = []
        idf = text_index.InvertedIndex.idf
        monkeypatch.setattr(text_index.InvertedIndex, "idf", lambda index, tid: idf_read.append(tid) or idf(index, tid))
        bm25_ordinals(reloaded, ["coffee", "beans", "coffee", "absent"], 3)
        assert "_rows" not in vars(reloaded)
        assert sorted(idf_read) == sorted([reloaded.term_id("beans"), reloaded.term_id("coffee")])
        assert reloaded.total_tokens == sum(len(tokenize(text)) for _, text in TOY_CORPUS)
        assert reloaded.avgdl == reloaded.total_tokens / index.size
        assert vars(reloaded)["avgdl"] == reloaded.avgdl
        reloaded.rows([0])
        assert np.array_equal(vars(reloaded)["_rows"][0], index.row_ptr)

    def test_bad_artifact_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a"):
            load_index(path)

    @pytest.mark.parametrize("cut", [0, 1, 10, -1])
    def test_truncated_artifact_rejected(self, tmp_path, cut):
        path = tmp_path / "toy.idx"
        save_index(build_index(TOY_CORPUS), path)
        data = path.read_bytes()
        path.write_bytes(data[: cut % len(data)])
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact"):
            load_index(path)

    def test_garbage_artifact_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"\x80\x04garbage that is no pickle")
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact"):
            load_index(path)

    @pytest.mark.parametrize("index", [None, {"postings": {}}, "qvqpp"])
    def test_payload_without_index_rejected(self, tmp_path, index):
        import pickle

        path = tmp_path / "foreign.idx"
        path.write_bytes(pickle.dumps({"format": "qvqpp.inverted_index", "version": 1, "index": index}))
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact"):
            load_index(path)


class _Touch:
    """Unpickling this object creates ``path``: a stand-in for a payload that runs code."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _json_member(value):
    return np.frombuffer(json.dumps(value).encode("ascii"), dtype=np.uint8)


def _members(tmp_path):
    path = tmp_path / "good.idx"
    save_index(build_index(TOY_CORPUS), path)
    with np.load(path) as archive:
        return dict(archive)


def _write_members(path, members):
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in members.items():
            with archive.open(f"{name}.npy", "w") as member:
                np.lib.format.write_array(member, np.asarray(array), allow_pickle=True)


def _header(**changes):
    header = {"format": "qvqpp.inverted_index", "version": INDEX_VERSION, "tokenizer_sha256": "0" * 64,
              "file_sha256": "0" * 64}
    header.update(changes)
    return _json_member({k: v for k, v in header.items() if v is not None})


def _set(array, position, value):
    """A copy of ``array`` with ``value`` at ``position``."""
    array = array.copy()
    array[position] = value
    return array


def _swap(array, i, j):
    return _set(array, [i, j], array[[j, i]])


def _repeat_in_a_term(m):
    # the first term with two postings names its first item twice
    start = int(np.flatnonzero(np.diff(m["col_ptr"]) >= 2)[0])
    ordinals = m["col_ordinals"]
    return {**m, "col_ordinals": _set(ordinals, m["col_ptr"][start] + 1, ordinals[m["col_ptr"][start]])}


MALFORMED = {
    "col_ptr-not-monotone": lambda m: {**m, "col_ptr": _swap(m["col_ptr"], 1, 2)},
    "col_ptr-short": lambda m: {**m, "col_ptr": m["col_ptr"][:-1]},
    "col_ptr-float": lambda m: {**m, "col_ptr": m["col_ptr"].astype(np.float64)},
    "col_ptr-2d": lambda m: {**m, "col_ptr": m["col_ptr"].reshape(1, -1)},
    "col_ordinals-short": lambda m: {**m, "col_ordinals": m["col_ordinals"][:-1]},
    "col_tfs-short": lambda m: {**m, "col_tfs": m["col_tfs"][:-1]},
    "ordinal-past-items": lambda m: {**m, "col_ordinals": _set(m["col_ordinals"], 0, 10_000)},
    "ordinal-negative": lambda m: {**m, "col_ordinals": _set(m["col_ordinals"], 0, -1)},
    "ordinal-repeated-in-a-term": _repeat_in_a_term,
    "tf-zero": lambda m: {**m, "col_tfs": _set(m["col_tfs"], 0, 0)},
    "col_tfs-int64": lambda m: {**m, "col_tfs": m["col_tfs"].astype(np.int64)},
    "lengths-short": lambda m: {**m, "lengths": m["lengths"][:-1]},
    "lengths-negative": lambda m: {**m, "lengths": _set(m["lengths"], [0, 1], m["lengths"][[0, 1]] + [-100, 100])},
    "lengths-disagreeing": lambda m: {**m, "lengths": _set(m["lengths"], 0, m["lengths"][0] + 1)},
    "lengths-int32": lambda m: {**m, "lengths": m["lengths"].astype(np.int32)},
    "cf-long": lambda m: {**m, "cf": np.append(m["cf"], 0)},
    "cf-disagreeing": lambda m: {**m, "cf": _set(m["cf"], 0, m["cf"][0] + 1)},
    "id_rank-short": lambda m: {**m, "id_rank": m["id_rank"][:-1]},
    "id_rank-past-items": lambda m: {**m, "id_rank": _set(m["id_rank"], 0, len(m["id_rank"]))},
    "id_rank-repeated": lambda m: {**m, "id_rank": _set(m["id_rank"], 0, m["id_rank"][1])},
    "id_rank-out-of-id-order": lambda m: {**m, "id_rank": _swap(m["id_rank"], 0, 1)},
    "terms-unsorted": lambda m: {**m, "terms": _json_member(sorted(json.loads(m["terms"].tobytes()), reverse=True))},
    "terms-not-strings": lambda m: {**m, "terms": _json_member(list(range(len(json.loads(m["terms"].tobytes())))))},
    "item-ids-duplicated": lambda m: {**m, "item_ids": _json_member(["d1"] * len(TOY_CORPUS))},
    "item-ids-object-array": lambda m: {**m, "item_ids": np.array([d for d, _ in TOY_CORPUS], dtype=object)},
    "header-foreign": lambda m: {**m, "header": _header(format="something-else")},
    "header-no-tokenizer-digest": lambda m: {**m, "header": _header(tokenizer_sha256=None)},
    "header-no-file-digest": lambda m: {**m, "header": _header(file_sha256=None)},
    "header-file-digest-not-string": lambda m: {**m, "header": _header(file_sha256=0)},
    "header-not-json": lambda m: {**m, "header": np.frombuffer(b"{not json", dtype=np.uint8)},
    "header-int64": lambda m: {**m, "header": m["header"].astype(np.int64)},
    "member-missing": lambda m: {k: v for k, v in m.items() if k != "col_tfs"},
    "id_rank-missing": lambda m: {k: v for k, v in m.items() if k != "id_rank"},
}


class TestArtifactSafety:
    def test_round_trip_keeps_the_matrix(self, tmp_path):
        index = build_index(TOY_CORPUS)
        save_index(index, tmp_path / "toy.idx")
        reloaded = load_index(tmp_path / "toy.idx")
        for field in dataclasses.fields(index):
            got, want = getattr(reloaded, field.name), getattr(index, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want

    def test_same_items_write_identical_bytes(self, tmp_path, monkeypatch):
        save_index(build_index(TOY_CORPUS), tmp_path / "a.idx")
        monkeypatch.setattr(time, "time", lambda: 1e9)  # a clock years apart must not show in the bytes
        save_index(build_index(TOY_CORPUS), tmp_path / "b.idx")
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.idx", "b.idx"]

    @pytest.mark.parametrize("version", [1, 2])
    def test_pickle_payload_never_runs(self, tmp_path, version):
        marker = tmp_path / "ran"
        path = tmp_path / "documents.idx"
        path.write_bytes(pickle.dumps({"format": "qvqpp.inverted_index", "version": version, "index": _Touch(marker)}))
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact.*rerun qvqpp index"):
            load_index(path)
        assert not marker.exists()

    def test_pickled_member_never_runs(self, tmp_path):
        marker = tmp_path / "ran"
        members = _members(tmp_path)
        members["terms"] = np.array([_Touch(marker)], dtype=object)
        path = tmp_path / "documents.idx"
        _write_members(path, members)
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact"):
            load_index(path)
        assert not marker.exists()

    def test_old_version_header_asks_for_a_rebuild(self, tmp_path):
        members = _members(tmp_path)
        members["header"] = _header(version=1)
        path = tmp_path / "old.idx"
        _write_members(path, members)
        with pytest.raises(ValueError, match=r"not a qvqpp.inverted_index artifact \(version 1, not 5; rerun qvqpp index"):
            load_index(path)

    @pytest.mark.parametrize("version, fields", [(2, ["source_sha256", "tokenizer_sha256"]),
                                                 (3, ["source_sha256", "tokenizer_sha256", "file_sha256"]),
                                                 (4, ["tokenizer_sha256", "file_sha256"])])
    def test_older_artifacts_ask_for_a_rebuild(self, tmp_path, version, fields):
        # a version 2 header, as written before the file digest, a version 3 one, as written with the item digest,
        # and a version 4 one, as written with the rows in place of the postings: no second reader is kept for any
        index = build_index(TOY_CORPUS)
        members = {
            "header": _json_member({"format": "qvqpp.inverted_index", "version": version,
                                    **{field: "0" * 64 for field in fields}}),
            "item_ids": _json_member(index.item_ids), "terms": _json_member(index.terms),
            "row_ptr": index.row_ptr, "row_terms": index.row_terms, "row_tfs": index.row_tfs,
        }
        path = tmp_path / f"v{version}.idx"
        _write_members(path, members)
        with pytest.raises(ValueError, match=rf"not a qvqpp.inverted_index artifact \(version {version}, not 5; "
                                             r"rerun qvqpp index\)$"):
            load_index(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_members_rejected(self, tmp_path, name):
        path = tmp_path / "bad.idx"
        _write_members(path, MALFORMED[name](_members(tmp_path)))
        with pytest.raises(ValueError, match="not a qvqpp.inverted_index artifact"):
            load_index(path)

    def test_unmutated_members_load(self, tmp_path):
        # the writer above is sound: members it writes unchanged make a loadable index
        path = tmp_path / "good-again.idx"
        _write_members(path, _members(tmp_path))
        assert load_index(path).item_ids == [d for d, _ in TOY_CORPUS]

    def test_built_from_file_names_bytes_and_tokenizer(self, tmp_path):
        source = tmp_path / "collection.tsv"
        source.write_bytes(b"d1\tcoffee beans\n")
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        index = dataclasses.replace(build_index([("d1", "coffee beans")]), file_sha256=digest)
        save_index(index, tmp_path / "documents.idx")
        assert load_index(tmp_path / "documents.idx").file_sha256 == digest
        assert index.built_from_file(source)
        assert index.fingerprint == f"qvqpp.inverted_index/5/{digest}/{TOKENIZER_SHA256}"
        assert not dataclasses.replace(index, tokenizer_sha256="0" * 64).built_from_file(source)
        assert not build_index([("d1", "coffee beans")]).built_from_file(source)  # built from items, not a file
        source.write_bytes(b"d1\tcoffee beans\r\n")  # other bytes, even though they parse to the same items
        assert not index.built_from_file(source)


WORDS = ["the", "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
random_corpora = st.lists(st.lists(st.sampled_from(WORDS), max_size=10), min_size=1, max_size=12).map(
    lambda texts: [(f"d{i:02d}", " ".join(words)) for i, words in enumerate(texts)]
)
query_bags = st.lists(st.sampled_from(WORDS + ["absent"]), max_size=6)
bm25_params = st.sampled_from([(0.9, 0.4), (1.2, 0.75), (0.5, 1.0), (2.0, 0.0)])
# pairs that share a k1 or a b, so a gain table keyed by one of them alone answers wrongly
shared_bm25_params = st.sampled_from([(0.9, 0.4), (0.9, 0.75), (1.2, 0.4), (1.2, 0.75), (2.0, 0.0)])


class TestIndexProperties:
    @settings(max_examples=300, deadline=None)
    @given(random_corpora, query_bags, bm25_params, st.integers(1, 12))
    @example(  # beta and gamma have equal df, so d04 and d09 tie exactly and round apart
        items=[("d00", "alpha beta"), ("d01", "beta"), ("d02", "beta gamma"), ("d03", "beta gamma"),
               ("d04", "alpha beta gamma"), ("d05", "beta gamma"), ("d06", "gamma"), ("d07", "gamma"),
               ("d08", "gamma"), ("d09", "alpha beta beta beta beta")],
        terms=["alpha", "gamma", "alpha", "alpha", "beta"], params=(2.0, 0.0), depth=1,
    )
    def test_bm25_matches_oracles(self, items, terms, params, depth):
        k1, b = params
        index = build_index(items)
        got = bm25_retrieve(index, terms, depth, k1=k1, b=b)
        assert got.entries == oracles.bm25_postings_loop(items, terms, k1=k1, b=b)[:depth]
        # The brute-force oracle adds a repeated query term once per repeat and the
        # library multiplies by its count, so an exact tie between items (two terms
        # with equal df) can round apart: only items within 1e-12 may swap.
        full = bm25_retrieve(index, terms, len(items), k1=k1, b=b)
        want = dict(oracles.bm25_rank_all(items, terms, k1=k1, b=b))
        assert sorted(full.doc_ids()) == sorted(want)
        for doc_id, score in full.entries:
            assert score == pytest.approx(want[doc_id], abs=1e-12)
        for (earlier, _), (later, _) in zip(full.entries, full.entries[1:]):
            assert want[earlier] >= want[later] - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(random_corpora, query_bags, st.lists(shared_bm25_params, min_size=2, max_size=4), st.integers(1, 12))
    @example(  # d01, d02 and d03 tie exactly across the depth cut: all three pass the partition, d01 is kept
        items=[("d00", "alpha beta"), ("d01", "alpha"), ("d02", "alpha"), ("d03", "alpha"), ("d04", "beta")],
        terms=["alpha", "beta"], params_seq=[(0.9, 0.4), (0.9, 0.75), (0.9, 0.4)], depth=3,
    )
    def test_one_index_serves_several_bm25_params(self, items, terms, params_seq, depth):
        # each (k1, b) in turn is answered from its own gain table, bit for bit
        index = build_index(items)
        for k1, b in params_seq:
            run = ranked_list(index, bm25_ordinals(index, terms, depth, k1=k1, b=b), "")
            assert run.entries == oracles.bm25_postings_loop(items, terms, k1=k1, b=b)[:depth]

    @settings(max_examples=150, deadline=None)
    @given(random_corpora, query_bags, st.sampled_from([0.5, 10.0, 1000.0]))
    def test_round_trip_keeps_retrieval_and_relevance_model(self, items, terms, mu):
        index = build_index(items)
        with tempfile.TemporaryDirectory() as scratch:
            save_index(index, Path(scratch) / "index.idx")
            reloaded = load_index(Path(scratch) / "index.idx")
        run = bm25_retrieve(index, terms, len(items), query_id="q")
        assert bm25_retrieve(reloaded, terms, len(items), query_id="q").entries == run.entries
        if not run.entries:
            return
        model = build_relevance_model(index, run, mu=mu)
        assert build_relevance_model(reloaded, run, mu=mu).term_weights == model.term_weights
        head = RankedList("q", [(doc_id, 1.0) for doc_id, _ in items])
        want = rm_rerank(model, head, index, depth=len(head), mu=mu)
        assert rm_rerank(model, head, reloaded, depth=len(head), mu=mu).entries == want.entries


def _table_reference(index, k1, b):
    """Each term id's idf and every posting's gain, in postings order, in one pass over the whole index.

    The form the gains were computed in before they were computed per term;
    the lengths and totals come from the postings, not the stored members.
    """
    df = np.diff(index.col_ptr)
    distinct = np.flatnonzero(np.bincount(df))
    idf_of_df = np.zeros(int(df.max(initial=0)) + 1)
    idf_of_df[distinct] = [math.log(1.0 + (index.size - d + 0.5) / (d + 0.5)) for d in distinct.tolist()]
    idf = idf_of_df[df]
    lengths = np.bincount(index.col_ordinals, weights=index.col_tfs, minlength=index.size).astype(np.int64)
    avgdl = int(index.col_tfs.sum()) / index.size
    tfs = index.col_tfs
    norm = k1 * (1.0 - b + b * lengths[index.col_ordinals] / avgdl)
    return idf, np.repeat(idf, df) * tfs * (k1 + 1.0) / (tfs + norm), lengths, avgdl


def _bm25_reference(index, terms, depth, k1, b):
    """bm25_ordinals over :func:`_table_reference`'s table, every hit sorted by (score desc, id asc)."""
    term_id = {term: tid for tid, term in enumerate(index.terms)}
    query = [(term_id[term], query_tf) for term, query_tf in Counter(terms).items() if term in term_id]
    if not query:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
    idf, posting_gains, lengths, avgdl = _table_reference(index, k1, b)
    spans = [np.arange(index.col_ptr[tid], index.col_ptr[tid + 1]) for tid, _ in query]
    positions = np.concatenate(spans)
    ordinals = index.col_ordinals[positions]
    if all(query_tf == 1 for _, query_tf in query):
        gains = posting_gains[positions]
    else:
        tfs = index.col_tfs[positions]
        weights = np.repeat([query_tf * idf[tid] for tid, query_tf in query], [len(span) for span in spans])
        norm = k1 * (1.0 - b + b * lengths[ordinals] / avgdl)
        gains = weights * tfs * (k1 + 1.0) / (tfs + norm)
    scores = np.bincount(ordinals, weights=gains, minlength=index.size)
    hits = np.flatnonzero(scores > 0.0)
    rank_of = {item_id: rank for rank, item_id in enumerate(sorted(index.item_ids))}
    hits = hits[np.lexsort(([rank_of[index.item_ids[o]] for o in hits.tolist()], -scores[hits]))][:depth]
    return hits.astype(np.int32), scores[hits]


def _collection_score_reference(index, terms, k1, b):
    """collection_score with each idf read from :func:`_table_reference`'s table and cf summed from the postings."""
    idf, _, lengths, avgdl = _table_reference(index, k1, b)
    total = int(lengths.sum())
    term_id = {term: tid for tid, term in enumerate(index.terms)}
    score = 0.0
    for term, query_tf in Counter(terms).items():
        if term not in term_id:
            continue
        tid = term_id[term]
        cf = int(index.col_tfs[index.col_ptr[tid]:index.col_ptr[tid + 1]].sum())
        norm = k1 * (1.0 - b + b * total / avgdl)
        score += query_tf * float(idf[tid]) * cf * (k1 + 1.0) / (cf + norm)
    return score if score > 0.0 else COLLECTION_SCORE_FLOOR


# the words index_items' texts tokenize to, "the" (a stopword, so never indexed) and a word no text holds
BAG_WORDS = ["alpha", "beta", "x1", "42", "b", "x", "y", "k", "kelvin", "the", "absent"]


class TestGainsPerTerm:
    """Gains computed for each query's postings only give the floats the whole-table form gave."""

    @settings(max_examples=300, deadline=None)
    @given(index_items, st.lists(st.tuples(st.lists(st.sampled_from(BAG_WORDS), max_size=6), bm25_params,
                                           st.integers(1, 12)), min_size=1, max_size=4))
    @example(  # x1 and 42 each in one item of equal length: i0 and i1 tie exactly at the depth cut
        items=[("i1", "x1 y"), ("i0", "42 y"), ("i2", "beta")], queries=[(["x1", "42"], (0.9, 0.4), 1)],
    )
    @example(  # a repeated term, an unknown one and the empty bag, then the term alone
        items=[("a", "alpha beta beta"), ("b", "beta"), ("c", "")],
        queries=[(["beta", "beta", "absent"], (1.2, 0.75), 2), ([], (0.9, 0.4), 3), (["beta"], (1.2, 0.75), 1)],
    )
    def test_bm25_ordinals_and_collection_score_equal_the_table_form(self, items, queries):
        index = build_index(items)
        with tempfile.TemporaryDirectory() as scratch:
            save_index(index, Path(scratch) / "index.idx")
            loaded = load_index(Path(scratch) / "index.idx")
        for terms, (k1, b), depth in queries:
            want_ordinals, want_scores = _bm25_reference(index, terms, depth, k1, b)
            for each in (index, loaded):
                ordinals, scores = bm25_ordinals(each, terms, depth, k1=k1, b=b)
                assert ordinals.dtype == np.int32 and scores.dtype == np.float64
                assert ordinals.tolist() == want_ordinals.tolist()
                assert scores.tolist() == want_scores.tolist()
                if index.size:
                    assert collection_score(each, terms, k1=k1, b=b) == _collection_score_reference(index, terms, k1, b)
