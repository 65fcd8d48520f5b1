from __future__ import annotations

import random

import pytest

import oracles
from qvqpp import (
    Document,
    bm25_retrieve,
    build_index,
    load_index,
    make_pseudo_query,
    save_index,
    tokenize,
)

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


class TestBuildIndex:
    def test_shared_term_has_two_postings(self):
        index = build_index([("a", "apple pie"), ("b", "apple tart")])
        assert len(index.postings["apple"]) == 2

    def test_empty_collection(self):
        index = build_index([])
        assert index.size == 0
        assert bm25_retrieve(index, ["anything"], 5).entries == []

    def test_all_stopword_item_has_length_zero(self):
        index = build_index([("a", "the of and"), ("b", "apple")])
        assert index.item_lengths[index.ordinal_of["a"]] == 0

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate item id"):
            build_index([("a", "x"), ("a", "y")])

    def test_invariants(self):
        index = build_index(TOY_CORPUS)
        for term, plist in index.postings.items():
            ordinals = [o for o, _ in plist]
            assert ordinals == sorted(ordinals)
            assert sum(tf for _, tf in plist) == index.collection_freqs[term]
            assert len(plist) == index.doc_freqs[term]
        assert index.avgdl == pytest.approx(index.total_tokens / index.size)


class TestBm25Retrieve:
    def test_single_doc_corpus(self):
        index = build_index([("only", "solar panel wattage")])
        assert bm25_retrieve(index, ["solar"], 3).doc_ids() == ["only"]

    def test_out_of_vocabulary(self):
        index = build_index(TOY_CORPUS)
        assert bm25_retrieve(index, ["zzzz"], 5).entries == []

    def test_empty_term_bag(self):
        index = build_index(TOY_CORPUS)
        assert bm25_retrieve(index, [], 5).entries == []

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


class TestPersistence:
    def test_reload_gives_identical_retrieval(self, tmp_path):
        index = build_index(TOY_CORPUS)
        path = tmp_path / "toy.idx"
        save_index(index, path)
        reloaded = load_index(path)
        for terms in (["coffee"], ["espresso", "crema"], ["water", "temperature"]):
            assert bm25_retrieve(index, terms, 10).entries == bm25_retrieve(reloaded, terms, 10).entries

    def test_totals_computed_on_first_read_after_load(self, tmp_path):
        # an artifact holds no cached totals, so those written before they were cached load alike
        index = build_index(TOY_CORPUS)
        path = tmp_path / "toy.idx"
        save_index(index, path)
        reloaded = load_index(path)
        assert "total_tokens" not in vars(reloaded) and "avgdl" not in vars(reloaded)
        assert reloaded.total_tokens == sum(index.item_lengths)
        assert reloaded.avgdl == sum(index.item_lengths) / index.size
        assert vars(reloaded)["avgdl"] == reloaded.avgdl

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
