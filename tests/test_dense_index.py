from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qvqpp import RankedList, knn_cosine, load_vectors, store_from_arrays


def knn_ranked(store, query, depth, exclude=()):
    """``knn_cosine``'s rows as a ranked list of their ids, excluding the rows of the ids in ``exclude``."""
    rows, sims = knn_cosine(store, query, depth, [store.index_of[item_id] for item_id in exclude])
    return RankedList("", [(store.ids[row], sim) for row, sim in zip(rows.tolist(), sims.tolist())])


def knn_full_sort(store, query_vec, depth, exclude=()):
    """knn_cosine as one lexsort of the whole store by (similarity desc, id asc): the form partitioning replaced."""
    q = np.asarray(query_vec, dtype=np.float64)
    qnorm = float(np.linalg.norm(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (store.matrix @ q) / (store.norms * qnorm)
    sims = np.where(store.norms == 0.0, -np.inf, sims)
    order = np.lexsort((np.asarray(store.ids), -sims))
    stop = np.flatnonzero(sims[order] == -np.inf)  # -inf rows sort last, and the first of them ends the ranking
    order = order[: stop[0] if len(stop) else len(order)]
    order = order[~np.isin(order, np.fromiter(exclude, np.int64))][:depth]
    return order, sims[order]


def write_store(tmp_path, rows, header=None):
    lines = [header or f"{len(rows)} {len(next(iter(rows.values())))}"]
    for row_id, values in rows.items():
        lines.append(row_id + " " + " ".join(str(v) for v in values))
    path = tmp_path / "emb.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadVectors:
    def test_basic(self, tmp_path):
        path = write_store(tmp_path, {"a": [1, 0, 0], "b": [0, 1, 0]})
        store = load_vectors(path)
        assert store.dim == 3 and len(store) == 2
        assert list(store.vector("a")) == [1.0, 0.0, 0.0]

    def test_row_dim_mismatch_names_id(self, tmp_path):
        path = write_store(tmp_path, {"a": [1, 0]}, header="1 3")
        with pytest.raises(ValueError, match="'a'"):
            load_vectors(path)

    def test_count_mismatch(self, tmp_path):
        path = write_store(tmp_path, {"a": [1, 0, 0], "b": [0, 1, 0]}, header="3 3")
        with pytest.raises(ValueError, match="declares 3"):
            load_vectors(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 0\na 0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate id"):
            load_vectors(path)

    def test_zero_norm_row_tolerated(self, tmp_path):
        path = write_store(tmp_path, {"z": [0, 0], "a": [1, 0]})
        store = load_vectors(path)
        assert "z" in store

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("a 1e200 1e200", "is not finite"),
            ("a 1e-200 1e-200", "underflows to 0 for a non-zero vector"),
            ("a 3e-160 4e-160", "is 4.99997e-160, below 1.49e-154"),
        ],
    )
    def test_norm_that_cosine_cannot_use_refused(self, tmp_path, row, problem):
        # 1e200 squared overflows and 1e-200 squared underflows, so the row's cosines would read 0.0 or nan
        path = tmp_path / "emb.txt"
        path.write_text(f"3 2\nb 1 0\n{row}\nc 0 1\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_vectors(path)
        assert str(raised.value) == f"{path}:3: the norm of row 'a' {problem}"

    def test_all_zero_row_still_tolerated_beside_tiny_ones(self, tmp_path):
        path = write_store(tmp_path, {"z": [0, 0], "t": [1e-150, 0], "a": [1e150, 1e150]})
        store = load_vectors(path)
        assert list(store.norms[:2]) == [0.0, 1e-150]
        assert [doc_id for doc_id, _ in knn_ranked(store, [1.0, 0.0], depth=3).entries] == ["t", "a"]

    @pytest.mark.parametrize(
        "vector, problem",
        [
            ([1e200, 1e200], "is not finite"),
            ([np.inf, 0.0], "is not finite"),
            ([np.nan, 1.0], "is not finite"),
            ([1e-200, -1e-200], "underflows to 0 for a non-zero vector"),
        ],
    )
    def test_store_from_arrays_refuses_the_same_norms(self, vector, problem):
        with pytest.raises(ValueError) as raised:
            store_from_arrays(["b", "a", "c"], [[1.0, 0.0], vector, [0.0, 1.0]])
        assert str(raised.value) == f"store_from_arrays: the norm of row 'a' {problem}"
        assert len(store_from_arrays(["z", "b"], [[0.0, 0.0], [1.0, 0.0]])) == 2

    def test_subnormal_squares_refused(self):
        # the squares of 3e-160 and 4e-160 are subnormal: the norm 4.99997e-160 has lost digits,
        # and a's cosine with [3, 4] would read 1.0000055664551364
        with pytest.raises(ValueError) as raised:
            store_from_arrays(["a", "b", "c"], [[3e-160, 4e-160], [3, 4], [1, 0]])
        assert str(raised.value) == "store_from_arrays: the norm of row 'a' is 4.99997e-160, below 1.49e-154"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_vectors(path)

    @pytest.mark.parametrize(
        "header, message",
        [("-1 2", "invalid header count=-1 dim=2"), ("1", "header must be 'count dim', got ['1']")],
    )
    def test_header_faults_name_line_one(self, tmp_path, header, message):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:1: " + re.escape(message)):
            load_vectors(path)

    # int() reads "0_2" as 2 and "\u0662" (an Arabic-Indic digit) as 2
    @pytest.mark.parametrize("header", ["0_2 2", "2 \u0662", "\uff12 2"])
    def test_header_that_is_not_plain_ascii_rejected(self, tmp_path, header):
        path = write_store(tmp_path, {"a": [1, 0], "b": [0, 1]}, header=header)
        with pytest.raises(ValueError, match=r"emb\.txt:1: non-integer header fields"):
            load_vectors(path)

    # float() reads "1_0" as 10.0 and "\u0661.\u0665" as 1.5
    @pytest.mark.parametrize("value", ["1_0", "\u0661.\u0665", "\uff11"])
    def test_value_that_is_not_plain_ascii_rejected(self, tmp_path, value):
        path = write_store(tmp_path, {"a_\u00e9": [1, 0], "b": [0, value]})
        with pytest.raises(ValueError, match=r"emb\.txt:3: non-numeric value in row 'b'"):
            load_vectors(path)

    def test_ids_with_underscores_and_non_ascii_characters_kept(self, tmp_path):
        store = load_vectors(write_store(tmp_path, {"q_\u0661": [1, 0], "1_0": [0, 2]}))
        assert store.ids == ["q_\u0661", "1_0"] and store.vector("1_0").tolist() == [0.0, 2.0]


class TestKnnCosine:
    def test_self_similarity_first(self):
        store = store_from_arrays(["x", "y"], [[0.5, 0.5], [1.0, 0.0]])
        result = knn_ranked(store, [0.5, 0.5], depth=2)
        assert result.doc_ids()[0] == "x"
        assert result.entries[0][1] == pytest.approx(1.0)

    def test_orthogonal_zero_included(self):
        store = store_from_arrays(["a"], [[0.0, 1.0]])
        result = knn_ranked(store, [1.0, 0.0], depth=1)
        assert result.entries == [("a", pytest.approx(0.0))]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(13)
        vectors = {f"v{i}": [rng.uniform(-1, 1) for _ in range(4)] for i in range(10)}
        store = store_from_arrays(sorted(vectors), [vectors[k] for k in sorted(vectors)])
        query = [rng.uniform(-1, 1) for _ in range(4)]
        got = knn_ranked(store, query, depth=3)
        want = oracles.cosine_rank_all(vectors, query)[:3]
        assert got.doc_ids() == [vec_id for vec_id, _ in want]
        for (_, g), (_, w) in zip(got.entries, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_zero_norm_query_rejected(self):
        store = store_from_arrays(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="zero norm"):
            knn_ranked(store, [0.0, 0.0], depth=1)
        with pytest.raises(ValueError, match="query vector norm 4.99997e-160 is below 1.49e-154"):
            knn_ranked(store, [3e-160, 4e-160], depth=1)

    @pytest.mark.parametrize("query, problem", [
        ([np.inf, 0.0], "non-finite component"),
        ([-np.inf, 1.0], "non-finite component"),
        ([np.nan, 0.0], "non-finite component"),
        ([1e300, 1e300], "norm is not finite"),
    ])
    def test_non_finite_query_rejected_without_a_warning(self, query, problem):
        store = store_from_arrays(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(all="raise"), pytest.raises(ValueError, match=problem):
            knn_ranked(store, query, depth=2)

    def test_zero_norm_stored_never_returned(self):
        store = store_from_arrays(["z", "a"], [[0.0, 0.0], [1.0, 1.0]])
        result = knn_ranked(store, [1.0, 0.0], depth=5)
        assert result.doc_ids() == ["a"]

    def test_exclude(self):
        store = store_from_arrays(["a", "b"], [[1.0, 0.0], [0.9, 0.1]])
        result = knn_ranked(store, [1.0, 0.0], depth=5, exclude={"a"})
        assert result.doc_ids() == ["b"]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(20, 6))
        store = store_from_arrays([f"v{i}" for i in range(20)], matrix)
        query = rng.normal(size=6)
        base = knn_ranked(store, query, depth=20)
        scaled = knn_ranked(store, query * 1234.5, depth=20)
        assert base.doc_ids() == scaled.doc_ids()
        for (_, s1), (_, s2) in zip(base.entries, scaled.entries):
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_depth_beyond_size_returns_all_finite(self):
        store = store_from_arrays(["z", "a", "b"], [[0, 0], [1, 0], [0, 1]])
        result = knn_ranked(store, [1.0, 1.0], depth=50)
        assert sorted(result.doc_ids()) == ["a", "b"]

    def test_tie_breaks_by_id(self):
        store = store_from_arrays(["b", "a"], [[2.0, 0.0], [1.0, 0.0]])
        result = knn_ranked(store, [1.0, 0.0], depth=2)
        assert result.doc_ids() == ["a", "b"]

    def test_returns_store_rows_and_similarities_and_excludes_by_row(self):
        store = store_from_arrays(["b", "a", "c"], [[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rows, sims = knn_cosine(store, [1.0, 0.0], depth=3, exclude=(1,))
        assert (rows.dtype, sims.dtype) == (np.int64, np.float64)
        assert rows.tolist() == [0, 2] and sims.tolist() == [1.0, 0.0]

    def test_dim_mismatch(self):
        store = store_from_arrays(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            knn_ranked(store, [1.0, 0.0, 0.0], depth=1)


# Stores of up to 12 rows of small integer components, so that similarities tie often (equal and parallel rows), with
# zero rows among them. Ids hold no NUL: a numpy string array, which the full sort orders by, drops trailing NULs.
_ids = st.text(st.characters(exclude_characters="\x00"), max_size=3)
_stores = st.integers(1, 12).flatmap(lambda count: st.tuples(
    st.lists(_ids, min_size=count, max_size=count, unique=True),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=count, max_size=count),
))


class TestKnnAgainstFullSort:
    @settings(max_examples=300, deadline=None)
    @given(_stores, st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any), st.integers(1, 15),
           st.sets(st.integers(0, 11)))
    @example(  # three rows tie at the depth-th similarity; the zero row and the excluded one never count
        store=(["d", "c", "b", "a", "z"], [[1, 0, 0], [2, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        query=[1, 0, 0], depth=2, exclude={1},
    )
    def test_equals_the_full_sort(self, store, query, depth, exclude):
        ids, vectors = store
        store = store_from_arrays(ids, vectors)
        exclude = [row for row in sorted(exclude) if row < len(ids)]
        rows, sims = knn_cosine(store, query, depth, exclude)
        want_rows, want_sims = knn_full_sort(store, query, depth, exclude)
        assert rows.dtype == want_rows.dtype and rows.tolist() == want_rows.tolist()
        assert sims.tolist() == want_sims.tolist()
