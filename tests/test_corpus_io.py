from __future__ import annotations

import hashlib
import random

import pytest

from qvqpp import (
    Document,
    Query,
    RankedList,
    parse_collection,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_score_tsv,
    write_run,
    write_score_tsv,
)
from qvqpp.corpus_io import iter_tsv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("record", [Query, Document])
def test_records_behave_as_frozen_dataclasses_did(record):
    # keyword and positional construction, value equality and hashing, and the repr text
    item = record(id="q1", text="it's \"here\"")
    assert (item.id, item.text) == ("q1", "it's \"here\"")
    assert item == record("q1", "it's \"here\"") and hash(item) == hash(record("q1", "it's \"here\""))
    assert item != record("q1", "other") and item != record("q2", item.text)
    assert len({item, record("q1", item.text), record("q2", "x")}) == 2
    assert item != (item.id, item.text) and item != "q1"
    assert Query("q1", "t") != Document("q1", "t")
    assert repr(item) == f"{record.__name__}(id='q1', text='it\\'s \"here\"')"
    assert not hasattr(item, "__dict__")  # slots: no per-record dict


class TestParseQueries:
    def test_single_line(self, tmp_path):
        path = write(tmp_path / "q.tsv", "1048585\twhat is paula deen's brother\n")
        queries = parse_queries(path)
        assert len(queries) == 1
        assert queries[0].id == "1048585"
        assert queries[0].text == "what is paula deen's brother"

    def test_empty_file(self, tmp_path):
        assert parse_queries(write(tmp_path / "q.tsv", "")) == []

    def test_duplicate_id_names_id(self, tmp_path):
        path = write(tmp_path / "q.tsv", "7\tfirst\n7\tsecond\n")
        with pytest.raises(ValueError, match="'7'"):
            parse_queries(path)

    def test_missing_tab_names_line(self, tmp_path):
        path = write(tmp_path / "q.tsv", "1\tok\nbroken line\n")
        with pytest.raises(ValueError, match=":2"):
            parse_queries(path)

    def test_empty_text_rejected(self, tmp_path):
        path = write(tmp_path / "q.tsv", "1\t   \n")
        with pytest.raises(ValueError, match="empty text"):
            parse_queries(path)


class TestParseCollection:
    def test_basic(self, tmp_path):
        docs = parse_collection(write(tmp_path / "c.tsv", "d1\tsome passage text\n"))
        assert len(docs) == 1 and docs[0].id == "d1"

    def test_file_order_preserved(self, tmp_path):
        path = write(tmp_path / "c.tsv", "b\tx\na\ty\nc\tz\n")
        assert [d.id for d in parse_collection(path)] == ["b", "a", "c"]

    def test_missing_tab_names_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            parse_collection(write(tmp_path / "c.tsv", "no tab here\n"))


class TestParseRun:
    def test_two_lines(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d2 1 9.5 t\nq1 Q0 d1 2 7.0 t\n")
        runs = parse_run(path, depth=100)
        assert runs["q1"].entries == [("d2", 9.5), ("d1", 7.0)]

    def test_depth_truncation(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d2 1 9.5 t\nq1 Q0 d1 2 7.0 t\n")
        assert parse_run(path, depth=1)["q1"].entries == [("d2", 9.5)]

    def test_tie_breaks_by_doc_id(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d9 1 3.0 t\nq1 Q0 d3 2 3.0 t\n")
        assert parse_run(path, depth=10)["q1"].doc_ids() == ["d3", "d9"]

    def test_stated_ranks_ignored(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 low 1 1.0 t\nq1 Q0 high 2 5.0 t\n")
        assert parse_run(path, depth=10)["q1"].doc_ids() == ["high", "low"]

    def test_non_numeric_score(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d1 1 abc t\n")
        with pytest.raises(ValueError, match="non-numeric score"):
            parse_run(path, depth=10)

    # float() reads "\u0661.\u0665" (Arabic-Indic digits) as 1.5 and "1_0" as 10.0
    @pytest.mark.parametrize("score", ["\u0661.\u0665", "1_0", "\uff11.5"])
    def test_score_that_is_not_plain_ascii_rejected(self, tmp_path, score):
        path = write(tmp_path / "r.txt", f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(ValueError, match=r"r\.txt:2: non-numeric score"):
            parse_run(path, depth=10)

    def test_ids_with_underscores_and_non_ascii_characters_kept(self, tmp_path):
        path = write(tmp_path / "r.txt", "q_\u0661 Q0 d_\u00e9 1 2.5 t_x\n")
        assert parse_run(path, depth=10)["q_\u0661"].entries == [("d_\u00e9", 2.5)]

    def test_duplicate_doc_rejected(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_run(path, depth=10)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path / "r.txt", "q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError, match="6 whitespace-separated fields"):
            parse_run(path, depth=10)


class TestWriteRun:
    def test_ranks_are_positions(self, tmp_path):
        lists = {"q1": RankedList.from_scores("q1", [("d1", 2.0), ("d2", 1.0)])}
        out = tmp_path / "r.txt"
        write_run(lists, "tag", out)
        lines = out.read_text().splitlines()
        assert lines == ["q1 Q0 d1 1 2.000000 tag", "q1 Q0 d2 2 1.000000 tag"]

    def test_empty_map(self, tmp_path):
        out = tmp_path / "r.txt"
        write_run({}, "tag", out)
        assert out.read_text() == ""

    def test_round_trip_identity(self, tmp_path):
        lists = {
            "q2": RankedList.from_scores("q2", [("a", 1.25), ("b", 0.5)]),
            "q1": RankedList.from_scores("q1", [("d1", 3.5), ("d2", 3.5), ("d0", 0.125)]),
        }
        out = tmp_path / "r.txt"
        write_run(lists, "t", out)
        parsed = parse_run(out, depth=100)
        assert set(parsed) == set(lists)
        for qid in lists:
            assert parsed[qid].entries == lists[qid].entries

    def test_round_trip_random_property(self, tmp_path):
        rng = random.Random(7)
        lists = {}
        for qi in range(20):
            pairs = {}
            for di in range(rng.randint(1, 30)):
                # scores on the 1e-6 grid survive the printed precision
                pairs[f"d{di:02d}"] = round(rng.uniform(0, 10), 6)
            qid = f"q{qi:02d}"
            lists[qid] = RankedList.from_scores(qid, pairs.items())
        out = tmp_path / "r.txt"
        write_run(lists, "t", out)
        parsed = parse_run(out, depth=1000)
        assert {q: parsed[q].entries for q in parsed} == {q: lists[q].entries for q in lists}

    def test_bad_tag(self, tmp_path):
        with pytest.raises(ValueError, match="tag"):
            write_run({}, "has space", tmp_path / "r.txt")


class TestParseQrels:
    def test_basic(self, tmp_path):
        qrels = parse_qrels(write(tmp_path / "q.txt", "q1 0 d1 3\n"))
        assert qrels == {"q1": {"d1": 3}}

    def test_grade_zero_kept(self, tmp_path):
        qrels = parse_qrels(write(tmp_path / "q.txt", "q1 0 d1 0\n"))
        assert qrels["q1"]["d1"] == 0

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write(tmp_path / "q.txt", "q1 0 d1 3\nq1 0 d1 1\n")
        with pytest.raises(ValueError, match="duplicate judgment"):
            parse_qrels(path)

    def test_negative_grade(self, tmp_path):
        with pytest.raises(ValueError, match="negative grade"):
            parse_qrels(write(tmp_path / "q.txt", "q1 0 d1 -1\n"))

    # int() reads "1_0" as 10 and "\u0662" (an Arabic-Indic digit) as 2
    @pytest.mark.parametrize("grade", ["1_0", "\u0662", "\uff12"])
    def test_grade_that_is_not_plain_ascii_rejected(self, tmp_path, grade):
        path = write(tmp_path / "q.txt", f"q_\u00e9 0 d_1 1\nq1 0 d1 {grade}\n")
        with pytest.raises(ValueError, match=r"q\.txt:2: non-integer grade"):
            parse_qrels(path)

    def test_malformed_line_number(self, tmp_path):
        path = write(tmp_path / "q.txt", "q1 0 d1 3\nq1 0 d2\n")
        with pytest.raises(ValueError, match=":2"):
            parse_qrels(path)

    def test_empty_file(self, tmp_path):
        assert parse_qrels(write(tmp_path / "q.txt", "")) == {}


class TestRankedList:
    def test_canonical_order(self):
        ranked = RankedList.from_scores("q", [("b", 1.0), ("a", 1.0), ("c", 2.0)])
        assert ranked.doc_ids() == ["c", "a", "b"]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="duplicate doc_id"):
            RankedList.from_scores("q", [("a", 1.0), ("a", 2.0)])

    def test_depth(self):
        ranked = RankedList.from_scores("q", [("a", 1.0), ("b", 3.0)], depth=1)
        assert ranked.entries == [("b", 3.0)]


class TestScoreTsv:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "s.tsv"
        write_score_tsv({"q2": 0.25, "q1": 1.5}, out)
        assert out.read_text() == "q1\t1.500000\nq2\t0.250000\n"
        assert parse_score_tsv(out) == {"q1": 1.5, "q2": 0.25}

    def test_bad_value(self, tmp_path):
        path = write(tmp_path / "s.tsv", "q1\tnot_a_number\n")
        with pytest.raises(ValueError, match="non-numeric value"):
            parse_score_tsv(path)

    # float() reads "\u0662_0" as 20.0, and strips a non-ASCII space
    @pytest.mark.parametrize("value", ["\u0662_0", "0.5_5", "0.5\u2003"])
    def test_value_that_is_not_plain_ascii_rejected(self, tmp_path, value):
        path = write(tmp_path / "s.tsv", f"q_\u00e9\t0.5\nq2\t{value}\n")
        with pytest.raises(ValueError, match=r"s\.tsv:2: non-numeric value"):
            parse_score_tsv(path)


class TestDigestingReader:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_digest_names_the_bytes_read(self, tmp_path, newline):
        # many read blocks, line ends that text mode translates, and a last line without one
        data = newline.join(f"d{i}\tword {i} é".encode() for i in range(5000))
        path = tmp_path / "collection.tsv"
        path.write_bytes(data)
        digest = hashlib.sha256()
        records = list(iter_tsv(path, True, digest))
        assert records == [(f"d{i}", f"word {i} é") for i in range(5000)]
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


class TestUndecodableBytes:
    @pytest.mark.parametrize("digest", [None, hashlib.sha256], ids=["plain", "digesting"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_of_the_first_bad_byte_past_the_first_chunk(self, tmp_path, newline, digest):
        # text mode decodes 8 KiB chunks, so the error it raises knows neither line nor file offset
        rows = [f"q{i}\tsome query text {i}".encode() for i in range(2000)]
        rows[1500] += b"\xe9"  # Latin-1 e-acute, then a line end: not UTF-8
        rows[1700] += b"\xff"
        path = tmp_path / "queries.tsv"
        path.write_bytes(newline.join(rows) + newline)
        offset = len(newline.join(rows[:1500])) + len(newline) + len(rows[1500]) - 1
        message = f"{path}:1501: 'utf-8' codec can't decode byte 0xe9 in position {offset}: invalid continuation byte"
        with pytest.raises(ValueError) as raised:
            list(iter_tsv(path, True, digest())) if digest else parse_queries(path)
        assert str(raised.value) == message
