"""Deterministic mini-corpus shared by the test suite.

Ten topics, ~100 short documents, 30 training queries with binary
training judgments, 5 target queries with graded test judgments, and
8-dim pseudo-embeddings for every query. Everything is generated from
fixed word pools with a fixed-seed RNG, so repeated sessions see
identical data.

The coffee topic is handcrafted to exercise 2-hop expansion: training
query t03 shares no tokens with target dl01, but t01 (a 1-hop hit for
dl01) is judged relevant to document d003, whose text carries t03's
vocabulary. The pseudo-query built from d003 therefore retrieves t03,
so the merged variant set strictly contains the 1-hop set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qvqpp import Document, Qrels, Query

SEED = 20240817
EMBEDDING_DIM = 8

TOPIC_WORDS = {
    "coffee": ["coffee", "espresso", "grind", "beans", "roast", "temperature",
               "water", "filter", "crema", "barista", "brew", "cup"],
    "whales": ["whale", "humpback", "migration", "krill", "ocean", "breach",
               "pod", "song", "baleen", "calf", "plankton", "fluke"],
    "solar": ["solar", "panel", "photovoltaic", "inverter", "silicon", "sunlight",
              "wattage", "grid", "efficiency", "rooftop", "module", "cell"],
    "pyramid": ["pyramid", "giza", "limestone", "pharaoh", "tomb", "ramp",
                "chamber", "sphinx", "dynasty", "quarry", "granite", "nile"],
    "sourdough": ["sourdough", "starter", "levain", "flour", "hydration", "crumb",
                  "proof", "bake", "yeast", "dough", "rye", "crust"],
    "volcano": ["volcano", "lava", "eruption", "magma", "ash", "crater",
                "basalt", "vent", "seismic", "caldera", "pumice", "plume"],
    "chess": ["chess", "opening", "gambit", "endgame", "knight", "bishop",
              "castling", "checkmate", "pawn", "tactics", "blunder", "rook"],
    "honey": ["honey", "bees", "hive", "nectar", "pollen", "comb",
              "apiary", "queen", "swarm", "wax", "forage", "drone"],
    "glacier": ["glacier", "ice", "moraine", "crevasse", "meltwater", "fjord",
                "calving", "firn", "icefield", "serac", "terminus", "ablation"],
    "jazz": ["jazz", "saxophone", "improvisation", "swing", "bebop", "trumpet",
             "quartet", "rhythm", "chord", "solo", "melody", "bassline"],
}

TOPICS = list(TOPIC_WORDS)

# Handcrafted coffee material (paraphrase cluster across t01/t03/dl01).
COFFEE_DOCS = [
    ("d001", "brewing coffee with water at the right temperature improves the cup"),
    ("d002", "espresso needs a fine grind and a hot machine for good crema"),
    ("d003", "a french press steeps coarse coffee in hot water and the plunger "
             "controls steeping heat level before pressing"),
    ("d004", "roast level changes how beans taste in the final brew"),
    ("d005", "a paper filter removes oils and sediment from brewed coffee"),
    ("d006", "baristas tune water temperature and grind size for every brew"),
    ("d007", "cold brew coffee steeps coarse grounds in cold water overnight"),
    ("d008", "light roast beans keep more acidity than dark roast beans"),
    ("d009", "crema forms when espresso pressure emulsifies coffee oils"),
    ("d010", "a clean cup and fresh water make any coffee brew taste better"),
]

COFFEE_TRAIN_QUERIES = [
    ("t01", "coffee brewing water temperature"),
    ("t02", "espresso grind size for crema"),
    ("t03", "french press plunger steeping heat level"),
]

COFFEE_TRAIN_QRELS = {
    "t01": {"d003": 1, "d001": 1},
    "t02": {"d002": 1, "d009": 1},
    "t03": {"d003": 1, "d007": 1},
}

TARGET_QUERIES = [
    ("dl01", "best water temperature for brewing coffee"),
    ("dl02", "humpback whale migration and krill"),
    ("dl03", "solar panel efficiency on a rooftop"),
    ("dl04", "how the giza pyramid limestone was quarried"),
    ("dl05", "sourdough starter hydration for an open crumb"),
]


@dataclass
class FixtureCorpus:
    documents: list[Document]
    train_queries: list[Query]
    train_qrels: Qrels
    test_queries: list[Query]
    test_qrels: Qrels
    embeddings: dict[str, list[float]]
    dim: int

    def training_query_map(self) -> dict[str, Query]:
        return {q.id: q for q in self.train_queries}

    def target_query_map(self) -> dict[str, Query]:
        return {q.id: q for q in self.test_queries}


def _topic_docs(rng: random.Random) -> list[Document]:
    documents = [Document(doc_id, text) for doc_id, text in COFFEE_DOCS]
    counter = len(COFFEE_DOCS)
    for topic in TOPICS[1:]:
        pool = TOPIC_WORDS[topic]
        for _ in range(10):
            counter += 1
            words = rng.choices(pool, k=rng.randint(6, 10))
            documents.append(Document(f"d{counter:03d}", " ".join(words)))
    return documents


def _topic_queries(rng: random.Random) -> list[Query]:
    queries = [Query(qid, text) for qid, text in COFFEE_TRAIN_QUERIES]
    counter = len(COFFEE_TRAIN_QUERIES)
    for topic in TOPICS[1:]:
        pool = TOPIC_WORDS[topic]
        for _ in range(3):
            counter += 1
            words = rng.sample(pool, k=rng.randint(3, 4))
            queries.append(Query(f"t{counter:02d}", " ".join(words)))
    return queries


def _train_qrels(rng: random.Random, queries: list[Query], documents: list[Document]) -> Qrels:
    qrels: Qrels = {qid: dict(judged) for qid, judged in COFFEE_TRAIN_QRELS.items()}
    docs_by_topic = {
        topic: [d.id for d in documents[10 * i : 10 * (i + 1)]] for i, topic in enumerate(TOPICS)
    }
    for i, query in enumerate(queries[3:], start=3):
        topic = TOPICS[i // 3]
        relevant = rng.sample(docs_by_topic[topic], k=rng.randint(2, 3))
        qrels[query.id] = {doc_id: 1 for doc_id in relevant}
    return qrels


def _test_qrels(rng: random.Random, documents: list[Document]) -> Qrels:
    qrels: Qrels = {}
    for i, (qid, _) in enumerate(TARGET_QUERIES):
        topic_docs = [d.id for d in documents[10 * i : 10 * (i + 1)]]
        judged = rng.sample(topic_docs, k=8)
        grades = [3, 2, 2, 1, 1, 0, 0, 0]
        qrels[qid] = {doc_id: grade for doc_id, grade in zip(judged, grades)}
    return qrels


def _embeddings(rng: random.Random, queries: list[Query], targets: list[Query]) -> dict[str, list[float]]:
    bases = {
        topic: [rng.gauss(0.0, 1.0) for _ in range(EMBEDDING_DIM)] for topic in TOPICS
    }

    def noisy(topic: str) -> list[float]:
        return [v + rng.gauss(0.0, 0.08) for v in bases[topic]]

    vectors: dict[str, list[float]] = {}
    for i, query in enumerate(queries):
        vectors[query.id] = noisy(TOPICS[i // 3])
    for i, target in enumerate(targets):
        vectors[target.id] = noisy(TOPICS[i])
    return vectors


def build_corpus() -> FixtureCorpus:
    rng = random.Random(SEED)
    documents = _topic_docs(rng)
    train_queries = _topic_queries(rng)
    train_qrels = _train_qrels(rng, train_queries, documents)
    targets = [Query(qid, text) for qid, text in TARGET_QUERIES]
    test_qrels = _test_qrels(rng, documents)
    embeddings = _embeddings(rng, train_queries, targets)
    return FixtureCorpus(
        documents=documents,
        train_queries=train_queries,
        train_qrels=train_qrels,
        test_queries=targets,
        test_qrels=test_qrels,
        embeddings=embeddings,
        dim=EMBEDDING_DIM,
    )
