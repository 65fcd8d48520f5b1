#!/usr/bin/env python3
"""Exact cosine kNN over an embedding dump.

Embeddings are computed elsewhere and ingested from a plain-text file:
a ``count dim`` header, then one ``id f1 .. fdim`` row per vector. The
search is an exhaustive scan, so results are exact and deterministic. It
returns store rows; ``store.ids`` names them.
"""

import tempfile
from pathlib import Path

import numpy as np

from qvqpp import knn_cosine, load_vectors

RNG = np.random.default_rng(12)

GROUPS = {
    "coffee": ["q_brew", "q_espresso", "q_roast"],
    "whales": ["q_humpback", "q_migration", "q_krill"],
    "chess": ["q_gambit", "q_endgame", "q_tactics"],
}


def main():
    dim = 6
    centers = {name: RNG.normal(size=dim) for name in GROUPS}
    rows = {}
    for name, members in GROUPS.items():
        for member in members:
            rows[member] = centers[name] + RNG.normal(scale=0.15, size=dim)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "embeddings.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{len(rows)} {dim}\n")
            for row_id, vec in rows.items():
                handle.write(row_id + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
        store = load_vectors(path)
        print(f"loaded {len(store)} vectors of dim {store.dim} from {path.name}\n")

        for probe in ("q_brew", "q_migration"):
            rows, sims = knn_cosine(store, store.vector(probe), depth=4, exclude={store.index_of[probe]})
            print(f"nearest neighbours of {probe} (excluding itself):")
            for rank, (row, sim) in enumerate(zip(rows.tolist(), sims.tolist()), start=1):
                print(f"  {rank}. {store.ids[row]:12} cosine {sim:.4f}")
            print()

    print("group members cluster together; cross-topic similarities drop sharply")


if __name__ == "__main__":
    main()
