"""The bytes of each member of the fixture corpus's two index artifacts, as ``qvqpp index`` writes them.

    PYTHONPATH=src python tests/index_member_bytes.py

Informational: it prints each artifact's size, then each member's bytes
(its .npy header included), largest first.
"""

from __future__ import annotations

import sys
import tempfile
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fixture_corpus import build_corpus  # noqa: E402
from qvqpp import build_index, save_index  # noqa: E402


def member_bytes(path) -> dict[str, int]:
    """Each member's uncompressed bytes, by name, largest first."""
    with zipfile.ZipFile(path) as archive:
        sizes = {info.filename.removesuffix(".npy"): info.file_size for info in archive.infolist()}
    return dict(sorted(sizes.items(), key=lambda item: -item[1]))


def main() -> None:
    corpus = build_corpus()
    sources = {
        "documents.idx": [(doc.id, doc.text) for doc in corpus.documents],
        "queries.idx": [(query.id, query.text) for query in corpus.train_queries],
    }
    with tempfile.TemporaryDirectory() as scratch:
        for name, items in sources.items():
            path = Path(scratch) / name
            save_index(build_index(items), path)
            print(f"{name}: {path.stat().st_size} bytes, {len(items)} items")
            for member, size in member_bytes(path).items():
                print(f"  {member:<13}{size:>9}")


if __name__ == "__main__":
    main()
