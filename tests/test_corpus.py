"""The artifact corpus of ``tests/corpus.py`` against its committed manifest.

This compares what another BLAS or platform should not move: each entry's
command, exit code, stderr, ``mask.csv`` bytes and ``p`` within
``corpus.P_TOL``.  ``python3 tests/corpus.py check --exact`` compares the
full bytes.
"""

import corpus


def test_corpus_matches_the_manifest(tmp_path):
    manifest = corpus.load_manifest()
    records = corpus.run_all(tmp_path)
    assert [r["name"] for r in records] == list(manifest)
    moved = {r["name"]: corpus.differences(r, manifest[r["name"]], exact=False) for r in records}
    assert {name: fields for name, fields in moved.items() if fields} == {}
