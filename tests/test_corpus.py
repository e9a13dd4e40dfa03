"""The artifact corpus of ``tests/corpus.py`` against its committed manifest.

This compares what another BLAS or platform should not move: each entry's
command, exit code, stderr, ``mask.csv`` bytes, ``run.json``'s key list,
``p`` within ``corpus.P_TOL`` and the ``report.json`` score within a relative
``corpus.SCORE_TOL``.  ``python3 tests/corpus.py check --exact`` compares the
full bytes.
"""

import copy
import re
from pathlib import Path

import corpus


def test_corpus_matches_the_manifest(tmp_path):
    manifest = corpus.load_manifest()
    records = corpus.run_all(tmp_path)
    assert [r["name"] for r in records] == list(manifest)
    moved = {r["name"]: corpus.differences(r, manifest[r["name"]], exact=False) for r in records}
    assert {name: fields for name, fields in moved.items() if fields} == {}


def test_a_moved_score_is_a_difference():
    # scoring a mask is pinned by the score alone: an evaluate entry writes
    # no p, and its mask is an input
    want = corpus.load_manifest()["evaluate/demo/random-200/o1234/max"]
    assert want["score"]["rsse"] > 0.0
    for field, index in (("rsse", None), ("pe_sd", None), ("realized", -1)):
        for factor, moved in ((1.0 + 1e-10, []), (1.0 + 1e-8, ["score"])):
            got = copy.deepcopy(want)
            if index is None:
                got["score"][field] *= factor
            else:
                got["score"][field][index] *= factor
            assert corpus.differences(got, want, exact=False) == moved, (field, factor)
    got = copy.deepcopy(want)
    del got["score"]
    assert corpus.differences(got, want, exact=False) == ["score"]


def test_a_changed_run_json_key_is_a_difference():
    # run.json's values may move with the machine, but not its schema
    want = corpus.load_manifest()["select/demo/targets/max"]
    assert "alpha" in want["run_keys"]
    added, missing, absent = (copy.deepcopy(want) for _ in range(3))
    added["run_keys"] = sorted([*want["run_keys"], "beta"])
    missing["run_keys"].remove("alpha")
    del absent["run_keys"]
    for got in (added, missing, absent):
        assert corpus.differences(got, want, exact=False) == ["run_keys"]
    assert corpus.differences(copy.deepcopy(want), want, exact=False) == []


def test_the_stated_corpus_size_is_the_manifest_size():
    # README and the corpus docstring count the entries; neither may drift from the manifest
    readme = (Path(corpus.__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    stated = [re.findall(r"pins the output of (\d+) fixed `dsps`\s+runs", readme),
              re.findall(r"The (\d+) entries:", corpus.__doc__)]
    assert stated == [[str(len(corpus.load_manifest()))]] * 2
