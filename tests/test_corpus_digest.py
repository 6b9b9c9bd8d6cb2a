"""tools/corpus_digest.py on a tiny corpus: every workload's reports are
hashed, the same inputs give the same digest, and the digest is pinned like
REPORT_DIGEST.  Pin a new one only with a change that means to alter the
reports."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import corpus_digest  # noqa: E402

TINY = dict(seeds=[1], scale=0.2, stride=10)
TINY_DIGEST = "cc84b871d5f6c7df403724cae3653e241339402a06f242f715fcea2dd2402e89"


def test_tiny_corpus_digest(capsys):
    got = corpus_digest.digests(**TINY)
    assert list(got) == [*corpus_digest.corpus.WORKLOADS, "all"]
    assert all(count > 0 for _, count in got.values())
    assert got["all"][1] == sum(count for name, (_, count) in got.items() if name != "all")
    assert got["all"][0] == TINY_DIGEST
    corpus_digest.main(["--seeds", "1", "--scale", "0.2", "--stride", "10"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [name, str(count), "reports", digest] for name, (digest, count) in got.items()
    ]
