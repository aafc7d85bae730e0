"""The CLI corpus (``tests/cli_corpus.py``) against its recorded digests."""

from .cli_corpus import EXPECTED, lines


def test_cli_corpus_matches_the_recorded_digests():
    expected = EXPECTED.read_text().splitlines()
    got = lines()
    assert len(got) == len(expected)
    differ = [want.rsplit("  ", 1)[0] for want, line in zip(expected, got) if line != want]
    assert not differ, f"{len(differ)} runs differ, first: {differ[:5]}"
