"""Two-level OOV tallies, report serialization and before/after comparison."""

import json
from collections import Counter

import numpy as np
import pytest

from test_tokenizer import FRENCH_PIECES, FRENCH_SENTENCE, repeat_corpus
from vocab_bridge import (
    OovReport,
    SegmentStatus,
    Vocabulary,
    compare_reports,
    corpus_oov_stats,
    wordpiece_segment,
)
from vocab_bridge import oov
from vocab_bridge.oov import (
    delta_json,
    parse_report_tsv,
    report_human_block,
    report_json,
    report_tsv_line,
)
from vocab_bridge.errors import CorpusMismatch, MalformedLine, ValidationError

UNK = "[UNK]"


def per_occurrence_report(vocab, lines, top_n, count_types):
    """Segment every word occurrence on its own and tally both OOV levels."""
    segs = [wordpiece_segment(vocab, UNK, w) for line in lines for w in line.split()]
    counted = list({s.word: s for s in segs}.values()) if count_types else segs
    total = len(counted)
    word_oov = sum(s.status is not SegmentStatus.IN_VOCAB for s in counted)
    subword_oov = sum(s.status is SegmentStatus.SUBWORD_OOV for s in counted)
    missed = Counter(s.word for s in segs if s.status is not SegmentStatus.IN_VOCAB)
    top = sorted(missed.items(), key=lambda item: (-item[1], item[0]))[:top_n]
    return OovReport(total, word_oov, subword_oov, word_oov / total, subword_oov / total,
                     tuple(top))


def french_report(**kwargs):
    return corpus_oov_stats(Vocabulary(FRENCH_PIECES), [FRENCH_SENTENCE], **kwargs)


class TestCorpusOovStats:
    def test_fully_covered_corpus(self):
        v = Vocabulary(["the", "cat", "sat"])
        r = corpus_oov_stats(v, ["the cat sat", "the cat"])
        assert (r.total_words, r.word_oov, r.subword_oov) == (5, 0, 0)
        assert r.word_oov_rate == 0.0 and r.subword_oov_rate == 0.0
        assert r.top_oov_tokens == ()

    def test_fully_unknown_corpus(self):
        v = Vocabulary(["z"])
        r = corpus_oov_stats(v, ["xx yy xx"])
        assert (r.total_words, r.word_oov, r.subword_oov) == (3, 3, 3)
        assert r.word_oov_rate == 1.0 and r.subword_oov_rate == 1.0

    def test_empty_corpus_has_zero_rates(self):
        v = Vocabulary(["a"])
        r = corpus_oov_stats(v, [])
        assert (r.total_words, r.word_oov, r.subword_oov) == (0, 0, 0)
        assert r.word_oov_rate == 0.0 and r.subword_oov_rate == 0.0

    def test_blank_lines_are_ignored(self):
        v = Vocabulary(["a"])
        r = corpus_oov_stats(v, ["", "   ", "a a", ""])
        assert r.total_words == 2

    def test_french_sentence_counts(self):
        """12 words; qu', ça and médecins miss at word level, the latter two
        cannot be segmented at all."""
        r = french_report()
        assert r.total_words == 12
        assert r.word_oov == 3
        assert r.subword_oov == 2
        np.testing.assert_allclose(r.word_oov_rate, 3 / 12)
        np.testing.assert_allclose(r.subword_oov_rate, 2 / 12)
        assert r.top_oov_tokens == (("médecins", 1), ("qu'", 1), ("ça", 1))

    def test_occurrences_weight_the_rates(self):
        v = Vocabulary(["ok"])
        r = corpus_oov_stats(v, ["ok bad bad bad"])
        assert (r.total_words, r.word_oov) == (4, 3)
        np.testing.assert_allclose(r.word_oov_rate, 0.75)

    def test_type_level_view_counts_each_word_once(self):
        v = Vocabulary(["ok"])
        r = corpus_oov_stats(v, ["ok ok ok bad bad"], count_types=True)
        assert (r.total_words, r.word_oov, r.subword_oov) == (2, 1, 1)
        np.testing.assert_allclose(r.word_oov_rate, 0.5)
        assert r.top_oov_tokens == (("bad", 2),)

    def test_top_oov_ordering(self):
        v = Vocabulary(["x"])
        r = corpus_oov_stats(v, ["bb aa bb cc aa dd"])
        assert r.top_oov_tokens == (("aa", 2), ("bb", 2), ("cc", 1), ("dd", 1))

    def test_top_n_truncates(self):
        v = Vocabulary(["x"])
        r = corpus_oov_stats(v, ["aa bb cc dd"], top_n=2)
        assert r.top_oov_tokens == (("aa", 1), ("bb", 1))

    def test_subword_never_exceeds_word_oov(self):
        rng = np.random.default_rng(0)
        alphabet = ["a", "b", "c"]
        for _ in range(25):
            n_vocab = int(rng.integers(1, 6))
            vocab_tokens = {"x"}
            while len(vocab_tokens) < n_vocab + 1:
                piece = "".join(rng.choice(alphabet, size=rng.integers(1, 3)))
                if rng.random() < 0.5:
                    piece = "##" + piece
                vocab_tokens.add(piece)
            words = [
                "".join(rng.choice(alphabet, size=rng.integers(1, 5)))
                for _ in range(rng.integers(1, 20))
            ]
            r = corpus_oov_stats(Vocabulary(sorted(vocab_tokens)), [" ".join(words)])
            assert 0 <= r.subword_oov <= r.word_oov <= r.total_words

    @pytest.mark.parametrize("count_types", [False, True])
    def test_repeats_match_per_occurrence_oracle(self, count_types):
        vocab = Vocabulary(FRENCH_PIECES + ["fil", "##ms", "a", "##b"])
        lines = repeat_corpus()
        r = corpus_oov_stats(vocab, lines, top_n=5, count_types=count_types)
        assert r == per_occurrence_report(vocab, lines, 5, count_types)
        assert r.subword_oov > 0 and r.word_oov > r.subword_oov

    def test_segments_each_distinct_word_once(self, monkeypatch):
        calls = Counter()

        def counting_segment(vocab, unk, word, max_chars):
            calls[word] += 1
            return wordpiece_segment(vocab, unk, word, max_chars)

        monkeypatch.setattr(oov, "wordpiece_segment", counting_segment)
        lines = repeat_corpus()
        r = corpus_oov_stats(Vocabulary(FRENCH_PIECES), lines)
        words = Counter(w for line in lines for w in line.split())
        assert r.total_words > len(words)
        assert calls == Counter(dict.fromkeys(words, 1))


class TestOovReport:
    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValidationError):
            OovReport(10, 3, 5, 0.3, 0.5)
        with pytest.raises(ValidationError):
            OovReport(10, 11, 2, 1.1, 0.2)
        with pytest.raises(ValidationError):
            OovReport(10, 3, -1, 0.3, -0.1)


class TestCompareReports:
    def test_identical_reports_give_zero_deltas(self):
        r = french_report()
        d = compare_reports(r, r)
        assert (d.word_oov_delta, d.subword_oov_delta) == (0, 0)
        assert d.word_oov_rate_delta == 0.0
        assert d.subword_oov_rate_delta == 0.0
        assert d.any_rate_increase is False
        assert d.total_words == 12

    def test_improvement_is_negative_delta(self):
        before = french_report()
        after = corpus_oov_stats(
            Vocabulary(FRENCH_PIECES + ["ça", "médecins"]), [FRENCH_SENTENCE]
        )
        d = compare_reports(before, after)
        assert d.word_oov_delta == -2
        assert d.subword_oov_delta == -2
        assert d.word_oov_rate_delta < 0
        assert d.any_rate_increase is False

    def test_regression_raises_flag(self):
        before = corpus_oov_stats(Vocabulary(["a", "b"]), ["a b"])
        after = corpus_oov_stats(Vocabulary(["a"]), ["a b"])
        d = compare_reports(before, after)
        assert d.word_oov_delta == 1
        assert d.any_rate_increase is True

    def test_different_corpora_rejected(self):
        a = corpus_oov_stats(Vocabulary(["a"]), ["a a"])
        b = corpus_oov_stats(Vocabulary(["a"]), ["a a a"])
        with pytest.raises(CorpusMismatch):
            compare_reports(a, b)


class TestSerialization:
    def test_tsv_round_trip(self):
        r = french_report()
        line = report_tsv_line(r)
        fields = line.split("\t")
        assert fields[:3] == ["12", "3", "2"]
        back = parse_report_tsv(line)
        assert back.total_words == r.total_words
        assert back.word_oov == r.word_oov
        assert back.subword_oov == r.subword_oov
        assert back.word_oov_rate == r.word_oov_rate
        assert back.subword_oov_rate == r.subword_oov_rate

    def test_tsv_rates_survive_exactly(self):
        """repr-formatted floats parse back bit for bit."""
        r = OovReport(7, 3, 1, 3 / 7, 1 / 7)
        back = parse_report_tsv(report_tsv_line(r))
        assert back.word_oov_rate == 3 / 7
        assert back.subword_oov_rate == 1 / 7

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1\t2\t3",
            "a\tb\tc\td\te",
            "1\t2\t3\t4\t5\t6",
            "10\t3\t1\tnan\t0.1",
            "10\t3\t1\t0.9\t0.1",
        ],
    )
    def test_malformed_tsv(self, text):
        with pytest.raises(MalformedLine):
            parse_report_tsv(text)

    def test_json_is_flat(self):
        data = json.loads(report_json(french_report()))
        assert data == {
            "total_words": 12,
            "word_oov": 3,
            "subword_oov": 2,
            "word_oov_rate": 0.25,
            "subword_oov_rate": 2 / 12,
        }

    def test_delta_json_carries_flag(self):
        before = corpus_oov_stats(Vocabulary(["a", "b"]), ["a b"])
        after = corpus_oov_stats(Vocabulary(["a"]), ["a b"])
        data = json.loads(delta_json(compare_reports(before, after)))
        assert data["any_rate_increase"] is True
        assert data["word_oov_delta"] == 1
        assert list(data) == [
            "total_words",
            "word_oov_delta",
            "subword_oov_delta",
            "word_oov_rate_delta",
            "subword_oov_rate_delta",
            "any_rate_increase",
        ]

    def test_human_block_lists_top_words(self):
        block = report_human_block(french_report())
        assert "total words:       12" in block
        assert "médecins\t1" in block.replace("  ", "")
