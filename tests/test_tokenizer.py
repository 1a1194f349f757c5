"""BPE training/application and WordPiece segmentation."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from vocab_bridge import (
    BpeModel,
    SegmentStatus,
    Vocabulary,
    bpe_apply,
    bpe_train,
    classify_corpus,
    load_vocabulary,
    save_vocabulary,
    wordpiece_segment,
)
from vocab_bridge.errors import EmptyCorpus, MalformedHeader, MalformedLine, ValidationError
from vocab_bridge.tokenizer import (
    DEFAULT_MAX_CHARS,
    END_OF_WORD,
    MERGES_HEADER,
    load_bpe_model,
    save_bpe_model,
    wordpiece_style,
)

# one- and two-letter alphabets give long runs of one repeated pair; the
# marker's own characters make words that end like a marked symbol
ALPHABETS = ("a", "ab", "abc", "abcd", "<>/w", "ab</w>", "w>")


@st.composite
def bpe_corpora(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    words = st.text(alphabet=alphabet, min_size=1, max_size=8)
    return draw(st.dictionaries(words, st.integers(0, 5), min_size=1, max_size=12))


def repeat_corpus(seed: int = 3) -> list[str]:
    """Lines that reuse a dozen words hundreds of times, with blank lines."""
    rng = np.random.default_rng(seed)
    words = ["les", "qu'", "ça", "films", "filmé", "de", "scientifiques",
             "médecins", "ab", "abab", "a" * 120, "je"]
    lines = []
    for _ in range(60):
        picks = rng.integers(0, len(words), size=rng.integers(0, 14))
        lines.append(" \t ".join(words[i] for i in picks) + "  \n")
    return lines


class TestBpeTrain:
    def test_micro_corpus_first_merge(self):
        """{aa:2, ab:1}: the (a, a</w>) pair occurs twice, (a, b</w>) once."""
        model = bpe_train({"aa": 2, "ab": 1}, 10)
        assert model.merges[0] == ("a", "a</w>")
        left, right = model.merges[0]
        assert (left, right.removesuffix(END_OF_WORD)) == ("a", "a")

    def test_single_word_corpus_learns_nothing(self):
        """One occurrence of every pair: nothing reaches the 2-count floor."""
        model = bpe_train({"a": 5}, 10)
        assert model.merges == ()

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            bpe_train({}, 10)
        with pytest.raises(EmptyCorpus):
            bpe_train({"a": 0}, 10)

    def test_deterministic(self):
        corpus = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
        a = bpe_train(corpus, 30)
        b = bpe_train(dict(reversed(list(corpus.items()))), 30)
        assert a == b

    def test_tie_breaks_lexicographically(self):
        """b+a</w> and c+a</w> both occur twice; the smaller pair merges first."""
        model = bpe_train({"ba": 2, "ca": 2}, 10)
        assert model.merges[0] == ("b", "a</w>")

    def test_stops_at_target_vocab(self):
        # symbols for {abc:4}: a, b, c</w> (3 types); one merge makes 3 types
        # again (ab, c</w> plus nothing new? a+b -> ab, so {ab, c</w>} = 2)
        model = bpe_train({"abc": 4, "abd": 3}, 4)
        # initial types: a, b, c</w>, d</w> = 4, already at target
        assert model.merges == ()

    def test_emitted_vocab_rendering(self):
        """Frozen hand trace: aa -> [aa], ab -> [a, ##b]; order by count then token."""
        model = bpe_train({"aa": 2, "ab": 1}, 10)
        assert model.wordpiece_vocab == ("aa", "##b", "a")

    def test_rejects_whitespace_word(self):
        with pytest.raises(ValidationError):
            bpe_train({"a b": 1}, 10)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(corpus=bpe_corpora(), target=st.integers(1, 60))
    @example(corpus={"aaaa": 3, "aa": 2, "a": 1}, target=60)
    @example(corpus={"ab</w": 4, "w>": 3, "b</w>": 2}, target=60)
    @example(corpus={"aaaaaaa": 4, "aaaaa": 3, "aaa": 2}, target=60)
    @example(corpus={"abababa": 3, "baba": 2, "bab": 2}, target=60)
    @example(corpus={"abc": 3, "bcd": 3, "abcd": 2, "bc": 2}, target=60)
    def test_matches_rescanning_trainer(self, tmp_path_factory, corpus, target):
        """Merges, emitted vocabulary and merges file equal the reference's,
        and both files reload to a model and vocabulary that act the same."""
        assume(any(freq > 0 for freq in corpus.values()))
        model = bpe_train(corpus, target)
        merges, vocab = oracles.bpe_train_reference(corpus, target)
        assert model.merges == merges
        assert model.wordpiece_vocab == vocab
        tmp = tmp_path_factory.mktemp("merges")
        save_bpe_model(model, tmp / "fast.txt")
        save_bpe_model(BpeModel(merges=merges), tmp / "ref.txt")
        assert (tmp / "fast.txt").read_bytes() == (tmp / "ref.txt").read_bytes()
        loaded = load_bpe_model(tmp / "fast.txt")
        for word in corpus:
            assert bpe_apply(loaded, word) == bpe_apply(model, word)
        emitted = Vocabulary(model.wordpiece_vocab)
        save_vocabulary(emitted, tmp / "vocab.txt")
        assert load_vocabulary(tmp / "vocab.txt") == emitted


class TestBpeApply:
    def test_planted_merge(self):
        """A model holding the bare merge (a, a) joins the word-initial pair."""
        model = BpeModel(merges=(("a", "a"),))
        assert bpe_apply(model, "aab") == ["aa", "b"]

    def test_no_merges_falls_back_to_characters(self):
        model = BpeModel(merges=())
        assert bpe_apply(model, "ab") == ["a", "b"]

    def test_single_character_word(self):
        model = BpeModel(merges=())
        assert bpe_apply(model, "a") == ["a"]

    def test_marker_fused_merge_applies_word_finally(self):
        model = bpe_train({"aa": 2, "ab": 1}, 10)
        assert bpe_apply(model, "aa") == ["aa"]
        assert bpe_apply(model, "aab") == ["a", "a", "b"]

    def test_priority_order(self):
        """Earlier merges win even when a later merge also matches."""
        model = BpeModel(merges=(("b", "c"), ("a", "b")))
        assert bpe_apply(model, "abcd") == ["a", "bc", "d"]

    def test_reconstruction_property(self):
        """Concatenated output pieces always rebuild the word."""
        rng = np.random.default_rng(5)
        letters = "abcde"
        words = [
            "".join(rng.choice(list(letters), size=rng.integers(1, 9)))
            for _ in range(60)
        ]
        corpus = {}
        for w in words:
            corpus[w] = corpus.get(w, 0) + int(rng.integers(1, 6))
        model = bpe_train(corpus, 40)
        for w in set(words) | {"fresh", "aaaa", "edcba"}:
            assert "".join(bpe_apply(model, w)) == w

    def test_training_state_matches_application(self):
        """Applying the learned merges reproduces the trainer's segmentation."""
        corpus = {"hugging": 10, "hugged": 5, "hub": 7, "bug": 4}
        model = bpe_train(corpus, 12)
        for w in corpus:
            pieces = bpe_apply(model, w)
            assert "".join(pieces) == w

    def test_wordpiece_style_rendering(self):
        assert wordpiece_style(["qu", "'"]) == ["qu", "##'"]
        assert wordpiece_style(["solo"]) == ["solo"]


class TestMergesFile:
    def test_round_trip(self, tmp_path):
        model = bpe_train({"banana": 4, "bandana": 3}, 12)
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == MERGES_HEADER
        loaded = load_bpe_model(path)
        assert loaded.merges == model.merges

    def test_byte_identical_across_runs(self, tmp_path):
        corpus = {"pretrain": 6, "train": 9, "rain": 2}
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_bpe_model(bpe_train(corpus, 20), p1)
        save_bpe_model(bpe_train(dict(corpus), 20), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            load_bpe_model(path)

    def test_unicode_line_separator_stays_in_its_line(self, tmp_path):
        """U+0085 and U+2028 are whitespace inside a merge line, not line ends."""
        for sep in ("\u0085", "\u2028"):
            path = tmp_path / "sep.txt"
            path.write_text(f"{MERGES_HEADER}\na b{sep}c d\n", encoding="utf-8")
            with pytest.raises(MalformedLine) as err:
                load_bpe_model(path)
            assert err.value.line == 2

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text(f"{MERGES_HEADER}\na b\na b\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_bpe_model(path)
        assert err.value.line == 3


FRENCH_PIECES = ["je", "sens", "qu", "##'", "entre", "et", "les", "films", "de", "scientifiques"]
FRENCH_SENTENCE = "je sens qu' entre ça et les films de médecins et scientifiques"


class TestWordPiece:
    def vocab(self, tokens=None):
        return Vocabulary(tokens or FRENCH_PIECES)

    def test_in_vocab_word(self):
        seg = wordpiece_segment(self.vocab(), "[UNK]", "les")
        assert seg.pieces == ("les",)
        assert seg.status is SegmentStatus.IN_VOCAB

    def test_word_oov_subword_ok(self):
        seg = wordpiece_segment(self.vocab(), "[UNK]", "qu'")
        assert seg.pieces == ("qu", "##'")
        assert seg.status is SegmentStatus.WORD_OOV_SUBWORD_OK

    def test_subword_oov(self):
        for word in ["ça", "médecins"]:
            seg = wordpiece_segment(self.vocab(), "[UNK]", word)
            assert seg.pieces == ("[UNK]",)
            assert seg.status is SegmentStatus.SUBWORD_OOV

    def test_greedy_longest_match_first(self):
        v = Vocabulary(["un", "unable", "##able", "##le", "a", "##b"])
        seg = wordpiece_segment(v, "[UNK]", "unable")
        assert seg.pieces == ("unable",)
        assert seg.status is SegmentStatus.IN_VOCAB
        seg = wordpiece_segment(v, "[UNK]", "unableable")
        assert seg.pieces == ("unable", "##able")

    def test_greedy_is_not_optimal(self):
        """The longest first piece is taken even when it dooms the rest."""
        v = Vocabulary(["ab", "a", "##bc"])
        seg = wordpiece_segment(v, "[UNK]", "abc")
        assert seg.status is SegmentStatus.SUBWORD_OOV

    def test_max_chars_limit(self):
        v = Vocabulary(["a", "##a"])
        seg = wordpiece_segment(v, "[UNK]", "a" * 101)
        assert seg.status is SegmentStatus.SUBWORD_OOV
        assert seg.pieces == ("[UNK]",)
        seg = wordpiece_segment(v, "[UNK]", "a" * 3, max_chars=3)
        assert seg.pieces == ("a", "##a", "##a")
        assert seg.status is SegmentStatus.WORD_OOV_SUBWORD_OK
        seg = wordpiece_segment(v, "[UNK]", "a" * 4, max_chars=3)
        assert seg.status is SegmentStatus.SUBWORD_OOV

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(9)
        v = Vocabulary(["a", "b", "##a", "##b", "ab", "##ab"])
        for _ in range(50):
            word = "".join(rng.choice(["a", "b", "c"], size=rng.integers(1, 7)))
            seg = wordpiece_segment(v, "[UNK]", word)
            if seg.status is not SegmentStatus.SUBWORD_OOV:
                rebuilt = seg.pieces[0] + "".join(p[2:] for p in seg.pieces[1:])
                assert rebuilt == word
            else:
                assert seg.pieces == ("[UNK]",)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        bare=st.sets(st.text(alphabet="ab#", min_size=1, max_size=3), max_size=8),
        continued=st.sets(st.text(alphabet="ab#", min_size=1, max_size=3), max_size=8),
        parts=st.lists(st.text(alphabet="ab#c", min_size=1, max_size=3), min_size=1, max_size=4),
        listed=st.booleans(),
        max_chars=st.one_of(st.just(DEFAULT_MAX_CHARS), st.integers(0, 8)),
    )
    def test_matches_the_reference_loop(self, bare, continued, parts, listed, max_chars):
        """The word joins ``parts``; ``listed`` puts them in the vocabulary
        (the first bare, the rest as ``##`` pieces).  Vocabularies come with
        and without ``##`` pieces, and words that segment, fail to segment
        or are longer than ``max_chars``."""
        if listed:
            bare = bare | {parts[0]}
            continued = continued | set(parts[1:])
        tokens = sorted(bare | {"##" + p for p in continued})
        word = "".join(parts)
        seg = wordpiece_segment(Vocabulary(tokens), "[UNK]", word, max_chars)
        want = oracles.wordpiece_segment_reference(set(tokens), "[UNK]", word, max_chars)
        assert seg.word == word
        assert (seg.pieces, seg.status.value) == want

    def test_classify_corpus_stream(self):
        segs = list(classify_corpus(self.vocab(), "[UNK]", [FRENCH_SENTENCE]))
        assert len(segs) == 12
        statuses = [s.status for s in segs]
        assert statuses.count(SegmentStatus.SUBWORD_OOV) == 2
        assert statuses.count(SegmentStatus.WORD_OOV_SUBWORD_OK) == 1
        by_word = {s.word: s.status for s in segs}
        assert by_word["qu'"] is SegmentStatus.WORD_OOV_SUBWORD_OK
        assert by_word["ça"] is SegmentStatus.SUBWORD_OOV
        assert by_word["médecins"] is SegmentStatus.SUBWORD_OOV

    def test_classify_corpus_segments_each_word_once(self):
        """Repeats yield the first segmentation, equal to a per-word call."""
        vocab = Vocabulary(FRENCH_PIECES + ["fil", "##ms", "##mé", "a", "##b"])
        lines = repeat_corpus()
        segs = list(classify_corpus(vocab, "[UNK]", lines))
        expected = [
            wordpiece_segment(vocab, "[UNK]", word) for line in lines for word in line.split()
        ]
        assert segs == expected
        first = {}
        for seg in segs:
            assert first.setdefault(seg.word, seg) is seg
        assert len(segs) > 10 * len(first)

    def test_classify_empty_corpus(self):
        assert list(classify_corpus(self.vocab(), "[UNK]", [])) == []

    def test_continuation_spelled_word(self):
        """A word literally starting with ## can be an ordinary vocab token."""
        v = Vocabulary(["##x"])
        seg = wordpiece_segment(v, "[UNK]", "##x")
        assert seg.status is SegmentStatus.IN_VOCAB
