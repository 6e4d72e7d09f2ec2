import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirm.text import (PAD_ID, SENTENCE_FINAL, UNK_ID, UNK_TOKEN, DataFormatError,
                       ParagraphGrid, Vocabulary, atomic_write_bytes, build_vocab,
                       encode_split, load_dataset, segment_sentences, tokenize)


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("I LOVE Mondays!") == ["i", "love", "mondays", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_url_collapsed(self):
        assert tokenize("see http://x.co now") == ["see", "<url>", "now"]

    def test_user_mention(self):
        assert tokenize("hey @Bob_99 hi") == ["hey", "<user>", "hi"]


class TestSegment:
    def test_single_sentence(self):
        assert segment_sentences(["a", "b", "."], 32) == [["a", "b", "."]]

    def test_split_after_final_punctuation(self):
        assert segment_sentences(["a", ".", "b", "!"], 32) == [["a", "."], ["b", "!"]]

    def test_chunking_without_punctuation(self):
        tokens = [f"w{i}" for i in range(70)]
        sents = segment_sentences(tokens, 32)
        assert [len(s) for s in sents] == [32, 32, 6]

    def test_no_empty_sentences(self):
        assert segment_sentences([".", ".", "."], 4) == [[".", ".", "."]]

    def test_a_run_of_final_marks_ends_one_sentence(self):
        tokens = tokenize("Great!!! Just great... oh well?!")
        assert segment_sentences(tokens, 32) == [
            ["great", "!", "!", "!"], ["just", "great", ".", ".", "."],
            ["oh", "well", "?", "!"]]


class TestBuildVocab:
    def test_min_freq_one(self):
        vocab = build_vocab([("a a b", 0)], min_frequency=1)
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_min_freq_two(self):
        vocab = build_vocab([("a a b", 0)], min_frequency=2)
        assert set(vocab.id_to_token) == {"<pad>", "<unk>", "a"}

    def test_max_size_truncation(self):
        vocab = build_vocab([("a a b", 0)], min_frequency=1, max_size=3)
        assert vocab.id_to_token == ["<pad>", "<unk>", "a"]

    @pytest.mark.parametrize("max_size", [1, 0, -1])
    def test_max_size_below_the_reserved_tokens_rejected(self, max_size):
        with pytest.raises(ValueError, match=f"at least 2.*got {max_size}"):
            build_vocab([("a a b", 0)], min_frequency=1, max_size=max_size)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataFormatError):
            build_vocab([])

    def test_deterministic_tie_break_by_first_occurrence(self):
        split = [("zeta alpha zeta alpha", 0)]
        vocab = build_vocab(split, min_frequency=1)
        assert vocab.id_to_token[2:] == ["zeta", "alpha"]

    def test_built_from_train_only(self):
        vocab = build_vocab([("common words", 0)], min_frequency=1)
        assert "testonly" not in vocab.token_to_id


def encode_one(text, vocab, m, n):
    """The (m, n) grid of one document, encoded on its own."""
    return encode_split([(text, 0)], vocab, m, n)[0]


@pytest.fixture
def small_vocab():
    return build_vocab([("a a b b", 0)], min_frequency=1)


class TestGridEncode:
    def test_basic_layout(self, small_vocab):
        grid = encode_one("a b", small_vocab, m=2, n=3)
        assert grid.token_ids.tolist() == [[2, 3, 0], [0, 0, 0]]
        assert grid.word_mask.tolist() == [[True, True, False], [False, False, False]]

    def test_extra_sentences_dropped(self, small_vocab):
        grid = encode_one("a. b. a. b.", small_vocab, m=3, n=4)
        assert grid.word_mask[:, 0].all()
        assert grid.token_ids[0].tolist()[:2] == [2, small_vocab.lookup(".")]

    def test_unknown_words_map_to_unk(self, small_vocab):
        grid = encode_one("xyz qrs", small_vocab, m=1, n=4)
        assert grid.token_ids[0, 0] == UNK_ID and grid.token_ids[0, 1] == UNK_ID
        assert grid.word_mask[0, :2].all()

    def test_split_is_one_grid_with_a_leading_axis(self, small_vocab):
        texts = ("a b.", "c", "a. b. c.")
        batch = encode_split(list(zip(texts, (1, 0, 1))), small_vocab, 3, 4)
        assert len(batch) == 3
        assert batch.token_ids.shape == batch.word_mask.shape == (3, 3, 4)
        last = encode_one(texts[2], small_vocab, 3, 4)
        np.testing.assert_array_equal(batch.token_ids[2], last.token_ids)
        np.testing.assert_array_equal(batch.word_mask[2], last.word_mask)
        assert batch.label.dtype == np.int64 and batch.label.tolist() == [1, 0, 1]

    def test_empty_text_gets_single_unk(self, small_vocab):
        grid = encode_one("", small_vocab, m=2, n=3)
        assert grid.token_ids[0, 0] == UNK_ID
        assert grid.word_mask.sum() == 1


def test_a_grid_is_its_token_ids_and_label():
    assert [f.name for f in dataclasses.fields(ParagraphGrid)] == ["token_ids", "label"]
    # the mask follows the ids, so a hand-built grid is read one way
    grid = ParagraphGrid(np.array([[2, PAD_ID, 3], [PAD_ID] * 3]), label=1)
    assert grid.word_mask.tolist() == [[True, False, True], [False] * 3]


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=120), st.integers(1, 4), st.integers(1, 8))
def test_grid_invariants_hold_for_random_text(text, m, n):
    vocab = build_vocab([("the quick brown fox. jumps!", 0)], min_frequency=1)
    grid = encode_one(text, vocab, m, n)
    assert grid.token_ids.shape == grid.word_mask.shape == (m, n)
    assert grid.word_mask.any()
    assert int(grid.token_ids.max()) < len(vocab)
    # round-trip: every non-PAD id decodes to a vocabulary token
    for token_id in grid.token_ids[grid.word_mask]:
        assert vocab.id_to_token[token_id] is not None


# The token-at-a-time text pipeline as it stood before encode_split filled one
# batch array: the reference that the current functions must match exactly.
def segment_sentences_reference(tokens, n):
    raw = []
    current = []
    for tok in tokens:
        # a word after a run of sentence-final marks starts a new sentence
        if current and current[-1] in SENTENCE_FINAL and tok not in SENTENCE_FINAL:
            raw.append(current)
            current = []
        current.append(tok)
    if current:
        raw.append(current)
    sentences = []
    for sent in raw:
        for start in range(0, len(sent), n):
            sentences.append(sent[start:start + n])
    return sentences


def build_vocab_reference(split, min_frequency, max_size):
    counts = Counter()
    first_seen = {}
    pos = 0
    for text, _label in split:
        for tok in tokenize(text):
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = pos
                pos += 1
    kept = [t for t in counts if counts[t] >= min_frequency]
    kept.sort(key=lambda t: (-counts[t], first_seen[t]))
    kept = kept[:max(0, max_size - 2)]
    return Vocabulary(kept, [counts[t] for t in kept])


def encode_one_reference(text, vocab, m, n):
    """(token ids, word mask) of one document."""
    sentences = segment_sentences_reference(tokenize(text), n)[:m]
    if not sentences:
        sentences = [[UNK_TOKEN]]
    token_ids = np.full((m, n), PAD_ID, dtype=np.int64)
    word_mask = np.zeros((m, n), dtype=bool)
    for i, sent in enumerate(sentences):
        for j, tok in enumerate(sent[:n]):
            token_ids[i, j] = vocab.lookup(tok)
            word_mask[i, j] = True
    return token_ids, word_mask


def assert_same_grid(got, expected, label):
    for a, b in zip((got.token_ids, got.word_mask), expected):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert type(got.label) is np.int64 and got.label == label


# repeated short words make frequency ties; URLs, mentions, punctuation runs,
# long runs without a full stop and many short sentences cross n and m
_WORDS = st.sampled_from(["a", "b", "c", "Bb", "é", ".", "!", "?", ";", ",", "'",
                          "http://x.co/p?q=1", "www.y.org", "@bob", "@Al_9", "a.b"])
_DOCS = st.one_of(st.lists(_WORDS, max_size=40).map(" ".join), st.text(max_size=40))


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.tuples(_DOCS, st.integers(0, 1)), min_size=1, max_size=8),
       m=st.integers(1, 4), n=st.integers(1, 6), min_frequency=st.integers(1, 3),
       max_size=st.integers(2, 12))
def test_text_pipeline_matches_token_loop_reference(docs, m, n, min_frequency,
                                                   max_size):
    for text, _ in docs:
        tokens = tokenize(text)
        assert segment_sentences(tokens, n) == segment_sentences_reference(tokens, n)
    if any(tokenize(text) for text, _ in docs):
        vocab = build_vocab(docs, min_frequency, max_size)
        expected = build_vocab_reference(docs, min_frequency, max_size)
        assert vocab.id_to_token == expected.id_to_token
        assert vocab.token_to_id == expected.token_to_id
        assert vocab.frequencies == expected.frequencies
    else:
        with pytest.raises(DataFormatError):
            build_vocab(docs, min_frequency, max_size)
        vocab = Vocabulary()
    grids = encode_split(docs, vocab, m, n)
    assert len(grids) == len(docs)
    for grid, (text, label) in zip(grids, docs):
        expected = encode_one_reference(text, vocab, m, n)
        assert_same_grid(encode_one(text, vocab, m, n), expected, 0)
        assert_same_grid(grid, expected, label)


_INDEX_WORDS = ["a", "b", "c", "zz", ".", "!"]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 10), data=st.data())
def test_indexing_a_split_matches_stacked_single_encodings(seed, count, data):
    rng = np.random.default_rng(seed)
    docs = [(" ".join(rng.choice(_INDEX_WORDS, size=rng.integers(0, 16))),
             int(rng.integers(0, 2))) for _ in range(count)]
    vocab = build_vocab([("a b c . !", 0)], min_frequency=1)
    grids = encode_split(docs, vocab, 3, 4)
    token_ids = np.stack([encode_one(text, vocab, 3, 4).token_ids for text, _ in docs])
    labels = np.array([label for _, label in docs], dtype=np.int64)
    bound = st.none() | st.integers(-count - 1, count + 1)
    index = data.draw(st.one_of(
        st.integers(-count, count - 1),
        st.builds(slice, bound, bound, st.none() | st.sampled_from([1, 2, -1, -3])),
        st.permutations(range(count)).map(lambda order: np.array(order, dtype=np.int64)),
        st.lists(st.booleans(), min_size=count, max_size=count).map(np.array)))
    got = grids[index]
    assert isinstance(got, ParagraphGrid)
    for a, b in ((got.token_ids, token_ids[index]), (got.label, labels[index])):
        assert (type(a), a.dtype, a.shape, a.tobytes()) == (type(b), b.dtype, b.shape,
                                                            b.tobytes())
    if isinstance(index, int):
        assert got.token_ids.shape == (3, 4)
    docs_in_order = list(grids)
    assert len(docs_in_order) == len(grids) == count
    for doc, ids, label in zip(docs_in_order, token_ids, labels):
        assert np.array_equal(doc.token_ids, ids) and doc.label == label


class TestVocabularyFile:
    def test_save_load_roundtrip(self, small_vocab, tmp_path):
        path = tmp_path / "vocab.tsv"
        small_vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.token_to_id == small_vocab.token_to_id
        assert loaded.frequencies == small_vocab.frequencies

    def test_reserved_entries_written_first(self, small_vocab, tmp_path):
        path = tmp_path / "vocab.tsv"
        small_vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("<pad>\t") and lines[1].startswith("<unk>\t")

    def test_missing_reserved_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t3\nb\t1\n")
        with pytest.raises(DataFormatError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_a_byte_order_mark_is_not_part_of_the_first_entry(self, small_vocab, tmp_path,
                                                                encoding):
        path = tmp_path / "vocab.tsv"
        small_vocab.save(path)
        path.write_text(path.read_text(encoding="utf-8"), encoding=encoding)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        assert Vocabulary.load(path).id_to_token == small_vocab.id_to_token

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("\n<pad>\t0\n<unk>\t0\n\na\t3\n\n")
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == ["<pad>", UNK_TOKEN, "a"]
        assert loaded.frequencies[2] == 3


class TestLoadDataset:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "label": 1}) + "\n")
        split = load_dataset(path)
        assert type(split) is list and split == [("x", 1)]

    def test_tsv(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("0\thello world\n")
        split = load_dataset(path, fmt="tsv")
        assert type(split) is list and split == [("hello world", 0)]

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_a_byte_order_mark_costs_no_record(self, tmp_path, caplog, fmt, encoding):
        path = tmp_path / f"d.{fmt}"
        records = [(f"doc {i}", i % 2) for i in range(20)]
        lines = [json.dumps({"text": text, "label": label}) if fmt == "jsonl"
                 else f"{label}\t{text}" for text, label in records]
        path.write_text("\n".join(lines) + "\n", encoding=encoding)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        with caplog.at_level("WARNING"):
            assert load_dataset(path, fmt=fmt) == records
        assert not caplog.records

    def test_info_line_names_the_split_role(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "label": 1}) + "\n")
        with caplog.at_level("INFO", logger="sirm.text"):
            load_dataset(path, name="dev")
        assert f"loaded 1 dev examples from {path} (0 skipped)" in caplog.messages

    def test_bad_label_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        lines = [json.dumps({"text": "ok", "label": 1})] * 9
        lines.append(json.dumps({"text": "bad", "label": 2}))
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            split = load_dataset(path)
        assert len(split) == 9
        assert any(":10:" in rec.message for rec in caplog.records)

    # true and 1.0 compare equal to 1 but are not the integer label promised
    @pytest.mark.parametrize("label", [True, False, 1.0, 0.0])
    def test_non_integer_label_is_malformed(self, tmp_path, caplog, label):
        path = tmp_path / "d.jsonl"
        lines = [json.dumps({"text": "ok", "label": 0})] * 9
        lines.append(json.dumps({"text": "bad", "label": label}))
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            split = load_dataset(path)
        assert split == [("ok", 0)] * 9
        assert any(":10: malformed line skipped" in rec.message for rec in caplog.records)

    # int() reads all four, as 1, 1, 0 and 0
    @pytest.mark.parametrize("label", ["+1", "01", " 0", "0_0"])
    def test_tsv_label_other_than_0_or_1_is_malformed(self, tmp_path, caplog, label):
        path = tmp_path / "d.tsv"
        path.write_text("0\tok\n" * 9 + f"{label}\tbad\n")
        with caplog.at_level("WARNING"):
            split = load_dataset(path, fmt="tsv")
        assert split == [("ok", 0)] * 9
        assert any(":10: malformed line skipped" in rec.message for rec in caplog.records)

    def test_blank_lines_are_neither_examples_nor_malformed(self, tmp_path, caplog):
        # three blank lines of four would be far past the 10% malformed limit
        path = tmp_path / "d.jsonl"
        path.write_text("\n" + json.dumps({"text": "x", "label": 1}) + "\n  \n\t\n")
        with caplog.at_level("INFO", logger="sirm.text"):
            split = load_dataset(path)
        assert split == [("x", 1)]
        assert f"loaded 1 train examples from {path} (0 skipped)" in caplog.messages

    def test_mostly_malformed_is_format_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n" + json.dumps({"text": "x", "label": 0}) + "\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("content", ["", "\n  \n", "0\thello\n"])
    def test_unknown_format_rejected_before_reading(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match="unknown dataset format 'csv'"):
            load_dataset(path, fmt="csv")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "missing.jsonl")


def test_failed_atomic_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_bytes(tmp_path / "out.bin", "not bytes")
    assert list(tmp_path.iterdir()) == []


def test_pad_and_unk_ids_are_fixed():
    assert PAD_ID == 0 and UNK_ID == 1
    assert Vocabulary().id_to_token == ["<pad>", UNK_TOKEN]
