"""Text pipeline: tokenization, vocabulary, sentence grids, dataset files."""

import json
import logging
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_USER_RE = re.compile(r"@\w+")
# placeholders survive punctuation splitting; everything else is word chars
# or single punctuation marks
_TOKEN_RE = re.compile(r"<url>|<user>|\w+|[^\w\s]")

SENTENCE_FINAL = {".", "!", "?", ";"}


class DataFormatError(ValueError):
    """Dataset file is unreadable or mostly malformed."""


def _numbered_lines(path):
    """(line number from 1, line without its newline) for each line of a UTF-8
    text file, a leading byte-order mark dropped; a file that cannot be opened
    or decoded is a DataFormatError."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.rstrip("\n")
    except OSError as e:
        raise DataFormatError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e}") from e


def atomic_write_bytes(path, payload):
    """Write to a temp file in the target directory, rename on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tokenize(text):
    """Lowercase, collapse URLs/mentions, split punctuation into own tokens."""
    text = _URL_RE.sub("<url>", text)
    text = _USER_RE.sub("<user>", text)
    return _TOKEN_RE.findall(text.lower())


def segment_sentences(tokens, n):
    """Split a token list into sentences of at most n tokens.

    Splits after sentence-final punctuation, once after a run of marks such
    as "!!!" or "?!"; any longer sentence is chunked into consecutive
    length-n pieces.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ends = [i + 1 for i, tok in enumerate(tokens) if tok in SENTENCE_FINAL
            and (i + 1 == len(tokens) or tokens[i + 1] not in SENTENCE_FINAL)]
    if not ends or ends[-1] != len(tokens):
        ends.append(len(tokens))
    sentences = []
    start = 0
    for end in ends:
        sentences.extend(tokens[i:min(i + n, end)] for i in range(start, end, n))
        start = end
    return sentences


class Vocabulary:
    """Dense token ids with PAD=0 and UNK=1 reserved; each token after them
    comes with its training-set count."""

    def __init__(self, tokens=(), frequencies=()):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN]
        self.token_to_id = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        self.frequencies = [0, 0]
        for tok, freq in zip(tokens, frequencies, strict=True):
            self._add(tok, freq)

    def _add(self, token, freq):
        if token in self.token_to_id:
            raise ValueError(f"duplicate vocabulary token {token!r}")
        self.token_to_id[token] = len(self.id_to_token)
        self.id_to_token.append(token)
        self.frequencies.append(freq)

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path):
        lines = [f"{tok}\t{freq}\n" for tok, freq in zip(self.id_to_token, self.frequencies)]
        atomic_write_bytes(path, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, path):
        rows = []
        for lineno, line in _numbered_lines(path):
            if not line:
                continue
            try:
                tok, freq = line.split("\t")
                rows.append((lineno, tok, int(freq)))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad vocabulary line {line!r}") from None
        if [tok for _, tok, _ in rows[:2]] != [PAD_TOKEN, UNK_TOKEN]:
            raise DataFormatError(f"{path}: missing reserved {PAD_TOKEN}/{UNK_TOKEN} entries")
        vocab = cls()
        for lineno, tok, freq in rows[2:]:
            try:
                vocab._add(tok, freq)
            except ValueError as e:     # a repeated token
                raise DataFormatError(f"{path}:{lineno}: {e}") from None
        return vocab


def build_vocab(split, min_frequency=2, max_size=30000):
    """Frequency-ordered vocabulary from a training split's (text, label) pairs only.

    Ties are broken by first occurrence order so id assignment is deterministic.
    max_size counts the two reserved tokens, so it must be at least 2.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be at least 2 (the reserved tokens), got {max_size}")
    counts = Counter()
    for text, _label in split:
        counts.update(tokenize(text))
    if not counts:
        raise DataFormatError("cannot build a vocabulary from an empty corpus")
    # a Counter keeps first-occurrence order and most_common's sort is stable
    kept = [(t, c) for t, c in counts.most_common() if c >= min_frequency]
    kept = kept[:max_size - 2]
    return Vocabulary([t for t, _ in kept], [c for _, c in kept])


@dataclass
class ParagraphGrid:
    """A document, or with leading axes a batch or a split, as m x n grids of
    token ids; PAD_ID marks padding and no token maps to it. An int, slice,
    index array or bool mask on the leading axis gives a ParagraphGrid, and
    iteration yields the documents in order."""

    token_ids: np.ndarray   # (..., m, n) int64
    label: np.ndarray       # (...) int64; a hand-built document may use an int

    @property
    def word_mask(self):
        """(..., m, n) bool, True at real tokens."""
        return self.token_ids != PAD_ID

    def __len__(self):
        return len(self.label)

    def __getitem__(self, index):
        return ParagraphGrid(self.token_ids[index], self.label[index])

    def __iter__(self):
        return (self[d] for d in range(len(self)))


def load_dataset(path, fmt="jsonl", name="train"):
    """Load labeled documents from a JSONL or TSV file as a list of
    (text, label) pairs; name is the split's role in the log.

    Malformed lines are logged with their line number and skipped; more than
    10% malformed lines is treated as a format error.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    examples = []
    bad = 0
    total = 0
    for lineno, line in _numbered_lines(path):
        if not line.strip():
            continue
        total += 1
        text, label = None, None
        if fmt == "jsonl":
            try:
                obj = json.loads(line)
                text, label = obj["text"], obj["label"]
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
        else:
            parts = line.split("\t", 1)
            # int() would also read +1, 01, " 0" and 0_0
            if len(parts) == 2 and parts[0] in ("0", "1"):
                label, text = int(parts[0]), parts[1]
        # true and 1.0 equal 1 but are a bool and a float, not a 0/1 label
        if (not isinstance(text, str) or not text.strip()
                or type(label) is not int or label not in (0, 1)):
            logger.warning("%s:%d: malformed line skipped", path, lineno)
            bad += 1
            continue
        examples.append((text, label))
    if total and bad / total > 0.10:
        raise DataFormatError(f"{path}: {bad}/{total} malformed lines")
    logger.info("loaded %d %s examples from %s (%d skipped)", len(examples), name, path, bad)
    return examples


def encode_split(split, vocab, m, n):
    """Render every (text, label) pair of a split onto a fixed (m, n) grid: one
    ParagraphGrid of (N, m, n) token ids and (N,) int64 labels.

    A document keeps its first m sentences, each cut to n tokens; one
    without tokens becomes a single <unk> sentence.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be >= 1")
    token_ids = np.full((len(split), m, n), PAD_ID, dtype=np.int64)
    lookup = vocab.lookup
    for d, (text, _label) in enumerate(split):
        sentences = segment_sentences(tokenize(text), n)[:m] or [[UNK_TOKEN]]
        for i, sent in enumerate(sentences):
            token_ids[d, i, :len(sent)] = [lookup(tok) for tok in sent]
    return ParagraphGrid(token_ids, np.array([label for _text, label in split],
                                             dtype=np.int64))
