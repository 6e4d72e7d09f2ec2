"""Seeded generator for the paper-grid workloads' documents.

Documents are written as JSONL ({"text": ..., "label": 0 or 1}), the format
`sirm.text.load_dataset` reads. The mix is chosen to exercise the m=8, n=32
grid the way real posts do:

- short documents (one or two sentences of 2-8 words) that leave most of
  the grid as padding;
- medium documents (3-7 sentences of 5-25 words);
- long documents with more than m sentences or sentences longer than n
  words, which `segment_sentences` chunks and `grid_encode` truncates.

Words come from a synthetic lexicon: half the tokens are drawn from a Zipf
head of 2000 words and half uniformly from a 40000-word tail, so that a
corpus of about 2000 documents has more than 30000 words seen at least
twice and `build_vocab` fills its default 30000 cap. The label is balanced,
and each sentence carries a cue word for its label with probability 0.3, so
the task is learnable but not trivial.
"""

import json

import numpy as np

HEAD_WORDS = 2000
TAIL_WORDS = 40000
N_CUES = 10
_CONSONANTS = list("bcdfghjklmnprstvwxz")
_VOWELS = list("aeiou")
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_PUNCT = [".", ".", ".", "!", "?"]


def lexicon(rng):
    """HEAD_WORDS + TAIL_WORDS distinct three-syllable words."""
    n_syl = len(_SYLLABLES)
    codes = rng.choice(n_syl ** 3, size=HEAD_WORDS + TAIL_WORDS, replace=False)
    return ["".join(_SYLLABLES[(c // n_syl ** k) % n_syl] for k in range(3))
            for c in codes.tolist()]


def _sentence_lengths(rng):
    kind = rng.random()
    if kind < 0.25:    # short, pad-heavy
        return rng.integers(2, 9, size=rng.integers(1, 3))
    if kind < 0.75:    # medium
        return rng.integers(5, 26, size=rng.integers(3, 8))
    # long: past m sentences, with some sentences past n words
    lengths = rng.integers(5, 26, size=rng.integers(6, 13))
    long_idx = rng.random(lengths.size) < 0.3
    lengths[long_idx] = rng.integers(33, 81, size=int(long_idx.sum()))
    return lengths


def generate(seed, n_docs):
    """n_docs (text, label) pairs, a pure function of (seed, n_docs)."""
    rng = np.random.default_rng(seed)
    words = lexicon(rng)
    head_p = 1.0 / np.arange(1, HEAD_WORDS + 1)
    head_p /= head_p.sum()
    cues = (words[:N_CUES], words[N_CUES:2 * N_CUES])
    docs = []
    for _ in range(n_docs):
        label = int(rng.integers(0, 2))
        sentences = []
        for length in _sentence_lengths(rng).tolist():
            from_head = rng.random(length) < 0.5
            ids = np.where(from_head,
                           rng.choice(HEAD_WORDS, size=length, p=head_p),
                           HEAD_WORDS + rng.integers(0, TAIL_WORDS, size=length))
            toks = [words[i] for i in ids.tolist()]
            if rng.random() < 0.3:
                toks[int(rng.integers(0, length))] = cues[label][int(rng.integers(0, N_CUES))]
            sentences.append(" ".join(toks) + _PUNCT[int(rng.integers(0, len(_PUNCT)))])
        docs.append((" ".join(sentences), label))
    return docs


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as f:
        for text, label in docs:
            f.write(json.dumps({"text": text, "label": label}) + "\n")
