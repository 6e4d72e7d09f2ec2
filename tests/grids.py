"""Hand-built documents as one grid, for tests that batch their own inputs."""

import numpy as np

from sirm.text import ParagraphGrid


def stack_documents(docs):
    """One ParagraphGrid of single-document grids, stacked in order along a
    new leading axis, with int64 labels as encode_split gives them."""
    docs = list(docs)
    return ParagraphGrid(np.stack([doc.token_ids for doc in docs]),
                         np.array([doc.label for doc in docs], dtype=np.int64))
