"""The library names the benchmark hooks must keep resolving.

perfbench/tracer.py reports a layer whose function has gone as absent
instead of failing, and perfbench/workloads.py starts each timed training
step at the loop's `tensor.zero_grads` call. A deletion in the library must
not silently drop a traced layer or move that step boundary.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sirm import tensor as T
from sirm.model import SIRMConfig
from sirm.text import ParagraphGrid
from sirm.training import TrainConfig, train

from grids import stack_documents

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
HOOKS = ([(module, attr) for module, attr, _span in _tracer.LAYERS]
         + list(_tracer.BINDING_NAMES) + [("sirm.tensor", "zero_grads")])


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hooked_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr} no longer exists"
        owner = getattr(owner, part)
    assert callable(owner)


def test_training_loop_clears_gradients_once_per_batch(monkeypatch):
    config = SIRMConfig(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2), k=1,
                        d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    rng = np.random.default_rng(0)
    grids = stack_documents(
        ParagraphGrid(rng.integers(2, config.vocab_size, size=(config.m, config.n)), i % 2)
        for i in range(8))
    calls = []
    zero_grads = T.zero_grads
    monkeypatch.setattr(T, "zero_grads", lambda tensors: calls.append(1) or zero_grads(tensors))
    train(grids, grids, "sirm", config, TrainConfig(batch_size=4, max_epochs=2))
    assert len(calls) == 4      # two batches in each of two epochs
