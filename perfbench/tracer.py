"""Spans around the library's public functions, for the traced run.

Each function in LAYERS is wrapped at every name a `sirm` module binds it
under: training.py and evaluation.py do `from .model import sirm_forward`,
so patching `sirm.model.sirm_forward` alone would miss every forward the
training loop and `evaluate` make. A span is (name, start, end, parent);
spans stay in memory and are written out once, at the end. A layer's self
time is its spans' durations minus the time of their child spans.

A function that no longer exists is reported as absent: its metrics are left
out rather than read as zero, so a refactor can still be measured against
its parent.
"""

import functools
import sys
import time

# (module, attribute, span name)
LAYERS = [
    ("sirm.tensor", "backward", "tensor.backward"),
    ("sirm.tensor", "Graph.trace", "tensor.graph_trace"),
    ("sirm.tensor", "conv1d", "tensor.conv1d"),
    ("sirm.tensor", "matmul", "tensor.matmul"),
    ("sirm.tensor", "embedding_lookup", "tensor.embedding_lookup"),
    ("sirm.model", "sirm_forward", "model.forward"),
    ("sirm.model", "embed_paragraph", "model.embed"),
    ("sirm.model", "skim_forward", "model.skim"),
    ("sirm.model", "near_neighbor_encode", "model.neighbor"),
    ("sirm.model", "dense_connect_pool", "model.dense_pool"),
    ("sirm.training", "Adam.step", "training.adam"),
    ("sirm.training", "snapshot", "training.snapshot"),
    ("sirm.training", "save_checkpoint", "training.checkpoint_save"),
    ("sirm.evaluation", "evaluate", "evaluation.evaluate"),
    ("sirm.text", "load_dataset", "text.load"),
    ("sirm.text", "build_vocab", "text.build_vocab"),
    ("sirm.text", "encode_split", "text.encode"),
]
# the training loop's own binding of evaluate is its dev pass
BINDING_NAMES = {("sirm.training", "evaluate"): "training.dev_pass"}

# Metric -> span names whose self time it sums. model.neighbor and
# model.dense_pool run once per sentence and once more for the paragraph;
# within one forward span the last call of each is the paragraph level.
PHASE_METRICS = {
    "tensor.backward": ["tensor.backward"],
    "tensor.graph_trace": ["tensor.graph_trace"],
    "tensor.conv1d": ["tensor.conv1d"],
    "tensor.matmul": ["tensor.matmul"],
    "tensor.embedding_lookup": ["tensor.embedding_lookup"],
    "model.embed": ["model.embed"],
    "model.skim": ["model.skim"],
    "model.sentence": ["model.neighbor.sentence", "model.dense_pool.sentence"],
    "model.paragraph": ["model.neighbor.paragraph", "model.dense_pool.paragraph"],
    "model.heads": ["model.forward"],
    "training.adam": ["training.adam"],
    "training.dev_pass": ["training.dev_pass"],
    "training.snapshot": ["training.snapshot"],
    "training.checkpoint_save": ["training.checkpoint_save"],
    "evaluation.evaluate": ["evaluation.evaluate"],
}
SETUP_LAYERS = ("text.load", "text.build_vocab", "text.encode")
_PER_LEVEL = ("model.neighbor", "model.dense_pool")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _sirm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sirm" or name.startswith("sirm."))]


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1]
        self._stack = []
        self.graph_nodes = 0
        self.absent = []
        self._patches = Patches()

    def _wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(out)
            return out
        return wrapper

    def _count_nodes(self, graph):
        self.graph_nodes += len(graph.nodes)

    def install(self):
        self.absent = []
        for module_name, attr, name in LAYERS:
            module = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or not hasattr(owner, method):
                self.absent.append(name)
                continue
            on_return = self._count_nodes if name == "tensor.graph_trace" else None
            if cls_name:
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, on_return))
                else:
                    wrapped = self._wrap(name, raw, on_return)
                self._patches.set(owner, method, wrapped)
                continue
            fn = getattr(owner, method)
            for mod in _sirm_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        span = BINDING_NAMES.get((mod.__name__, key), name)
                        self._patches.set(mod, key, self._wrap(span, fn, on_return))

    def uninstall(self):
        self._patches.undo()

    def reset(self):
        self.spans.clear()
        self.graph_nodes = 0

    def self_times(self):
        """Self seconds and call counts per span name.

        Neighbour and dense-pool spans are split into .sentence and
        .paragraph by their order within the parent forward span.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        last_level_call = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
            if name in _PER_LEVEL:
                last_level_call[(parent, name)] = i
        paragraph = set(last_level_call.values())
        seconds, calls = {}, {}
        for i, (name, start, end, _parent) in enumerate(spans):
            if name in _PER_LEVEL:
                name += ".paragraph" if i in paragraph else ".sentence"
            seconds[name] = seconds.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def layer_metrics(self, examples, wall, setup_self, setup_wall):
        """Per-layer metrics of the traced spans, as {name: (value, unit)}.

        Times are seconds per example with a share of `wall`; text layers
        are seconds of set-up with a share of `setup_wall`.
        """
        seconds, calls = self.self_times()
        forward = sum(end - start for name, start, end, _p in self.spans
                      if name == "model.forward")
        top_level = sum(end - start for _n, start, end, parent in self.spans if parent < 0)
        out = {}

        def put(metric, value):
            out[metric + "_s"] = (value / examples, "s/example")
            out[metric + "_share"] = (100.0 * value / wall, "%")

        for metric, names in PHASE_METRICS.items():
            if not any(self._layer(n) in self.absent for n in names):
                put(metric, sum(seconds.get(n, 0.0) for n in names))
        if "model.forward" not in self.absent:
            put("model.forward", forward)
        if "tensor.graph_trace" not in self.absent:
            out["tensor.graph_nodes_per_example"] = (self.graph_nodes / examples, "count")
        for op in ("conv1d", "matmul"):
            if f"tensor.{op}" not in self.absent:
                out[f"tensor.{op}_calls"] = (calls.get(f"tensor.{op}", 0) / examples, "count")
        for name in SETUP_LAYERS:
            if name not in self.absent:
                value = setup_self.get(name, 0.0)
                out[name + "_s"] = (value, "s")
                out[name + "_share"] = (100.0 * value / setup_wall, "%")
        out["trace.untraced_share"] = (100.0 * (wall - top_level) / wall, "%")
        return out

    @staticmethod
    def _layer(span_name):
        if span_name == "training.dev_pass":
            return "evaluation.evaluate"
        return span_name.rsplit(".", 1)[0] if span_name.endswith(
            (".sentence", ".paragraph")) else span_name

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
