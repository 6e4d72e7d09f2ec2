"""The benchmark's workloads: inputs, set-up, measured units and checks.

Each workload drives the library only through its public entry points
(text.load_dataset, text.build_vocab, text.encode_split,
model.init_sirm_params, training.train, training.save_checkpoint,
training.load_checkpoint, evaluation.evaluate), looked up on the module at
call time so that the traced run's wrappers see every call.

A workload is measured in units: one `training.train` call plus the
checkpoint save for the training workloads, one `evaluate` pass over the
whole evaluation file for inference. The operations counted in
`attempted`/`failed` are optimizer steps and `evaluate` chunks.
"""

import math
import os
import time

import numpy as np

from sirm import evaluation, model, tensor, text, training

import gen
import reference
from tracer import Patches

clock = time.perf_counter

TARGET_MACRO_F1 = 0.95
CHECK_DOCS = 16


class Account:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.op_seconds = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def check_rows(acc, rows, where):
    """evaluate rows are (index, probability, prediction, gold)."""
    probs = np.array([r[1] for r in rows], dtype=np.float64)
    bad = ~np.isfinite(probs) | (probs < 0.0) | (probs > 1.0)
    if bad.any():
        acc.fail(f"{where}: {int(bad.sum())} probabilities non-finite or outside [0, 1]")
    elif any(r[2] != int(r[1] >= 0.5) for r in rows):
        acc.fail(f"{where}: prediction disagrees with its probability")


class Probe:
    """Hooks for the measured run: per-step wall time and output checks.

    A step runs from the training loop's `zero_grads` call to the end of the
    optimizer update; without `zero_grads`, from the previous step, dev pass
    or unit start. The gradient check before the update and the probability
    check after each dev pass are timed and taken back out of the step and
    unit times.
    """

    def __init__(self, acc):
        self.acc = acc
        self.check_seconds = 0.0
        self._start = clock()
        self._patches = Patches()

    def mark(self):
        self._start = clock()

    def install(self):
        acc = self.acc
        zero_grads = getattr(tensor, "zero_grads", None)
        adam_step = training.Adam.step
        dev_pass = training.evaluate

        def timed_zero_grads(tensors):
            self.mark()
            return zero_grads(tensors)

        def checked_step(optimizer):
            t0 = clock()
            bad = [name for name, p in optimizer.named_params
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            t1 = clock()
            acc.attempted += 1
            if bad:
                acc.fail(f"step {acc.attempted}: non-finite gradient in {bad[0]}")
            adam_step(optimizer)
            end = clock()
            self.check_seconds += t1 - t0
            acc.op_seconds.append(end - self._start - (t1 - t0))
            self.mark()

        def checked_dev_pass(*args, **kwargs):
            report, rows = dev_pass(*args, **kwargs)
            t0 = clock()
            check_rows(acc, rows, "dev pass")
            self.check_seconds += clock() - t0
            self.mark()
            return report, rows

        if zero_grads is not None:
            self._patches.set(tensor, "zero_grads", timed_zero_grads)
        self._patches.set(training.Adam, "step", checked_step)
        self._patches.set(training, "evaluate", checked_dev_pass)

    def uninstall(self):
        self._patches.undo()


class Unit:
    def __init__(self, examples, seconds, target_seconds):
        self.examples = examples
        self.seconds = seconds
        self.target_seconds = target_seconds


class TrainWorkload:
    """Shared by both training workloads: train, save, check."""

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.ckpt = os.path.join(workdir, "best.ckpt")
        self.params = None
        self.paths()

    def train_call(self, train_grids, train_config, acc, probe):
        """One train() call plus the checkpoint save; returns (Unit, history)."""
        checks_before = probe.check_seconds
        start = clock()
        probe.mark()
        try:
            params, history = training.train(train_grids, self.dev, "sirm",
                                             self.config, train_config)
            training.save_checkpoint(self.ckpt, "sirm", self.config, params)
        except (training.TrainingError, ValueError) as e:
            acc.attempted += 1
            acc.fail(f"train: {type(e).__name__}: {e}")
            return Unit(0, clock() - start, None), []
        seconds = clock() - start - (probe.check_seconds - checks_before)
        self.params = params
        if not all(math.isfinite(r["train_loss"]) for r in history):
            acc.fail("train: non-finite training loss in history")
        return Unit(len(history) * len(train_grids), seconds, seconds), history

    def final_checks(self, acc):
        if self.params is None:
            return
        _kind, _config, loaded = training.load_checkpoint(self.ckpt)
        saved = dict(loaded.named_tensors())
        if any(not np.array_equal(saved[name].data, t.data)
               for name, t in self.params.named_tensors()):
            acc.fail("checkpoint: reloaded tensors differ from the trained ones")
        grids = self.dev[:CHECK_DOCS]
        _report, rows = evaluation.evaluate("sirm", self.params, self.config, grids)
        check_rows(acc, rows, "final evaluate")
        err = reference.max_prob_error(self.params, self.config, grids, [r[1] for r in rows])
        if not err <= reference.PROB_TOLERANCE:
            acc.fail(f"reference: probability differs by {err:.3g}")


class TrainSmall(TrainWorkload):
    """The acceptance fixture's run: bundled set, m=2, n=10, dev = train.

    The model seed and the data are fixed, so every run follows the same
    trajectory (dev macro-F1 first reaches 0.95 at epoch 76 of 0-based
    history) and time-to-target measures speed, not luck.
    """

    name = "train_small"
    op_name = "step"
    model_seed = 0

    def paths(self):
        self.data = os.path.join(self.root, "data", "synthetic_64.jsonl")

    def make_inputs(self):
        pass

    def setup(self):
        split = text.load_dataset(self.data)
        vocab = text.build_vocab(split, min_frequency=1)
        self.grids = text.encode_split(split, vocab, 2, 10)
        self.dev = self.grids
        self.config = model.SIRMConfig(vocab_size=len(vocab), m=2, n=10)
        training.train(self.grids, self.dev, "sirm", self.config,
                       training.TrainConfig(max_epochs=1, seed=self.model_seed))

    def reset(self):
        pass

    def unit(self, acc, probe):
        tc = training.TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=200,
                                  early_stop_patience=20, seed=self.model_seed)
        unit, history = self.train_call(self.grids, tc, acc, probe)
        hit = next((i for i, r in enumerate(history)
                    if r["dev_macro_f1"] >= TARGET_MACRO_F1), None)
        if hit is None:
            if history:
                acc.fail(f"train_small: dev macro-F1 never reached {TARGET_MACRO_F1}")
            unit.target_seconds = None
        else:
            self.epochs_to_target = hit + 1
            unit.target_seconds = sum(r["wall_seconds"] for r in history[:hit + 1])
        return unit


class TrainPaper(TrainWorkload):
    """Paper grid m=8, n=32, default dims, vocabulary at the 30000 cap.

    Each unit trains one epoch of 4 steps on the next 256-document slice of
    the generated training file, runs the 64-document dev pass and saves.
    """

    name = "train_paper"
    op_name = "step"
    train_docs = 2048
    dev_docs = 64
    slice_docs = 256

    def paths(self):
        self.train_path = os.path.join(self.workdir, "train.jsonl")
        self.dev_path = os.path.join(self.workdir, "dev.jsonl")

    def make_inputs(self):
        docs = gen.generate(self.seed, self.train_docs + self.dev_docs)
        gen.write_jsonl(self.train_path, docs[:self.train_docs])
        gen.write_jsonl(self.dev_path, docs[self.train_docs:])

    def setup(self):
        split = text.load_dataset(self.train_path)
        vocab = text.build_vocab(split)
        self.config = model.SIRMConfig(vocab_size=len(vocab))
        m, n = self.config.m, self.config.n
        self.pool = text.encode_split(split, vocab, m, n)
        self.dev = text.encode_split(text.load_dataset(self.dev_path, name="dev"), vocab, m, n)
        self.cursor = 0
        training.train(self.pool[:64], self.dev, "sirm", self.config,   # one batch
                       training.TrainConfig(max_epochs=1, seed=self.seed))

    def reset(self):
        self.cursor = 0

    def unit(self, acc, probe):
        start = self.cursor * self.slice_docs % len(self.pool)
        self.cursor += 1
        tc = training.TrainConfig(batch_size=64, max_epochs=1, seed=self.seed)
        unit, _history = self.train_call(self.pool[start:start + self.slice_docs],
                                         tc, acc, probe)
        return unit


class InferPaper:
    """evaluate over 2048 generated documents from a saved checkpoint.

    The checkpoint is an input: initialised weights at the CLI's default
    config (vocab_size 30000, m=8, n=32), written with save_checkpoint. The
    vocabulary is built from a 2048-document training file of the same
    generator run, as `sirm build-vocab` would.
    """

    name = "infer_paper"
    op_name = "chunk"
    docs = 2048
    chunk_docs = 64

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.vocab_path = os.path.join(workdir, "train.jsonl")
        self.eval_path = os.path.join(workdir, "eval.jsonl")
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.first_probs = None

    def make_inputs(self):
        docs = gen.generate(self.seed, 2 * self.docs)
        gen.write_jsonl(self.vocab_path, docs[:self.docs])
        gen.write_jsonl(self.eval_path, docs[self.docs:])
        config = model.SIRMConfig(vocab_size=30000)
        training.save_checkpoint(self.ckpt, "sirm", config,
                                 model.init_sirm_params(config, seed=self.seed))

    def setup(self):
        _kind, self.config, self.params = training.load_checkpoint(self.ckpt)
        vocab = text.build_vocab(text.load_dataset(self.vocab_path))
        if len(vocab) > self.config.vocab_size:
            raise ValueError(f"vocabulary of {len(vocab)} exceeds the checkpoint's "
                             f"{self.config.vocab_size}")
        self.grids = text.encode_split(text.load_dataset(self.eval_path, name="eval"),
                                       vocab, self.config.m, self.config.n)
        evaluation.evaluate("sirm", self.params, self.config, self.grids[:self.chunk_docs])

    def reset(self):
        pass

    def unit(self, acc, probe):
        seconds = 0.0
        for start in range(0, len(self.grids), self.chunk_docs):
            chunk = self.grids[start:start + self.chunk_docs]
            acc.attempted += 1
            t0 = clock()
            try:
                report, rows = evaluation.evaluate("sirm", self.params, self.config, chunk)
            except ValueError as e:
                acc.fail(f"evaluate: {type(e).__name__}: {e}")
                continue
            dt = clock() - t0
            seconds += dt
            acc.op_seconds.append(dt)
            check_rows(acc, rows, f"chunk at {start}")
            if report["n"] != len(chunk) or not math.isclose(
                    report["accuracy"], np.mean([r[2] == r[3] for r in rows])):
                acc.fail(f"chunk at {start}: report disagrees with its rows")
            if self.first_probs is None:
                self.first_probs = [r[1] for r in rows[:CHECK_DOCS]]
        return Unit(len(self.grids), seconds, seconds)

    def final_checks(self, acc):
        if self.first_probs is None:
            return
        grids = self.grids[:len(self.first_probs)]
        err = reference.max_prob_error(self.params, self.config, grids, self.first_probs)
        if not err <= reference.PROB_TOLERANCE:
            acc.fail(f"reference: probability differs by {err:.3g}")


WORKLOADS = {w.name: w for w in (TrainSmall, TrainPaper, InferPaper)}
