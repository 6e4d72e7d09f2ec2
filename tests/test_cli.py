import dataclasses
import json
import logging
import os
import signal
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sirm
import sirm.training as training_mod
from sirm import tensor as T
from sirm.cli import (GRAD_CHECK_TOLERANCE, SIRM_FIELDS, TRAIN_FIELDS, _assemble,
                      _load_config_file, build_parser, main, run_grad_check,
                      toy_grad_check_config)
from sirm.model import ConfigError
from sirm.synthetic import generate, write_jsonl
from sirm.training import best_epoch, load_checkpoint, save_checkpoint

from test_training import split_records, with_first_record, with_header, with_parent_header

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_64.jsonl"

TOY_CONFIG = {
    "d_e": 4, "d_c": 2, "src_windows": [1, 2], "k": 1,
    "d_ns": 4, "d_np": 4, "d_as": 4, "d_ap": 4, "m": 2, "n": 10,
    "max_epochs": 2, "early_stop_patience": 5, "batch_size": 16,
}


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "train.jsonl"
    write_jsonl(data, generate())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    return tmp_path, data, config


def build_vocab(tmp_path, data):
    vocab = tmp_path / "vocab.tsv"
    assert main(["build-vocab", "--train", str(data), "--out", str(vocab),
                 "--min-freq", "1"]) == 0
    return vocab


class TestBuildVocab:
    def test_tiny_jsonl(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(
            json.dumps({"text": t, "label": 0})
            for t in ["a b", "a c", "a b"]) + "\n")
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--train", str(data), "--out", str(out),
                     "--min-freq", "1"]) == 0
        tokens = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert tokens[:2] == ["<pad>", "<unk>"]
        assert set(tokens[2:]) == {"a", "b", "c"}
        assert "vocabulary size" in capsys.readouterr().out

    def test_max_size_two_warns(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"text": "a b", "label": 0}) + "\n")
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--train", str(data), "--out", str(out),
                     "--min-freq", "1", "--max-size", "2"]) == 0
        assert "reserved" in capsys.readouterr().err

    def test_rerun_byte_identical(self, workspace):
        tmp_path, data, _ = workspace
        vocab = build_vocab(tmp_path, data)
        first = vocab.read_bytes()
        build_vocab(tmp_path, data)
        assert vocab.read_bytes() == first

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        rc = main(["build-vocab", "--train", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "v.tsv")])
        assert rc == 2


class TestTrainEvalPredict:
    def test_full_cycle(self, workspace, capsys):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        out_dir = tmp_path / "run"
        rc = main(["train", "--train", str(data), "--dev", str(data),
                   "--vocab", str(vocab), "--out-dir", str(out_dir),
                   "--config", str(config), "--seed", "0"])
        assert rc == 0
        ckpt = out_dir / "best.ckpt"
        assert ckpt.exists()
        history = [json.loads(line)
                   for line in (out_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 2
        capsys.readouterr()

        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                   "--vocab", str(vocab)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(report) >= {"accuracy", "f1", "macro_f1", "n"}
        assert report["n"] == 64

        preds = tmp_path / "preds.tsv"
        rc = main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                   "--vocab", str(vocab), "--out", str(preds)])
        assert rc == 0
        lines = preds.read_text().splitlines()
        assert len(lines) == 64
        assert [int(line.split("\t")[0]) for line in lines] == list(range(64))

    @pytest.mark.parametrize("schedule, warns", [
        ([], True),     # default 50 epochs, patience 5: best dev accuracy 0.515625 on 32/32
        (["--max-epochs", "200", "--patience", "20"], False),  # the README run: 1.0
    ])
    def test_train_reports_best_epoch_and_warns_at_chance(self, tmp_path, capsys,
                                                          schedule, warns):
        vocab = build_vocab(tmp_path, BUNDLED)
        out_dir = tmp_path / "run"
        rc = main(["train", "--train", str(BUNDLED), "--dev", str(BUNDLED),
                   "--vocab", str(vocab), "--out-dir", str(out_dir),
                   "--m", "2", "--n", "10", "--seed", "0", *schedule])
        assert rc == 0
        captured = capsys.readouterr()
        history = [json.loads(line)
                   for line in (out_dir / "history.jsonl").read_text().splitlines()]
        scores = [record["dev_macro_f1"] for record in history]
        best = scores.index(max(scores))
        assert f"best epoch: {best} (dev macro-F1 {scores[best]:.4f})" in captured.out
        # 32 of 64 dev labels are 1: chance is 0.5 plus one standard error 0.0625
        assert (history[best]["dev_acc"] < 0.5625) == warns
        assert ("warning: best dev accuracy" in captured.err) == warns

    @pytest.mark.parametrize("model", ["sirm", "nbow"])
    def test_dev_metrics_are_the_kept_epochs_dev_pass(self, workspace, model):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        out_dir = tmp_path / model
        rc = main(["train", "--train", str(data), "--dev", str(data),
                   "--vocab", str(vocab), "--out-dir", str(out_dir), "--config", str(config),
                   "--model", model, "--max-epochs", "12", "--patience", "3"])
        assert rc == 0
        history = [json.loads(line)
                   for line in (out_dir / "history.jsonl").read_text().splitlines()]
        kept = history[best_epoch(history)]
        report = json.loads((out_dir / "dev_metrics.json").read_text())
        assert [report[key] for key in ("accuracy", "f1", "macro_f1")] == \
            [kept[key] for key in ("dev_acc", "dev_f1", "dev_macro_f1")]

    def test_failed_rerun_leaves_the_earlier_runs_files(self, workspace, monkeypatch):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        out_dir = tmp_path / "run"
        argv = ["train", "--train", str(data), "--dev", str(data), "--vocab", str(vocab),
                "--out-dir", str(out_dir), "--config", str(config), "--max-epochs", "5"]
        assert main(argv) == 0
        names = ["best.ckpt", "dev_metrics.json", "history.jsonl"]
        before = {name: (out_dir / name).read_bytes() for name in names}
        dev_pass = training_mod.evaluate
        calls = []

        def failing_at_epoch_2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("non-finite probability")
            return dev_pass(*args, **kwargs)

        monkeypatch.setattr(training_mod, "evaluate", failing_at_epoch_2)
        assert main(argv) == 3
        assert len(calls) == 3
        assert sorted(os.listdir(out_dir)) == names
        assert {name: (out_dir / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize("used", [False, True])
    def test_interrupted_run_leaves_the_out_dir_as_it_found_it(self, tmp_path, used):
        vocab = build_vocab(tmp_path, BUNDLED)
        out_dir = tmp_path / "run"
        argv = ["train", "--train", str(BUNDLED), "--dev", str(BUNDLED), "--vocab", str(vocab),
                "--out-dir", str(out_dir), "--m", "2", "--n", "10"]
        names = ["best.ckpt", "dev_metrics.json", "history.jsonl"]
        before = {}
        if used:
            assert main(argv + ["--max-epochs", "2"]) == 0
            before = {name: (out_dir / name).read_bytes() for name in names}
        src = str(Path(sirm.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "sirm.cli"] + argv
                                + ["--max-epochs", "100000", "--patience", "100000"],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while not (out_dir / "history.jsonl.partial").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) != 0
        finally:
            proc.kill()
            proc.wait()
        if used:
            assert sorted(os.listdir(out_dir)) == names
            assert {name: (out_dir / name).read_bytes() for name in names} == before
        else:
            assert not out_dir.exists()

    def test_nbow_model_flag(self, workspace):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        rc = main(["train", "--train", str(data), "--dev", str(data),
                   "--vocab", str(vocab), "--out-dir", str(tmp_path / "nbow"),
                   "--config", str(config), "--model", "nbow"])
        assert rc == 0

    def test_missing_checkpoint_no_partial_output(self, workspace):
        tmp_path, data, _ = workspace
        vocab = build_vocab(tmp_path, data)
        out = tmp_path / "preds.tsv"
        rc = main(["predict", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--data", str(data), "--vocab", str(vocab), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_env_seed_override(self, workspace, monkeypatch):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        runs = {}
        for name, env_seed in (("a", "5"), ("b", "5"), ("c", "6")):
            monkeypatch.setenv("SIRM_SEED", env_seed)
            assert main(["train", "--train", str(data), "--dev", str(data),
                         "--vocab", str(vocab), "--config", str(config),
                         "--out-dir", str(tmp_path / name), "--seed", "0",
                         "--max-epochs", "1"]) == 0
            runs[name] = (tmp_path / name / "best.ckpt").read_bytes()
        assert runs["a"] == runs["b"]
        assert runs["a"] != runs["c"]

    def test_tsv_format_matches_jsonl(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SIRM_SEED", raising=False)
        tsv = tmp_path / "synthetic_64.tsv"
        tsv.write_text("".join(
            f"{obj['label']}\t{obj['text']}\n"
            for obj in map(json.loads, BUNDLED.read_text().splitlines())))
        outputs = {}
        for fmt, data in (("jsonl", BUNDLED), ("tsv", tsv)):
            out = tmp_path / fmt
            out.mkdir()
            vocab, ckpt, preds = out / "vocab.tsv", out / "run" / "best.ckpt", out / "p.tsv"
            common = ["--vocab", str(vocab), "--format", fmt]
            assert main(["build-vocab", "--train", str(data), "--out", str(vocab),
                         "--min-freq", "1", "--format", fmt]) == 0
            assert main(["train", "--train", str(data), "--dev", str(data), *common,
                         "--out-dir", str(out / "run"), "--m", "2", "--n", "10",
                         "--seed", "0", "--max-epochs", "2"]) == 0
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         *common]) == 0
            report = capsys.readouterr().out
            assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                         *common, "--out", str(preds)]) == 0
            outputs[fmt] = (vocab.read_bytes(), ckpt.read_bytes(), report,
                            preds.read_bytes())
        assert outputs["tsv"] == outputs["jsonl"]


# (id, config-file values of the wrong type, fragment of the error message)
WRONG_TYPES = [
    ("string_dim", {"d_e": "64"}, "d_e must be an integer, got '64'"),
    ("null_lambda", {"lambda_adv": None}, "lambda_adv must be a finite number, got None"),
    ("int_windows", {"src_windows": 3}, "src_windows must be a list of integers, got 3"),
    ("string_lr", {"learning_rate": "0.1"}, "learning_rate must be a finite number, got '0.1'"),
    ("float_grid", {"m": 2.5}, "m must be an integer, got 2.5"),
    ("bool_batch", {"batch_size": True}, "batch_size must be an integer, got True"),
]


@pytest.fixture(scope="module")
def failure_inputs(tmp_path_factory):
    """A trained checkpoint and broken variants of it and of the data."""
    tmp = tmp_path_factory.mktemp("failures")
    data = tmp / "train.jsonl"
    write_jsonl(data, generate())
    config = tmp / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    vocab = build_vocab(tmp, data)
    assert main(["train", "--train", str(data), "--dev", str(data),
                 "--vocab", str(vocab), "--out-dir", str(tmp / "run"),
                 "--config", str(config), "--max-epochs", "1"]) == 0
    ckpt = tmp / "run" / "best.ckpt"
    kind, model_config, params = load_checkpoint(ckpt)
    params.out_head[1].data[:] = np.nan
    save_checkpoint(tmp / "nan.ckpt", kind, model_config, params)
    # finite weights whose products overflow in the first forward
    signs = np.where(np.arange(model_config.d_e) % 2, -1.0, 1.0)
    params.out_head[1].data[:] = 0.0
    params.embedding.data[:] = 3e38 * signs
    for weight, _ in params.src_filters.values():
        weight.data[:] = 3e38 * signs[:, None]
    save_checkpoint(tmp / "huge.ckpt", kind, model_config, params)
    name = b"out_head.bias"     # a second record under an existing name
    (tmp / "dup.ckpt").write_bytes(
        ckpt.read_bytes() + struct.pack("<I", len(name)) + name
        + struct.pack("<II", 1, 1) + np.zeros(1, dtype="<f4").tobytes())
    (tmp / "retired.ckpt").write_bytes(with_parent_header(ckpt.read_bytes(), True))
    (tmp / "bogus.ckpt").write_bytes(
        with_header(ckpt.read_bytes(), lambda h: h.update(model="bogus")))
    # the header names skim windows 1 and 3, the records hold windows 1 and 2
    (tmp / "renamed.ckpt").write_bytes(
        with_header(ckpt.read_bytes(), lambda h: h["config"].update(src_windows=[1, 3])))
    # every record intact, the adversarial head's two before the main head's
    head, records = split_records(ckpt.read_bytes())
    (tmp / "reordered.ckpt").write_bytes(
        head + b"".join(record for _, record in records[:-4] + records[-2:] + records[-4:-2]))
    (tmp / "vocab5.json").write_text(json.dumps({**TOY_CONFIG, "vocab_size": 5}))
    (tmp / "not_json.json").write_text("{\"d_e\": 4,")
    (tmp / "no_windows.json").write_text(json.dumps({**TOY_CONFIG, "src_windows": []}))
    (tmp / "wrong_type.ckpt").write_bytes(
        with_header(ckpt.read_bytes(), lambda h: h["config"].update(m=2.5)))
    (tmp / "bad_name.ckpt").write_bytes(
        with_first_record(ckpt.read_bytes(), lambda name, dims: (b"\xff" + name[1:], dims)))
    (tmp / "wrapping_dims.ckpt").write_bytes(
        with_first_record(ckpt.read_bytes(), lambda name, dims: (name, (2**32 - 1,) * 2)))
    (tmp / "adam.json").write_text(json.dumps({"adam_beta2": 0.99}))
    (tmp / "empty.jsonl").write_text("")
    (tmp / "one.jsonl").write_text(data.read_text().splitlines()[0] + "\n")
    (tmp / "not_utf8.jsonl").write_bytes(b"\xff" + data.read_bytes())
    write_jsonl(tmp / "bool_labels.jsonl", [(text, True) for text, _ in generate()])
    (tmp / "plus_one.tsv").write_text("".join(f"+1\t{text}\n" for text, _ in generate()))
    (tmp / "bad_count.tsv").write_text(vocab.read_text() + "foo\tabc\n")
    (tmp / "dup_token.tsv").write_text(vocab.read_text() + "foo\t1\nfoo\t1\n")
    (tmp / "bigger.tsv").write_text(vocab.read_text() + "foo\t1\n")
    paths = {f"config_{name}": tmp / f"config_{name}.json" for name, _, _ in WRONG_TYPES}
    for name, override, _ in WRONG_TYPES:
        paths[f"config_{name}"].write_text(json.dumps({**TOY_CONFIG, **override}))
    return {**paths, "data": data, "config": config, "vocab": vocab, "ckpt": ckpt,
            "nan_ckpt": tmp / "nan.ckpt", "huge_ckpt": tmp / "huge.ckpt",
            "dup_ckpt": tmp / "dup.ckpt", "vocab5_config": tmp / "vocab5.json",
            "renamed_ckpt": tmp / "renamed.ckpt", "not_json_config": tmp / "not_json.json",
            "no_windows_config": tmp / "no_windows.json", "bigger_vocab": tmp / "bigger.tsv",
            "retired_ckpt": tmp / "retired.ckpt", "bogus_ckpt": tmp / "bogus.ckpt",
            "wrong_type_ckpt": tmp / "wrong_type.ckpt", "bad_name_ckpt": tmp / "bad_name.ckpt",
            "wrapping_dims_ckpt": tmp / "wrapping_dims.ckpt",
            "reordered_ckpt": tmp / "reordered.ckpt",
            "adam_config": tmp / "adam.json", "empty": tmp / "empty.jsonl",
            "one": tmp / "one.jsonl", "not_utf8": tmp / "not_utf8.jsonl",
            "bool_labels": tmp / "bool_labels.jsonl", "plus_one": tmp / "plus_one.tsv",
            "bad_count_vocab": tmp / "bad_count.tsv", "dup_token_vocab": tmp / "dup_token.tsv"}


def train_args(*extra, config="{config}"):
    return ["train", "--vocab", "{vocab}", "--config", config, "--out-dir", "{out}",
            *extra]


TRAIN_DEV = ("--train", "{data}", "--dev", "{data}")


def eval_args(ckpt="{ckpt}", data="{data}", vocab="{vocab}"):
    return ["eval", "--checkpoint", ckpt, "--data", data, "--vocab", vocab]


# (id, argv, exit code, fragment of the error message); {out} names the
# output path, which a failing run must not create, and leading NAME=value
# words set environment variables, as in a shell
FAILURES = [
    ("nan-weights", eval_args("{nan_ckpt}"), 2, "non-finite"),
    ("huge-weights", eval_args("{huge_ckpt}"), 3, "non-finite probability"),
    ("max-epochs-zero", train_args(*TRAIN_DEV, "--max-epochs", "0"), 1,
     "max_epochs must be >= 1"),
    ("negative-patience", train_args(*TRAIN_DEV, "--patience", "-1"), 1,
     "early_stop_patience"),
    ("one-example-train", train_args("--train", "{one}"), 2, "at least 2 examples"),
    ("vocab-size-mismatch", train_args(*TRAIN_DEV, config="{vocab5_config}"), 1,
     "config vocab_size 5 does not match"),
    ("duplicate-tensor", eval_args("{dup_ckpt}"), 2, "appears twice"),
    ("retired-key", eval_args("{retired_ckpt}"), 2, "mask_aware_pooling"),
    ("unknown-kind", eval_args("{bogus_ckpt}"), 2, "unknown model kind 'bogus'"),
    # one step per epoch: the first update overflows the epoch-0 dev pass
    ("diverge-lr", train_args(*TRAIN_DEV, "--lr", "1e30", "--batch-size", "64"), 3,
     "epoch 0 dev pass: non-finite probability"),
    # four steps per epoch: the first update overflows the second batch's forward
    ("diverge-in-batch", train_args(*TRAIN_DEV, "--lr", "1e30", "--batch-size", "16"), 3,
     "non-finite loss in epoch 0"),
    ("empty-eval", eval_args(data="{empty}"), 2, "empty"),
    ("empty-predict", ["predict"] + eval_args(data="{empty}")[1:] + ["--out", "{out}"],
     2, "empty"),
    ("not-utf8-data", eval_args(data="{not_utf8}"), 2, "not_utf8.jsonl: not UTF-8 text"),
    ("bool-labels", eval_args(data="{bool_labels}"), 2, "bool_labels.jsonl: 64/64 malformed"),
    ("plus-one-tsv-labels", eval_args(data="{plus_one}") + ["--format", "tsv"], 2,
     "plus_one.tsv: 64/64 malformed"),
    ("nan-threshold-eval", eval_args() + ["--threshold", "nan"], 1,
     "threshold must be a finite number, got nan"),
    ("nan-threshold-predict", ["predict"] + eval_args()[1:] + ["--threshold", "nan",
                                                              "--out", "{out}"], 1,
     "threshold must be a finite number, got nan"),
    ("negative-seed", train_args(*TRAIN_DEV, "--seed", "-1"), 1, "seed must be >= 0"),
    ("non-integer-seed-env", ["SIRM_SEED=abc", *train_args(*TRAIN_DEV)], 1,
     "SIRM_SEED must be an integer, got 'abc'"),
    ("bad-vocab-count", eval_args(vocab="{bad_count_vocab}"), 2,
     "bad vocabulary line 'foo\\tabc'"),
    ("duplicate-vocab-token", eval_args(vocab="{dup_token_vocab}"), 2,
     "duplicate vocabulary token 'foo'"),
    ("wrong-type-header", eval_args("{wrong_type_ckpt}"), 2, "m must be an integer, got 2.5"),
    ("non-utf8-tensor-name", eval_args("{bad_name_ckpt}"), 2,
     "bad_name.ckpt: corrupt tensor record name"),
    ("wrapping-tensor-dims", eval_args("{wrapping_dims_ckpt}"), 2,
     "wrapping_dims.ckpt: truncated checkpoint file"),
    # Adam's betas and epsilon are fixed, not config keys
    ("adam-key-in-config", train_args(*TRAIN_DEV, config="{adam_config}"), 1,
     "unknown config keys: ['adam_beta2']"),
    ("config-not-json", train_args(*TRAIN_DEV, config="{not_json_config}"), 2,
     "cannot read config"),
    ("no-skim-windows", train_args(*TRAIN_DEV, config="{no_windows_config}"), 1,
     "src_windows must be non-empty"),
    ("eval-vocab-size-mismatch", eval_args(vocab="{bigger_vocab}"), 2,
     "does not match checkpoint config"),
    ("tensor-names-mismatch", eval_args("{renamed_ckpt}"), 2,
     "renamed.ckpt: tensor names do not match the config"),
    ("records-out-of-order", eval_args("{reordered_ckpt}"), 2,
     "reordered.ckpt: tensor names do not match the config"),
    ("empty-train-split", train_args("--train", "{empty}", "--dev", "{data}"), 2,
     "training split is empty"),
    ("empty-dev-split", train_args("--train", "{data}", "--dev", "{empty}"), 2,
     "dev split is empty"),
    ("threshold-above-one-eval", eval_args() + ["--threshold", "1.5"], 1,
     "threshold must be in [0, 1], got 1.5"),
    ("negative-threshold-predict", ["predict"] + eval_args()[1:] + ["--threshold", "-0.5",
                                                                   "--out", "{out}"], 1,
     "threshold must be in [0, 1], got -0.5"),
    *[(f"config-{name}", train_args(*TRAIN_DEV, config=f"{{config_{name}}}"), 1, fragment)
      for name, _, fragment in WRONG_TYPES],
]


@pytest.mark.parametrize("argv,code,fragment", [row[1:] for row in FAILURES],
                         ids=[row[0] for row in FAILURES])
def test_failure_modes(failure_inputs, argv, code, fragment, tmp_path, capsys,
                       monkeypatch):
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    out = tmp_path / "out"
    paths = {key: str(value) for key, value in failure_inputs.items()}
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(out=out, **paths) for arg in argv]) == code
    assert fragment in capsys.readouterr().err
    assert not out.exists()
    assert [str(w.message) for w in caught] == []


def test_unknown_log_level_is_usage_error():
    # in a fresh process, where logging is not yet configured
    src = str(Path(sirm.__file__).resolve().parent.parent)
    env = {**os.environ, "SIRM_LOG": "bogus",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "sirm.cli", "param-count"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "bogus" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_log_level_checked_when_logging_is_already_configured(monkeypatch, capsys):
    # a host that set up logging first: logging.basicConfig then does nothing
    handler = logging.NullHandler()
    logging.getLogger().addHandler(handler)
    try:
        monkeypatch.setenv("SIRM_LOG", "bogus")
        assert main(["param-count"]) == 1
        assert "SIRM_LOG" in capsys.readouterr().err
        monkeypatch.setenv("SIRM_LOG", "ERROR")
        assert main(["param-count"]) == 0
        assert logging.getLogger("sirm").level == logging.ERROR
    finally:
        logging.getLogger().removeHandler(handler)
        logging.getLogger("sirm").setLevel(logging.NOTSET)


# (flag, config field, value in the config file, value on the command line)
TRAIN_FLAGS = [
    ("--lambda", "lambda_adv", 0.25, 0.5),
    ("--lr", "learning_rate", 2e-3, 1e-2),
    ("--batch-size", "batch_size", 16, 8),
    ("--max-epochs", "max_epochs", 2, 3),
    ("--patience", "early_stop_patience", 5, 2),
    ("--seed", "seed", 4, 9),
    ("--m", "m", 2, 3),
    ("--n", "n", 10, 7),
    ("--d-e", "d_e", 4, 6),
    ("--d-c", "d_c", 2, 3),
]


def assembled(tmp_path, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = build_parser().parse_args(
        ["train", "--train", "t", "--vocab", "v", "--out-dir", "o",
         "--config", str(path), *flags])
    return _assemble(args, vocab_size=50)


@pytest.mark.parametrize("flag,field,file_value,flag_value", TRAIN_FLAGS,
                         ids=[row[0] for row in TRAIN_FLAGS])
def test_train_flag_sets_config_field(tmp_path, monkeypatch, flag, field,
                                      file_value, flag_value):
    monkeypatch.delenv("SIRM_SEED", raising=False)
    config = {**TOY_CONFIG, field: file_value}
    for flags, value in (((), file_value), ((flag, str(flag_value)), flag_value)):
        values = [getattr(c, field) for c in assembled(tmp_path, config, *flags)
                  if hasattr(c, field)]
        assert values == [value]


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path, encoding):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d_e": 6, "m": 3}), encoding=encoding)
    assert path.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
    assert _load_config_file(str(path)) == {"d_e": 6, "m": 3}


def test_config_vocab_size_must_match_the_vocabulary(tmp_path):
    sirm_cfg, _ = assembled(tmp_path, {**TOY_CONFIG, "vocab_size": 50})
    assert sirm_cfg.vocab_size == 50
    with pytest.raises(ConfigError, match="vocab_size 49 .* size 50"):
        assembled(tmp_path, {**TOY_CONFIG, "vocab_size": 49})


def test_every_config_flag_is_in_the_flag_table():
    args = build_parser().parse_args(["train", "--train", "t", "--vocab", "v",
                                      "--out-dir", "o"])
    assert set(vars(args)) & (SIRM_FIELDS | TRAIN_FIELDS) == {
        row[1] for row in TRAIN_FLAGS}


class TestSelfChecks:
    def test_grad_check_passes(self, capsys):
        assert main(["grad-check"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_grad_check_differentiates_the_skims_pad_stretch(self, monkeypatch):
        kept = T._conv_relu_mean_kept
        # the second config's window 3 spans more than a sentence of n = 2, so
        # its 4-row stretch reads each position's source row twice
        for config in (toy_grad_check_config(),
                       dataclasses.replace(toy_grad_check_config(), m=4, n=2, src_windows=[1, 3])):
            compacted = []
            monkeypatch.setattr(T, "_conv_relu_mean_kept",
                                lambda *args: compacted.append(1) or kept(*args))
            max_err, _ = run_grad_check(config)
            assert compacted and max_err < GRAD_CHECK_TOLERANCE, config

    def test_grad_check_with_a_paragraph_window_wider_than_m(self, tmp_path, capsys):
        config = tmp_path / "k3.json"       # window 2k+1 = 7 over m = 2 sentences
        config.write_text(json.dumps({"k": 3}))
        assert main(["grad-check", "--config", str(config)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_grad_check_with_every_row_block_a_different_width(self, tmp_path, capsys):
        # W_g, W_u and W_x have 6, 5 and 6 rows at the sentence level and 6, 3
        # and 8 at the paragraph level, so any two swapped block offsets give
        # some level a block of the wrong shape; window 2k+1 = 5 over m = 3
        config = tmp_path / "widths.json"
        config.write_text(json.dumps({"d_e": 6, "d_c": 3, "src_windows": [1, 3], "k": 2,
                                      "d_ns": 5, "d_as": 8, "d_np": 3, "d_ap": 7,
                                      "m": 3, "n": 5}))
        assert main(["grad-check", "--config", str(config)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_failing_grad_check_names_each_failing_tensor(self, monkeypatch, capsys):
        # every convolution weight fails, every other tensor passes
        monkeypatch.setattr(T, "finite_diff_check",
                            lambda f, x: 1.0 if x.data.ndim == 3 else 0.0)
        assert main(["grad-check"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"FAIL {name}: 1.000e+00" for name in ("para_neighbor.weight", "sent_neighbor.weight",
                                                    "src_filters.1.weight", "src_filters.2.weight")]

    def test_param_count_default(self, capsys):
        assert main(["param-count"]) == 0
        out = capsys.readouterr().out
        assert "59971" in out

    def test_odd_d_e_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"d_e": 5}))
        assert main(["param-count", "--config", str(config)]) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"banana": 1}))
        assert main(["param-count", "--config", str(config)]) == 1

    @pytest.mark.parametrize("text", ["42", '["d_e"]'])
    def test_non_object_config_is_data_error(self, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        assert main(["param-count", "--config", str(config)]) == 2
        assert "not a JSON object" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["grad-check", "--frobnicate"]) == 1

    def test_help_mentions_default_hyperparameters(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        for token in ("1e-3", "1e-6", "64"):
            assert token in out
