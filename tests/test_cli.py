import json
import struct
import warnings

import numpy as np
import pytest

from sirm.cli import SIRM_FIELDS, TRAIN_FIELDS, _assemble, build_parser, main
from sirm.model import ConfigError
from sirm.synthetic import generate, write_jsonl
from sirm.training import load_checkpoint, save_checkpoint

from test_training import with_parent_header

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
    (tmp / "vocab5.json").write_text(json.dumps({**TOY_CONFIG, "vocab_size": 5}))
    (tmp / "empty.jsonl").write_text("")
    (tmp / "one.jsonl").write_text(data.read_text().splitlines()[0] + "\n")
    return {"data": data, "config": config, "vocab": vocab, "ckpt": ckpt,
            "nan_ckpt": tmp / "nan.ckpt", "huge_ckpt": tmp / "huge.ckpt",
            "dup_ckpt": tmp / "dup.ckpt", "vocab5_config": tmp / "vocab5.json",
            "retired_ckpt": tmp / "retired.ckpt", "empty": tmp / "empty.jsonl",
            "one": tmp / "one.jsonl"}


def train_args(*extra, config="{config}"):
    return ["train", "--vocab", "{vocab}", "--config", config, "--out-dir", "{out}",
            *extra]


TRAIN_DEV = ("--train", "{data}", "--dev", "{data}")


def eval_args(ckpt="{ckpt}", data="{data}"):
    return ["eval", "--checkpoint", ckpt, "--data", data, "--vocab", "{vocab}"]


# (id, argv, exit code, fragment of the error message); {out} names the
# output path, which a failing run must not create
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
    ("empty-eval", eval_args(data="{empty}"), 2, "empty"),
    ("empty-predict", ["predict"] + eval_args(data="{empty}")[1:] + ["--out", "{out}"],
     2, "empty"),
]


@pytest.mark.parametrize("argv,code,fragment", [row[1:] for row in FAILURES],
                         ids=[row[0] for row in FAILURES])
def test_failure_modes(failure_inputs, argv, code, fragment, tmp_path, capsys):
    out = tmp_path / "out"
    paths = {key: str(value) for key, value in failure_inputs.items()}
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(out=out, **paths) for arg in argv]) == code
    assert fragment in capsys.readouterr().err
    assert not out.exists()
    assert [str(w.message) for w in caught] == []


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

    def test_grad_check_with_a_paragraph_window_wider_than_m(self, tmp_path, capsys):
        config = tmp_path / "k3.json"       # window 2k+1 = 7 over m = 2 sentences
        config.write_text(json.dumps({"k": 3}))
        assert main(["grad-check", "--config", str(config)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

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
