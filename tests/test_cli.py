import json
import os

import numpy as np
import pytest

from sirm.cli import main
from sirm.synthetic import generate, write_jsonl

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

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_empty_data_file_is_data_error(self, workspace, command, capsys):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        out_dir = tmp_path / "run"
        assert main(["train", "--train", str(data), "--dev", str(data),
                     "--vocab", str(vocab), "--out-dir", str(out_dir),
                     "--config", str(config), "--max-epochs", "1"]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "preds.tsv"
        argv = [command, "--checkpoint", str(out_dir / "best.ckpt"),
                "--data", str(empty), "--vocab", str(vocab)]
        if command == "predict":
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert "empty" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_aware_checkpoint_is_data_error(self, workspace, capsys):
        tmp_path, data, config = workspace
        vocab = build_vocab(tmp_path, data)
        out_dir = tmp_path / "run"
        assert main(["train", "--train", str(data), "--dev", str(data),
                     "--vocab", str(vocab), "--out-dir", str(out_dir),
                     "--config", str(config), "--max-epochs", "1"]) == 0
        ckpt = out_dir / "best.ckpt"
        ckpt.write_bytes(with_parent_header(ckpt.read_bytes(), True))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--vocab", str(vocab)]) == 2
        assert "mask_aware_pooling" in capsys.readouterr().err

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


class TestSelfChecks:
    def test_grad_check_passes(self, capsys):
        assert main(["grad-check"]) == 0
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
