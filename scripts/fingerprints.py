"""Reference bytes of this tree: checkpoint hashes, gradient errors, sizes.

Runs the `sirm` CLI of this checkout (`python -m sirm.cli` with its `src/`
first on the path, `SIRM_SEED` unset) in a temporary directory and prints:

- the first 8 hex digits of the sha256 of `best.ckpt` for four runs, with the
  CI workflow's commands: the README quickstart, the NBOW run, the
  `--max-epochs 2` run with the dev set split off, and a 3-epoch run at the
  paper grid on `perfbench/gen.py`'s `generate(0, 256)` with the vocabulary at
  its default `--min-freq` and the dev set split off;
- `sirm grad-check`'s maximum relative error on the default, `widths.json`
  and `wrap.json` configs;
- both `sirm param-count` totals.

A change meant to keep every byte prints the same lines as its parent. About
10 seconds on 2 cores.

    python3 scripts/fingerprints.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

DATA = str(ROOT / "data" / "synthetic_64.jsonl")
ENV = {k: v for k, v in os.environ.items() if k != "SIRM_SEED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))
CONFIGS = {
    "widths.json": {"d_e": 6, "d_c": 3, "src_windows": [1, 3], "k": 2, "d_ns": 5,
                    "d_as": 8, "d_np": 3, "d_ap": 7, "m": 3, "n": 5},
    "wrap.json": {"m": 4, "n": 2, "src_windows": [1, 3]},
}


def sirm(*args, cwd):
    """Standard output of one `sirm` command; a nonzero exit is an error."""
    done = subprocess.run([sys.executable, "-m", "sirm.cli", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"sirm {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def checkpoint_hash(run_dir):
    return hashlib.sha256((run_dir / "best.ckpt").read_bytes()).hexdigest()[:8]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sirm("build-vocab", "--train", DATA, "--out", "vocab.tsv", "--min-freq", "1", cwd=tmp)
        small = ["--vocab", "vocab.tsv", "--m", "2", "--n", "10"]
        runs = {
            "quickstart": ["--dev", DATA, *small, "--seed", "0",
                           "--max-epochs", "200", "--patience", "20"],
            "nbow": ["--dev", DATA, *small, "--model", "nbow", "--seed", "0",
                     "--max-epochs", "30"],
            "split": [*small, "--max-epochs", "2"],
        }
        for name, args in runs.items():
            sirm("train", "--train", DATA, "--out-dir", name, *args, cwd=tmp)
            print(f"{name} best.ckpt: {checkpoint_hash(tmp / name)}")

        gen.write_jsonl(tmp / "paper.jsonl", gen.generate(0, 256))
        sirm("build-vocab", "--train", "paper.jsonl", "--out", "paper_vocab.tsv", cwd=tmp)
        sirm("train", "--train", "paper.jsonl", "--vocab", "paper_vocab.tsv",
             "--out-dir", "paper", "--max-epochs", "3", cwd=tmp)
        print(f"paper best.ckpt: {checkpoint_hash(tmp / 'paper')}")

        for name, config in [("default", None), *CONFIGS.items()]:
            args = []
            if config:
                (tmp / name).write_text(json.dumps(config), encoding="utf-8")
                args = ["--config", name]
            error = sirm("grad-check", *args, cwd=tmp).split(": ")[-1].strip()
            print(f"grad-check {name}: {error}")

        print(sirm("param-count", cwd=tmp), end="")


if __name__ == "__main__":
    main()
