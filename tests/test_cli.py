import importlib
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from abpe import (
    BpeModel,
    Corpus,
    FormatError,
    KMeansModel,
    NgramModel,
    SynthSpec,
    load_tokens,
    save_features,
    save_tokens,
    synth_corpus,
)
import abpe.__main__
from abpe import cli, corpus
from abpe.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "abpe 0.1.0" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_missing_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--vocab", 10, "--utts", 5)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tok"
    bad.write_text("1 x\n", encoding="utf-8")
    code = run_cli("score", "--model", tmp_path / "nope.model", "--in", bad)
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_deterministic_and_stdout(tmp_path, capsys):
    out1 = tmp_path / "a.tok"
    out2 = tmp_path / "b.tok"
    args = ["synth", "--vocab", 20, "--utts", 10, "--seed", 3]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == out1.read_text(encoding="utf-8")


def test_bpe_train_exact_merge_file(tmp_path):
    toy = tmp_path / "toy.tok"
    toy.write_text("#vocab 2\n0 1 0 1\n0 1\n", encoding="utf-8")
    merges = tmp_path / "toy.merges"
    assert run_cli("bpe-train", "--vocab", 3, "--in", toy, "--out", merges) == 0
    body = merges.read_text(encoding="utf-8").splitlines()[2:]
    assert body == ["0 1"]


def test_bpe_encode_decode_roundtrip(tmp_path):
    corpus = synth_corpus(SynthSpec(25, 30, (10, 30), 3, (2, 4), 0.5, 1.2, seed=6))
    src = tmp_path / "src.tok"
    save_tokens(corpus, str(src))
    merges = tmp_path / "m.merges"
    enc = tmp_path / "enc.tok"
    dec = tmp_path / "dec.tok"
    assert run_cli("bpe-train", "--vocab", 60, "--in", src, "--out", merges) == 0
    assert run_cli("bpe-encode", "--model", merges, "--in", src, "--out", enc) == 0
    assert run_cli("bpe-decode", "--model", merges, "--in", enc, "--out", dec) == 0
    assert load_tokens(str(dec)).utterances == corpus.utterances


def test_pipeline_equals_in_process_composition(tmp_path):
    corpus = synth_corpus(SynthSpec(25, 30, (10, 30), 3, (2, 4), 0.5, 1.2, seed=8))
    src = tmp_path / "src.tok"
    save_tokens(corpus, str(src))
    merges = tmp_path / "m.merges"
    enc = tmp_path / "enc.tok"
    assert run_cli("bpe-train", "--vocab", 60, "--in", src, "--out", merges) == 0
    assert run_cli("bpe-encode", "--model", merges, "--in", src, "--out", enc) == 0
    model = BpeModel.train(corpus, 60)
    assert BpeModel.load(str(merges)) == model
    assert load_tokens(str(enc)) == model.encode_corpus(corpus)


def test_unicode_roundtrip(tmp_path):
    corpus = Corpus([[0, 5, 2], [19, 19]], 20)
    src = tmp_path / "src.tok"
    save_tokens(corpus, str(src))
    text = tmp_path / "u.txt"
    back = tmp_path / "back.tok"
    assert run_cli("to-unicode", "--in", src, "--out", text) == 0
    assert (
        run_cli("from-unicode", "--in", text, "--vocab", 20, "--out", back) == 0
    )
    assert load_tokens(str(back)) == corpus


def test_unicode_bpe_train_matches_token_train(tmp_path):
    corpus = synth_corpus(SynthSpec(30, 20, (10, 20), 2, (2, 3), 0.5, 1.0, seed=4))
    src = tmp_path / "src.tok"
    save_tokens(corpus, str(src))
    text = tmp_path / "u.txt"
    assert run_cli("to-unicode", "--in", src, "--out", text) == 0
    m_tok = tmp_path / "a.merges"
    m_uni = tmp_path / "b.merges"
    assert run_cli("bpe-train", "--vocab", 45, "--in", src, "--out", m_tok) == 0
    assert (
        run_cli("bpe-train", "--vocab", 45, "--in", text, "--unicode", "--out", m_uni)
        == 0
    )
    assert m_tok.read_bytes() == m_uni.read_bytes()


def test_unicode_bpe_encode_matches_token_encode(tmp_path, capsys):
    corpus = synth_corpus(SynthSpec(30, 20, (10, 20), 2, (2, 3), 0.5, 1.0, seed=5))
    src = tmp_path / "src.tok"
    save_tokens(corpus, str(src))
    text = tmp_path / "u.txt"
    merges = tmp_path / "m.merges"
    assert run_cli("to-unicode", "--in", src, "--out", text) == 0
    assert run_cli("bpe-train", "--vocab", 45, "--in", src, "--out", merges) == 0
    enc_tok, enc_uni = tmp_path / "a.tok", tmp_path / "b.tok"
    assert run_cli("bpe-encode", "--model", merges, "--in", src, "--out", enc_tok) == 0
    assert (
        run_cli("bpe-encode", "--model", merges, "--in", text, "--unicode", "--out", enc_uni)
        == 0
    )
    assert enc_tok.read_bytes() == enc_uni.read_bytes()

    beyond = tmp_path / "beyond.txt"
    beyond.write_text(text.read_text(encoding="utf-8") + chr(0x4E00 + 30) + "\n",
                      encoding="utf-8")
    assert run_cli("bpe-encode", "--model", merges, "--in", beyond, "--unicode") == 1
    assert "does not cover max id 30" in capsys.readouterr().err


def test_bpe_encode_names_a_bad_id_in_a_later_utterance(tmp_path, capsys):
    merges, src, out = tmp_path / "m.merges", tmp_path / "in.tok", tmp_path / "out.tok"
    BpeModel(3, [(0, 1)]).save(str(merges))
    # the header covers id 7, so the loader accepts the file and the encoder rejects it
    src.write_text("#vocab 8\n0 1 2\n2 2\n0 1 7 1\n1 0\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("bpe-encode", "--model", merges, "--in", src, "--out", out) == 1
    assert capsys.readouterr().err == "error: id 7 at position 2 is outside the base alphabet\n"
    assert not out.exists()


def test_kmeans_fit_and_discretize(tmp_path):
    rng = np.random.default_rng(5)
    feats = np.vstack([rng.normal(0, 0.1, (20, 3)), rng.normal(5, 0.1, (20, 3))])
    fpath = tmp_path / "f.bin"
    save_features(feats, str(fpath))
    km = tmp_path / "km.bin"
    toks = tmp_path / "t.tok"
    assert run_cli("kmeans-fit", "--in", fpath, "--k", 2, "--seed", 1, "--out", km) == 0
    assert run_cli("discretize", "--model", km, "--in", fpath, "--out", toks) == 0
    corpus = load_tokens(str(toks))
    assert len(corpus) == 1
    labels = corpus.utterances[0]
    assert len(labels) == 40
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]


@pytest.mark.parametrize("sub", ["kmeans-fit", "discretize"])
def test_features_outside_float32_exit_1_without_warning(tmp_path, capsys, sub):
    good, big, km = tmp_path / "good.csv", tmp_path / "big.csv", tmp_path / "km.bin"
    good.write_text("1,0\n0,1\n2,0\n0,2\n", encoding="utf-8")
    big.write_text("1e39,0\n0,1\n2e39,0\n0,2\n", encoding="utf-8")
    assert run_cli("kmeans-fit", "--in", good, "--k", 2, "--seed", 0, "--out", km) == 0
    out = tmp_path / "out"
    argv = {"kmeans-fit": ["--in", big, "--k", 2, "--seed", 0],
            "discretize": ["--model", km, "--in", big]}[sub]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(sub, *argv, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {big}: value outside the float32 range\n"
    assert not out.exists()


def test_kmeans_fit_sample_rows(tmp_path):
    rng = np.random.default_rng(6)
    fpath = tmp_path / "f.csv"
    np.savetxt(fpath, rng.random((50, 2)), delimiter=",")
    km = tmp_path / "km.bin"
    assert (
        run_cli(
            "kmeans-fit", "--in", fpath, "--k", 3, "--seed", 2,
            "--sample-rows", 20, "--out", km,
        )
        == 0
    )


def test_kmeans_fit_sample_rows_below_k_fails(tmp_path, capsys):
    fpath, km = tmp_path / "f.csv", tmp_path / "km.bin"
    np.savetxt(fpath, np.random.default_rng(6).random((50, 2)), delimiter=",")
    argv = ["kmeans-fit", "--in", fpath, "--k", 3, "--seed", 2, "--sample-rows", 2, "--out", km]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: --sample-rows must be >= k\n"
    assert not km.exists()


def test_slm_train_without_out_writes_the_model_to_stdout(tmp_path, capsysbinary):
    src, model = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(Corpus([[0, 1, 0, 1], [0, 1]], 2), str(src))
    assert run_cli("slm-train", "--in", src, "--order", 2, "--out", model) == 0
    assert capsysbinary.readouterr().out == b""
    assert run_cli("slm-train", "--in", src, "--order", 2) == 0
    assert capsysbinary.readouterr().out == model.read_bytes()


def test_score_outputs_logprobs(tmp_path, capsys):
    corpus = Corpus([[0, 1], [1, 1, 0]], 2)
    src = tmp_path / "c.tok"
    save_tokens(corpus, str(src))
    model_path = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", src, "--order", 2, "--out", model_path) == 0
    assert run_cli("score", "--model", model_path, "--in", src) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    model = NgramModel.load(str(model_path))
    assert [float(v) for v in lines] == [
        model.logprob([0, 1]),
        model.logprob([1, 1, 0]),
    ]


def test_slm_train_rejects_add_k_whose_estimates_underflow(tmp_path, capsys):
    src = tmp_path / "c.tok"
    save_tokens(Corpus([[0, 1], [1, 1, 0]], 2), str(src))
    model_path = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", src, "--add-k", "5e-324", "--out", model_path) == 1
    assert capsys.readouterr().err == "error: smoothed estimates underflow to 0\n"
    assert not model_path.exists()


def test_continue_deterministic_and_prefixed(tmp_path):
    corpus = synth_corpus(SynthSpec(15, 30, (5, 15), 2, (2, 3), 0.5, 1.0, seed=2))
    src = tmp_path / "c.tok"
    save_tokens(corpus, str(src))
    model_path = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", src, "--order", 3, "--out", model_path) == 0
    out1 = tmp_path / "g1.tok"
    out2 = tmp_path / "g2.tok"
    args = [
        "continue", "--model", model_path, "--prompt", "3 1", "--max-new", 20,
        "--seed", 11, "--num", 5,
    ]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    gen = load_tokens(str(out1))
    assert len(gen) == 5
    assert all(u[:2] == [3, 1] for u in gen.utterances)


@pytest.mark.parametrize("extra", [
    ["--temperature", "0"],
    ["--temperature", "1"],
    ["--temperature", "1e-300"],
    ["--top-k", "2"],
])
def test_continue_num_equals_one_run_per_seed(tmp_path, extra):
    corpus = synth_corpus(SynthSpec(15, 30, (5, 15), 2, (2, 3), 0.5, 1.0, seed=2))
    src, model_path = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(corpus, str(src))
    assert run_cli("slm-train", "--in", src, "--order", 3, "--out", model_path) == 0
    args = ["continue", "--model", model_path, "--prompt", "3 1", "--max-new", 20, *extra]
    assert run_cli(*args, "--seed", 3, "--num", 6, "--out", tmp_path / "all.tok") == 0
    header, lines = set(), []
    for seed in range(3, 9):
        one = tmp_path / f"seed{seed}.tok"
        assert run_cli(*args, "--seed", seed, "--num", 1, "--out", one) == 0
        head, line = one.read_bytes().split(b"\n", 1)
        header.add(head)
        lines.append(line)
    assert len(header) == 1
    assert (tmp_path / "all.tok").read_bytes() == header.pop() + b"\n" + b"".join(lines)


def test_rescore_manifest(tmp_path, capsys):
    corpus = Corpus([[0, 1, 0, 1], [0, 1]], 2)
    src = tmp_path / "c.tok"
    save_tokens(corpus, str(src))
    model_path = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", src, "--order", 2, "--out", model_path) == 0
    for name, seq in (("a", [0, 1, 0, 1]), ("b", [1, 0, 1, 0]), ("c", [1, 1, 1, 1])):
        save_tokens(Corpus([seq], 2), str(tmp_path / f"{name}.tok"))
    manifest = tmp_path / "cases.tsv"
    manifest.write_text(
        "case_id\tcandidate_id\ttoken_file_path\thuman_rank\n"
        "q1\ta\ta.tok\t1\n"
        "q1\tb\tb.tok\t2\n"
        "q1\tc\tc.tok\t3\n",
        encoding="utf-8",
    )
    assert run_cli("rescore", "--model", model_path, "--manifest", manifest) == 0
    out = capsys.readouterr().out
    assert "case=q1 best_index=0 candidate=a" in out
    assert "topx x=1 accuracy=1.0" in out


def test_metrics_compress_record(tmp_path, capsys):
    base = tmp_path / "b.tok"
    enc = tmp_path / "e.tok"
    save_tokens(Corpus([[0, 0], [0, 0, 0, 0]], 1), str(base))
    save_tokens(Corpus([[0], [0, 0]], 1), str(enc))
    assert run_cli("metrics-compress", "--base", base, "--encoded", enc) == 0
    out = capsys.readouterr().out
    assert "metrics-compress" in out.splitlines()[0]
    assert "ratio=2.0" in out


def test_metrics_vert_and_xent_and_syntax(tmp_path, capsys):
    corpus = synth_corpus(SynthSpec(15, 40, (10, 20), 3, (2, 4), 0.6, 1.0, seed=9))
    src = tmp_path / "c.tok"
    save_tokens(corpus, str(src))
    model_path = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", src, "--order", 3, "--out", model_path) == 0

    assert run_cli("metrics-vert", "--in", src, "--n", 3) == 0
    vert_out = capsys.readouterr().out
    assert vert_out.startswith("metrics-vert")

    report = tmp_path / "x.txt"
    assert (
        run_cli("metrics-xent", "--model", model_path, "--in", src, "--out", report)
        == 0
    )
    xent_out = capsys.readouterr().out
    assert report.read_text(encoding="utf-8") == xent_out
    assert "entropy=" in xent_out

    assert (
        run_cli("metrics-syntax", "--model", model_path, "--in", src, "--seed", 1) == 0
    )
    assert "accuracy=" in capsys.readouterr().out


@pytest.mark.parametrize("utts, code, err", [
    ([[0, 1, 0, 1], [0, 1], [1, 0, 1]], 0, "skipped 2 utterances too short to shuffle\n"),
    ([[0, 1], [1, 0, 1]], 1,
     "skipped 2 utterances too short to shuffle\nerror: no usable utterances for syntax pairs\n"),
], ids=["some short", "all short"])
def test_metrics_syntax_skips_utterances_too_short_to_shuffle(tmp_path, capsys, utts, code, err):
    src, model = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(Corpus(utts, 2), str(src))
    NgramModel.train(load_tokens(str(src)), order=2).save(str(model))
    argv = ["metrics-syntax", "--model", model, "--in", src, "--block", 3, "--seed", 1]
    assert run_cli(*argv) == code
    assert capsys.readouterr().err == err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "abpe", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "abpe" in proc.stdout


def test_console_script_is_the_module_entry_point():
    # found by plain text: Python 3.10 has no tomllib
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    target = re.search(r'^abpe = "([\w.]+):(\w+)"$', scripts, re.MULTILINE)
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is abpe.__main__.main


def _non_canonical_case(tmp_path, field, bad):
    """Write inputs with ``bad`` in one integer field; return the argv that reads it."""
    tok = tmp_path / "c.tok"
    tok.write_text("#vocab 4\n0 1 2 3\n", encoding="utf-8")
    model = tmp_path / "m.ngram"
    NgramModel.train(Corpus([[0, 1, 2, 3]], 4), order=2).save(str(model))
    if field in ("token", "vocab"):
        text = f"0 {bad}\n" if field == "token" else f"#vocab {bad}\n0\n"
        tok.write_text(text, encoding="utf-8")
        return ["to-unicode", "--in", tok]
    if field in ("base", "operand"):
        merges = tmp_path / "m.merges"
        body = f"#base {bad}\n" if field == "base" else f"#base 4\n0 {bad}\n"
        merges.write_text("#abpe 1\n" + body, encoding="utf-8")
        return ["bpe-decode", "--model", merges, "--in", tok]
    if field == "prompt":
        return ["continue", "--model", model, "--prompt", f"0 {bad}", "--max-new", 1,
                "--seed", 0]
    manifest = tmp_path / "cases.tsv"
    manifest.write_text(f"q\ta\tc.tok\t1\nq\tb\tc.tok\t{bad}\n", encoding="utf-8")
    return ["rescore", "--model", model, "--manifest", manifest]


@pytest.mark.parametrize("bad", ["1_0", "٣", "-0", "+1", "01", "x", "1\u3000"])
@pytest.mark.parametrize("field", ["token", "vocab", "base", "operand", "prompt", "rank"])
def test_integer_fields_accept_only_canonical_decimals(tmp_path, capsys, field, bad):
    argv = _non_canonical_case(tmp_path, field, bad)
    if field in ("token", "vocab"):
        with pytest.raises(FormatError, match="malformed integer"):
            load_tokens(str(argv[-1]))
    if field in ("base", "operand"):
        with pytest.raises(FormatError):
            BpeModel.load(str(argv[2]))
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(bad) in err


@pytest.mark.parametrize("bad", ["1_0", "٣", "-1", "-0", "+1", "01", "x"])
@pytest.mark.parametrize("option", ["--seed", "--len", "--motifs"])
def test_integer_options_accept_only_canonical_decimals(capsys, option, bad):
    values = {"--vocab": "10", "--utts": "2", "--seed": "1", "--len": "5 6", "--motifs": "0"}
    values[option] = f"5 {bad}" if option == "--len" else bad
    argv = ["synth"] + [a for flag, v in values.items() for a in (flag, *v.split())]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and repr(bad) in err


@pytest.mark.parametrize("bad", ["1_3", "\u0661.\u0663", "x"])
@pytest.mark.parametrize("sub, option", [
    ("synth", "--motif-rate"), ("synth", "--zipf"), ("kmeans-fit", "--tol"),
    ("slm-train", "--add-k"), ("continue", "--temperature"),
])
def test_float_options_read_numbers_as_the_formats_do(capsys, sub, option, bad):
    # the option is converted while parsing, before any input file is opened
    required = {"synth": ["--vocab", "5", "--utts", "2", "--seed", "1"],
                "kmeans-fit": ["--in", "f", "--k", "2", "--seed", "1"],
                "slm-train": ["--in", "c.tok"],
                "continue": ["--model", "m", "--prompt", "0", "--max-new", "3", "--seed", "1"]}
    with pytest.raises(SystemExit) as exc:
        run_cli(sub, *required[sub], option, bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and repr(bad) in err


@pytest.mark.parametrize("sub, extra", [
    ("continue", ["--temperature", "nan"]),
    ("synth", ["--zipf", "nan"]),
    ("kmeans-fit", ["--tol", "nan"]),
    ("slm-train", ["--add-k", "inf"]),
    ("slm-train", ["--weights", "nan,1"]),
    ("slm-train", ["--weights", "inf,1"]),
])
def test_non_finite_parameters_fail_cleanly(tmp_path, capsys, sub, extra):
    src, feats, model = tmp_path / "c.tok", tmp_path / "f.bin", tmp_path / "m.ngram"
    save_tokens(Corpus([[0, 1, 0], [1, 1]], 2), str(src))
    save_features(np.arange(8.0).reshape(4, 2), str(feats))
    NgramModel.train(load_tokens(str(src)), order=2).save(str(model))
    inputs = {
        "continue": ["--model", model, "--prompt", "0", "--max-new", 3, "--seed", 0],
        "synth": ["--vocab", 5, "--utts", 2, "--seed", 0],
        "kmeans-fit": ["--in", feats, "--k", 2, "--seed", 0],
        "slm-train": ["--in", src, "--order", 2],
    }
    out = tmp_path / "out"
    assert run_cli(sub, *inputs[sub], *extra, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("weights", ["1_0,1", "\u0661,1", "1,\u00a01"])
def test_weights_take_only_ascii_decimals_without_underscores(tmp_path, capsys, weights):
    src, out = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(Corpus([[0, 1, 0], [1, 1]], 2), str(src))
    assert run_cli("slm-train", "--in", src, "--order", 2, "--weights", weights, "--out", out) == 1
    bad = next(w for w in weights.split(",") if w != "1")
    assert capsys.readouterr().err == f"error: malformed number {bad!r}\n"
    assert not out.exists()


class _HalfThenFail:
    """A file whose ``write`` stores half of the bytes, then raises ``error``."""

    def __init__(self, fh, error=None):
        self._fh = fh
        self._error = error or OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise self._error


def _refuse_replace(src, dst):
    raise OSError(13, "Permission denied")


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_out_write_leaves_no_trace(tmp_path, capsys, monkeypatch, fail_at):
    out = tmp_path / "corpus.tok"
    out.write_bytes(b"#vocab 2\n0 1\n")
    if fail_at == "write":
        monkeypatch.setattr(corpus, "open", lambda *a: _HalfThenFail(open(*a)), raising=False)
    else:
        monkeypatch.setattr(cli.os, "replace", _refuse_replace)
    assert run_cli("synth", "--vocab", 5, "--utts", 2, "--seed", 0, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert out.read_bytes() == b"#vocab 2\n0 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.tok"]


# every library saver, each writing through corpus._save as --out does
_SAVERS = {
    "tokens": lambda path: save_tokens(Corpus([[0, 1]], 2), path),
    "features": lambda path: save_features(np.ones((2, 2)), path),
    "merges": BpeModel(2, [(0, 1)]).save,
    "ngram": NgramModel.train(Corpus([[0, 1]], 2), order=2).save,
    "kmeans": KMeansModel(np.ones((1, 2))).save,
}


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
@pytest.mark.parametrize("saver", list(_SAVERS))
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, saver, error):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    monkeypatch.setattr(corpus, "open", lambda *a: _HalfThenFail(open(*a), error), raising=False)
    with pytest.raises(type(error)):
        _SAVERS[saver](str(path))
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("saver", list(_SAVERS))
def test_save_replaces_a_file_and_keeps_its_mode(tmp_path, saver):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    path.chmod(0o604)
    _SAVERS[saver](str(path))
    assert path.read_bytes() != b"old"
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def _interrupt(args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("at", ["handler", "write"])
def test_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch, at):
    # Ctrl-C while a subcommand computes, or while it writes --out
    out = tmp_path / "corpus.tok"
    out.write_bytes(b"#vocab 2\n0 1\n")
    if at == "handler":
        monkeypatch.setattr(cli, "_cmd_synth", _interrupt)
    else:
        monkeypatch.setattr(corpus, "open",
                            lambda *a: _HalfThenFail(open(*a), KeyboardInterrupt()), raising=False)
    assert run_cli("synth", "--vocab", 5, "--utts", 2, "--seed", 0, "--out", out) == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert out.read_bytes() == b"#vocab 2\n0 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.tok"]


def test_out_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "real.tok", tmp_path / "link.tok"
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert run_cli("synth", "--vocab", 5, "--utts", 2, "--seed", 0, "--out", link) == 0
    assert link.is_symlink()
    assert target.read_bytes().startswith(b"#vocab 5\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tok", "real.tok"]


def test_out_to_a_pipe_writes_it_directly(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("synth", "--vocab", 5, "--utts", 2, "--seed", 0, "--out", fifo) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and received[0].startswith(b"#vocab 5\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
def test_out_keeps_an_existing_files_permission_bits(tmp_path, mode):
    out = tmp_path / "p.tok"
    out.write_bytes(b"old")
    out.chmod(mode)
    assert run_cli("synth", "--vocab", 5, "--utts", 2, "--seed", 1, "--out", out) == 0
    assert out.read_bytes().startswith(b"#vocab 5\n")
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("utts", [2, 2000])
def test_stdout_reader_gone_exits_1_with_one_line(utts, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader goes away before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "abpe", "synth", "--vocab", "50", "--utts", str(utts),
             "--seed", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("top_k", [[], ["--top-k", 2]])
def test_tiny_temperature_samples_like_a_small_finite_one(tmp_path, capsys, top_k):
    # events 1 and 2 tie after 0, so the draw between them uses the rng
    src, model = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(Corpus([[0, 1], [0, 2]], 3), str(src))
    assert run_cli("slm-train", "--in", src, "--order", 2, "--out", model) == 0
    outputs = []
    for temperature in ("1e-320", "1e-300"):
        argv = ["continue", "--model", model, "--prompt", "", "--max-new", 4,
                "--seed", 3, "--num", 8, "--temperature", temperature, *top_k]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert {line.split()[1] for line in outputs[0].splitlines()[1:]} == {"1", "2"}


def test_metrics_reports_print_every_field(tmp_path, capsys):
    base, enc, text = tmp_path / "b.tok", tmp_path / "e.tok", tmp_path / "t.tok"
    save_tokens(Corpus([[0, 1, 0, 1], [2, 2]], 3), str(base))
    save_tokens(Corpus([[3, 3], [2, 2]], 4), str(enc))
    save_tokens(Corpus([[0, 1, 0, 1], [0, 1, 2, 2]], 3), str(text))
    assert run_cli("metrics-compress", "--base", base, "--encoded", enc) == 0
    assert capsys.readouterr().out == (
        "metrics-compress avg_len_base=3.0 avg_len_encoded=2.0 ratio=1.5 vocab_size=4\n"
        "avg_len_base     3.0000\n"
        "avg_len_encoded  2.0000\n"
        "ratio            1.5000\n"
        "vocab_size       4\n"
    )
    # n=2: self-BLEU and auto-BLEU are both 1/3 by hand count
    assert run_cli("metrics-vert", "--in", text, "--n", 2) == 0
    assert capsys.readouterr().out == (
        "metrics-vert n=2 self_bleu=0.3333333333333333 auto_bleu=0.3333333333333333 "
        "vert=33.33333333333333\n"
        "n          2\n"
        "self_bleu  0.3333\n"
        "auto_bleu  0.3333\n"
        "vert       33.3333\n"
    )
    model = tmp_path / "m.ngram"
    assert run_cli("slm-train", "--in", text, "--order", 2, "--out", model) == 0
    assert run_cli("metrics-xent", "--model", model, "--in", text) == 0
    lm = NgramModel.load(str(model))
    entropy = -(lm.logprob([0, 1, 0, 1]) + lm.logprob([0, 1, 2, 2])) / 2
    assert capsys.readouterr().out == (
        f"metrics-xent n_samples=2 entropy={entropy!r}\n"
        "n_samples  2\n"
        f"entropy    {entropy:.4f}\n"
    )


def _rescore_inputs(tmp_path, manifest_rows):
    src, model = tmp_path / "c.tok", tmp_path / "m.ngram"
    save_tokens(Corpus([[0, 1, 0, 1], [0, 1]], 2), str(src))
    NgramModel.train(load_tokens(str(src)), order=2).save(str(model))
    for name, seq in (("a", [0, 1, 0, 1]), ("b", [1, 0, 1, 0]), ("c", [1, 1, 1, 1])):
        save_tokens(Corpus([seq], 2), str(tmp_path / f"{name}.tok"))
    manifest = tmp_path / "cases.tsv"
    manifest.write_text("".join("\t".join(row) + "\n" for row in manifest_rows),
                        encoding="utf-8")
    return ["rescore", "--model", model, "--manifest", manifest]


def test_rescore_skips_topx_when_a_rank_is_missing(tmp_path, capsys):
    argv = _rescore_inputs(tmp_path, [
        ("q1", "a", "a.tok", "1"), ("q1", "b", "b.tok", "2"),
        ("q2", "a", "a.tok", "1"), ("q2", "c", "c.tok"),
    ])
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "ranks missing; top-x table skipped\n"
    assert [line.split()[0] for line in captured.out.splitlines()] == ["case=q1", "case=q2"]


def test_rescore_topx_runs_to_the_smallest_case(tmp_path, capsys):
    argv = _rescore_inputs(tmp_path, [
        ("q1", "a", "a.tok", "2"), ("q1", "b", "b.tok", "1"),
        ("q2", "a", "a.tok", "1"), ("q2", "b", "b.tok", "3"), ("q2", "c", "c.tok", "2"),
    ])
    assert run_cli(*argv) == 0
    topx = [line for line in capsys.readouterr().out.splitlines() if line.startswith("topx")]
    assert topx == ["topx x=1 accuracy=0.5", "topx x=2 accuracy=1.0"]


@pytest.mark.parametrize("last_case, message", [
    ([("q3", "a", "a.tok", "1")], "need at least 2 candidates, got 1"),
    ([("q3", "a", "a.tok", "1"), ("q3", "b", "b.tok", "3")],
     "human_ranks must be a permutation of 1..2"),
    ([("q3", "a", "a.tok", "1"), ("q3", "d", "d.tok", "2")],
     "candidate 1: id 5 at position 1 out of vocabulary"),
], ids=["one candidate", "ranks", "id"])
def test_rescore_error_names_its_case(tmp_path, capsys, last_case, message):
    argv = _rescore_inputs(tmp_path, [
        ("q1", "a", "a.tok", "1"), ("q1", "b", "b.tok", "2"),
        ("q2", "b", "b.tok", "1"), ("q2", "c", "c.tok", "2"), *last_case,
    ])
    save_tokens(Corpus([[0, 5]], 6), str(tmp_path / "d.tok"))
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: case q3: {message}\n"


def test_rescore_candidate_file_of_two_utterances_fails(tmp_path, capsys):
    argv = _rescore_inputs(tmp_path, [("q1", "a", "a.tok", "1"), ("q1", "e", "e.tok", "2")])
    save_tokens(Corpus([[0, 1], [1]], 2), str(tmp_path / "e.tok"))
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'e.tok'}: candidate file must hold exactly one utterance\n")


@pytest.mark.parametrize("text, message", [
    ("0 99999999999999999999 1\n1 0\n",
     "1: id 99999999999999999999 outside [0, 9223372036854775806)"),
    ("#vocab 99999999999999999999\n0 1\n", "1: vocab size must be <= 9223372036854775806"),
    ("0\n9223372036854775806\n", "2: id 9223372036854775806 outside [0, 9223372036854775806)"),
])
def test_ids_past_the_int64_bound_fail_with_their_line(tmp_path, capsys, text, message):
    # rejected on load: the n-gram's int64 stream holds vocab_size + 1
    path, out = tmp_path / "big.tok", tmp_path / "lm.ngram"
    path.write_text(text, encoding="utf-8")
    assert run_cli("slm-train", "--in", path, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {path}:{message}\n"
    assert not out.exists()


# every integer option with the least value it takes; the options each subcommand requires
_INT_MINIMUMS = {
    "synth": {"--vocab": 2, "--utts": 1, "--len": 1, "--motifs": 0, "--motif-len": 1,
              "--seed": 0},
    "kmeans-fit": {"--k": 1, "--seed": 0, "--max-iters": 1, "--sample-rows": 1},
    "from-unicode": {"--vocab": 1},
    "bpe-train": {"--vocab": 1},
    "slm-train": {"--order": 1},
    "continue": {"--max-new": 0, "--seed": 0, "--top-k": 1, "--num": 1},
    "metrics-vert": {"--n": 1},
    "metrics-syntax": {"--block": 1, "--seed": 0},
}
_REQUIRED = {
    "synth": ["--vocab", "5", "--utts", "2", "--seed", "1"],
    "kmeans-fit": ["--in", "f", "--k", "2", "--seed", "1"],
    "from-unicode": ["--in", "u.txt"],
    "bpe-train": ["--in", "c.tok", "--vocab", "9"],
    "slm-train": ["--in", "c.tok"],
    "continue": ["--model", "m", "--prompt", "0", "--max-new", "3", "--seed", "1"],
    "metrics-vert": ["--in", "c.tok"],
    "metrics-syntax": ["--model", "m", "--in", "c.tok", "--seed", "1"],
}


def test_the_minimum_table_holds_every_integer_option():
    float_type = cli._FLOAT["type"]
    found = {}
    for name, _, options in cli._SUBCOMMANDS:
        for option in options:
            flag, kwargs = (option, cli._SHARED[option]) if isinstance(option, str) else option
            if kwargs.get("type") not in (None, float_type):
                found.setdefault(name, set()).add(flag)
    assert found == {name: set(flags) for name, flags in _INT_MINIMUMS.items()}


@pytest.mark.parametrize("sub, option, low", [
    (sub, option, low) for sub, options in _INT_MINIMUMS.items() for option, low in options.items()
])
def test_integer_options_below_their_minimum_are_usage_errors(capsys, sub, option, low):
    # rejected while parsing, naming the option, before the library sees the value
    bad = str(low - 1)
    values = [bad, bad] if option in ("--len", "--motif-len") else [bad]
    with pytest.raises(SystemExit) as exc:
        run_cli(sub, *_REQUIRED[sub], option, *values)
    assert exc.value.code == 2
    rule = f"must be >= {low}, got {bad}" if low else "malformed integer '-1'"
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {rule}\n")


def test_manifest_header_allowed_on_line_1_only(tmp_path, capsys):
    argv = _rescore_inputs(tmp_path, [  # a blank line, then the header
        (), ("case_id", "candidate_id", "token_file_path", "human_rank"), ("q", "a", "a.tok", "1"),
    ])
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {argv[-1]}:2: header allowed on line 1 only\n"


def test_handler_patched_after_a_call_is_the_one_run(tmp_path, capsys, monkeypatch):
    # the parser is built once; the handler is looked up by name on each call
    argv = _rescore_inputs(tmp_path, [("q", "a", "a.tok", "1"), ("q", "b", "b.tok", "2")])
    assert run_cli(*argv) == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_score", seen.append)
    assert run_cli("score", "--model", argv[2], "--in", tmp_path / "c.tok") == 0
    assert [args.command for args in seen] == ["score"]


def _no_memory(args):
    raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627777,)")


def test_out_of_memory_exits_1(monkeypatch, capsys):
    # a model whose header vocab is 2^40 makes next_dist ask for 8 TiB
    monkeypatch.setattr(cli, "_cmd_continue", _no_memory)
    assert run_cli("continue", "--model", "m.ngram", "--prompt", "1", "--max-new", 3,
                   "--seed", 1) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 8.00 TiB for an array with shape (1099511627777,)\n")


@pytest.mark.parametrize("sub, bad", [
    ("kmeans-fit", "features"), ("discretize", "features"), ("discretize", "model"),
])
def test_signalling_nan_fails_without_a_warning(tmp_path, capsys, sub, bad):
    feats, km = tmp_path / "f.bin", tmp_path / "km.bin"
    save_features(np.arange(8.0).reshape(4, 2), str(feats))
    assert run_cli("kmeans-fit", "--in", feats, "--k", 2, "--seed", 0, "--out", km) == 0
    path = feats if bad == "features" else km
    blob = bytearray(path.read_bytes())
    blob[28:32] = b"\x01\x00\x80\x7f"  # the first float32 after the 28-byte header
    path.write_bytes(bytes(blob))
    argv = {"kmeans-fit": ["--in", feats, "--k", 2, "--seed", 0],
            "discretize": ["--model", km, "--in", feats]}[sub]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(sub, *argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: non-finite value\n"
