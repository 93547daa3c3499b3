"""Command-line interface: one subcommand per pipeline operation.

Data goes to --out when given, otherwise to stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 data/format error, out of memory or a
stdout whose reader went away, 2 usage error. Every stochastic subcommand
requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bpe import BpeModel, MERGES_VERSION
from .codec import _read_unicode, _unicode_lines
from .corpus import (
    FEATURE_VERSION,
    Corpus,
    IdRangeError,
    SynthSpec,
    _check_size,
    _parse_float,
    _parse_id,
    _parse_ids,
    _read_records,
    _read_text,
    _save,
    dump_tokens,
    load_features,
    load_tokens,
    synth_corpus,
)
from .errors import FormatError
from .kmeans import KMEANS_VERSION, KMeansModel
from .metrics import (
    compression_stats,
    cross_entropy,
    shuffle_corrupt,
    syntax_accuracy,
    vert,
)
from .rescore import CandidateSet, rescore, topx_accuracy
from .slm import NGRAM_VERSION, NgramModel

_VERSION_TEXT = (
    f"abpe {__version__} (formats: tokens 1, features {FEATURE_VERSION}, "
    f"kmeans {KMEANS_VERSION}, merges {MERGES_VERSION}, ngram {NGRAM_VERSION})"
)


def _write(data: str | bytes, out: str | None) -> None:
    """Send an artifact to the ``out`` path through ``_save``, or to stdout when it is None;
    stdout is flushed, so a reader that went away fails the command here and not at exit."""
    if out is not None:
        _save(data, out)
        return
    try:
        if isinstance(data, bytes):
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(data)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the exit-time flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _fmt_value(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _emit_metric(name: str, fields: dict, out: str | None) -> None:
    """One key=value record line plus an aligned two-column table."""
    record = " ".join([name] + [f"{k}={_fmt_value(v)}" for k, v in fields.items()])
    width = max(len(k) for k in fields)
    rows = []
    for k, v in fields.items():
        shown = f"{v:.4f}" if isinstance(v, float) else str(v)
        rows.append(f"{k:<{width}}  {shown}")
    text = record + "\n" + "\n".join(rows) + "\n"
    _write(text, None)
    if out is not None:
        _write(text, out)


def _cmd_synth(args) -> None:
    spec = SynthSpec(
        vocab_size=args.vocab,
        n_utts=args.utts,
        len_range=(args.len[0], args.len[1]),
        motif_count=args.motifs,
        motif_len_range=(args.motif_len[0], args.motif_len[1]),
        motif_rate=args.motif_rate,
        zipf_exponent=args.zipf,
        seed=args.seed,
    )
    _write(dump_tokens(synth_corpus(spec)), args.out)


def _cmd_kmeans_fit(args) -> None:
    features = load_features(args.infile)
    if args.sample_rows is not None:
        if args.sample_rows < args.k:
            raise ValueError("--sample-rows must be >= k")
        n = features.shape[0]
        if args.sample_rows < n:
            rng = np.random.default_rng(args.seed)
            idx = np.sort(rng.choice(n, size=args.sample_rows, replace=False))
            features = features[idx]
    model = KMeansModel.fit(
        features, args.k, seed=args.seed, max_iters=args.max_iters, tol=args.tol
    )
    print(
        f"fit k={model.k} dim={model.dim} iters={model.n_iter} "
        f"inertia={model.inertia:.6g}",
        file=sys.stderr,
    )
    _write(model.to_bytes(), args.out)


def _cmd_discretize(args) -> None:
    model = KMeansModel.load(args.model)
    ids = model.assign(load_features(args.infile))
    _write(dump_tokens(Corpus([ids], model.k)), args.out)


def _cmd_to_unicode(args) -> None:
    _write(_unicode_lines(load_tokens(args.infile)), args.out)


def _cmd_from_unicode(args) -> None:
    _write(dump_tokens(_read_unicode(args.infile, args.vocab)), args.out)


def _cmd_bpe_train(args) -> None:
    corpus = _read_unicode(args.infile) if args.unicode else load_tokens(args.infile)
    model = BpeModel.train(corpus, args.vocab)
    print(
        f"trained {len(model.merges)} merges over base {model.base_size}",
        file=sys.stderr,
    )
    _write(model.dumps(), args.out)


def _cmd_bpe_encode(args) -> None:
    model = BpeModel.load(args.model)
    if args.unicode:
        corpus = _read_unicode(args.infile, model.base_size)
    else:
        corpus = load_tokens(args.infile)
    _write(dump_tokens(model.encode_corpus(corpus)), args.out)


def _cmd_bpe_decode(args) -> None:
    model = BpeModel.load(args.model)
    decoded = model.decode_corpus(load_tokens(args.infile))
    _write(_unicode_lines(decoded) if args.unicode else dump_tokens(decoded), args.out)


def _cmd_slm_train(args) -> None:
    corpus = load_tokens(args.infile)
    weights = None
    if args.weights is not None:
        weights = [_parse_float(w) for w in args.weights.split(",")]
    model = NgramModel.train(
        corpus, order=args.order, add_k=args.add_k, interpolation_weights=weights
    )
    _write(model.to_bytes(), args.out)


def _cmd_score(args) -> None:
    model = NgramModel.load(args.model)
    corpus = load_tokens(args.infile)
    lines = [repr(score) for score in model.logprobs(corpus)]
    _write("\n".join(lines) + "\n", args.out)


def _cmd_continue(args) -> None:
    model = NgramModel.load(args.model)
    prompt = _parse_ids(args.prompt)
    sequences = model.generate_many([prompt] * args.num, args.max_new,
                                    seeds=range(args.seed, args.seed + args.num),
                                    temperature=args.temperature, top_k=args.top_k)
    _write(dump_tokens(Corpus(sequences, model.vocab_size)), args.out)


def _read_manifest(path: str):
    """Parse the candidate manifest TSV into ordered per-case groups."""
    base = os.path.dirname(os.path.abspath(path))

    def parse(line: str):
        cells = line.split("\t")
        if len(cells) not in (3, 4):
            raise FormatError("expected 3 or 4 tab-separated columns")
        rank: int | None = None
        if len(cells) == 4 and cells[3] != "":
            try:
                rank = _parse_id(cells[3])
            except FormatError as exc:
                raise FormatError(f"rank: {exc}") from None
        return cells[0], (cells[1], os.path.join(base, cells[2]), rank)

    cases: dict[str, list[tuple[str, str, int | None]]] = {}
    records = _read_records(_read_text(path).split("\n"), path, parse,
                            header=lambda line: line.split("\t")[0] == "case_id")
    for case_id, candidate in records:
        cases.setdefault(case_id, []).append(candidate)
    if not cases:
        raise FormatError(f"{path}: empty manifest")
    return list(cases.items())


def _load_candidate(token_path: str) -> list[int]:
    corpus = load_tokens(token_path)
    if len(corpus) != 1:
        raise FormatError(
            f"{token_path}: candidate file must hold exactly one utterance"
        )
    return corpus.utterances[0]


def _cmd_rescore(args) -> None:
    model = NgramModel.load(args.model)
    bpe = BpeModel.load(args.bpe) if args.bpe else None
    out_lines = []
    results = []
    rank_sets = []
    for case_id, rows in _read_manifest(args.manifest):
        cand_ids, paths, ranks = zip(*rows)
        ranks = None if None in ranks else list(ranks)
        candidates = [_load_candidate(p) for p in paths]  # a FormatError names its path
        try:
            result = rescore(model, CandidateSet(candidates, ranks),
                             length_norm=args.length_norm, bpe=bpe)
        except ValueError as exc:
            raise ValueError(f"case {case_id}: {exc}") from None
        results.append(result)
        rank_sets.append(ranks)
        out_lines.append(
            f"case={case_id} best_index={result.best_index} "
            f"candidate={cand_ids[result.best_index]} "
            f"score={result.scores[result.best_index]!r}"
        )
    if None in rank_sets:
        print("ranks missing; top-x table skipped", file=sys.stderr)
    else:
        for x in range(1, min(map(len, rank_sets)) + 1):
            acc = topx_accuracy(results, rank_sets, x)
            out_lines.append(f"topx x={x} accuracy={acc!r}")
    _write("\n".join(out_lines) + "\n", args.out)


def _cmd_metrics_compress(args) -> None:
    base = load_tokens(args.base)
    encoded = load_tokens(args.encoded)
    report = compression_stats(base, encoded, encoded.vocab_size)
    _emit_metric("metrics-compress", asdict(report), args.out)


def _cmd_metrics_vert(args) -> None:
    corpus = load_tokens(args.infile)
    report = vert(corpus.utterances, args.n)
    _emit_metric("metrics-vert", asdict(report), args.out)


def _cmd_metrics_syntax(args) -> None:
    model = NgramModel.load(args.model)
    utterances = load_tokens(args.infile).utterances
    kept = [i for i, utt in enumerate(utterances) if len(utt) > max(1, args.block)]
    pairs = [(utterances[i], shuffle_corrupt(utterances[i], args.block, seed=args.seed + i))
             for i in kept]
    skipped = len(utterances) - len(pairs)
    if skipped:
        print(f"skipped {skipped} utterances too short to shuffle", file=sys.stderr)
    if not pairs:
        raise ValueError("no usable utterances for syntax pairs")
    try:
        acc = syntax_accuracy(model, pairs)
    except IdRangeError as exc:  # it scores each pair's two members in turn
        exc.index = kept[exc.index // 2]
        raise
    _emit_metric(
        "metrics-syntax",
        {"pairs": len(pairs), "skipped": skipped, "accuracy": acc},
        args.out,
    )


def _cmd_metrics_xent(args) -> None:
    model = NgramModel.load(args.model)
    corpus = load_tokens(args.infile)
    report = cross_entropy(corpus, model)
    _emit_metric("metrics-xent", asdict(report), args.out)


def _option(parse):
    """The type of an option that ``parse`` reads, as it reads the same field in the formats."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _int(low: int = 0, **kwargs) -> dict:
    """An integer option of at least ``low``, by ``corpus._check_size``'s rule."""
    return {"type": _option(lambda text: _check_size(_parse_id(text), "", low)), **kwargs}


_FLOAT = {"type": _option(_parse_float)}
_LO_HI = {"nargs": 2, "metavar": ("LO", "HI")}

# options several subcommands share; a bare flag in _SUBCOMMANDS names one
_SHARED = {
    "--in": {"dest": "infile", "required": True},
    "--model": {"required": True},
    "--seed": _int(required=True),
    "--unicode": {"action": "store_true", "help": "input is unicode text"},
    "--out": {},
}

# name, help, options in --help order; each also takes --out and runs _cmd_<name>
_SUBCOMMANDS = (
    ("synth", "generate a synthetic token corpus", (
        ("--vocab", _int(2, required=True)),
        ("--utts", _int(1, required=True)),
        ("--len", _int(1, **_LO_HI, default=(30, 60))),
        ("--motifs", _int(default=0)),
        ("--motif-len", _int(1, **_LO_HI, default=(3, 6))),
        ("--motif-rate", {**_FLOAT, "default": 0.0}),
        ("--zipf", {**_FLOAT, "default": 1.3}),
        "--seed",
    )),
    ("kmeans-fit", "fit k-means centroids to features", (
        "--in",
        ("--k", _int(1, required=True)),
        "--seed",
        ("--max-iters", _int(1, default=100)),
        ("--tol", {**_FLOAT, "default": 1e-6}),
        ("--sample-rows", _int(1, default=None,
                              help="fit on a seeded without-replacement row subset of this size")),
    )),
    ("discretize", "map feature rows to centroid ids", ("--model", "--in")),
    ("to-unicode", "token corpus to one-line-per-utterance text", ("--in",)),
    ("from-unicode", "inverse of to-unicode",
     ("--in", ("--vocab", _int(1, default=None)))),
    ("bpe-train", "learn a merge list from a corpus",
     ("--in", ("--vocab", _int(1, required=True)), "--unicode")),
    ("bpe-encode", "apply merges to a base-token corpus", ("--model", "--in", "--unicode")),
    ("bpe-decode", "expand encoded units to base tokens", (
        "--model", "--in", ("--unicode", {"action": "store_true", "help": "emit unicode text"}),
    )),
    ("slm-train", "train the n-gram sequence model", (
        "--in",
        ("--order", _int(1, default=4)),
        ("--add-k", {**_FLOAT, "default": 0.1}),
        ("--weights", {"default": None, "help": "comma-separated, one per order"}),
    )),
    ("score", "log-probability of each utterance", ("--model", "--in")),
    ("continue", "sample prompted continuations", (
        "--model",
        ("--prompt", {"required": True, "help": "space-separated ids; may be empty"}),
        ("--max-new", _int(required=True)),
        "--seed",
        ("--temperature", {**_FLOAT, "default": 1.0}),
        ("--top-k", _int(1, default=None)),
        ("--num", _int(1, default=1, help="continuations (seeds seed..seed+num-1)")),
    )),
    ("rescore", "pick the best candidate per manifest case", (
        "--model",
        ("--manifest", {"required": True}),
        ("--bpe", {"default": None, "help": "encode raw base-token candidates first"}),
        ("--length-norm", {"action": "store_true"}),
    )),
    ("metrics-compress", "sequence-length compression report", (
        ("--base", {"required": True}), ("--encoded", {"required": True}),
    )),
    ("metrics-vert", "n-gram diversity report", ("--in", ("--n", _int(1, default=3)))),
    ("metrics-syntax", "shuffled-pair discrimination accuracy",
     ("--model", "--in", ("--block", _int(1, default=1)), "--seed")),
    ("metrics-xent", "cross-entropy of samples under a model", ("--model", "--in")),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abpe",
        description="Token-stream BPE, n-gram sequence modeling, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in (*options, "--out"):
            flag, kwargs = (option, _SHARED[option]) if isinstance(option, str) else option
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up by name on each call, so a handler replaced on the module is the one run
        globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (FormatError, ValueError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, IdRangeError) and "infile" in args:  # an id of --in, by utterance
            message = f"{args.infile}: utterance {exc.index}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it
    return 0
