"""The benchmark's three workloads: inputs made from a seed, and one pass each.

A workload is a set of generated inputs plus a fixed list of stages. One
pass runs every stage once, back to back, as a single caller would. A stage
is one operation: it completes or counts as failed, and a failed stage ends
the pass because later stages consume its output.

Every workload runs a discretise → (BPE) → unit LM → evaluate chain, but
each puts its weight on different layers:

* ``units-v500`` (library calls): the paper's unit vocabulary, base V=500
  with +1500 merges. BPE training, the 1500-rank encoder and ``next_dist``
  over 2001 events carry almost all of the time. No k-means, no CLI.
* ``cli-v50`` (in-process ``abpe.cli.main`` with files, in the order of
  ``scripts/smoke.sh``): base V=50 with +150 merges learned on a small
  sample. Token parsing and serialising, ``Corpus`` validation and five
  n-gram model reloads dominate; ``next_dist`` sees 201 events and the
  early merges touch every utterance. k-means runs at smoke size (k=8).
* ``discretize-k500`` (library calls): k-means at the paper's k=500 and
  dim=768, fitted with a fixed iteration count, then a unit LM over the raw
  k-means units (the paper's no-BPE baseline). k-means does nearly all of
  the work. No BPE, no rescoring, no CLI.

Inputs come from the benchmark's own generators, seeded by ``--seed``; the
program under test receives only the generated files and arrays.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct

import numpy as np

import abpe
from abpe import cli
from gate import expand, read_centroids, read_merges, read_report, read_tokens, unit_table

# ----------------------------------------------------------------- inputs --


def zipf_motif_corpus(rng, vocab, n_utts, motifs, motif_len, zipf, len_range=(30, 60)):
    """Utterances of Zipf-distributed tokens interleaved with shared motifs.

    The motif inventory is drawn once, so training and held-out utterances
    drawn after it share the same repeated units. Each build step appends a
    whole motif with probability 0.6, else one token.
    """
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** -zipf
    cum = np.cumsum(weights / weights.sum())
    inventory = [
        rng.integers(0, vocab, size=int(rng.integers(motif_len[0], motif_len[1] + 1))).tolist()
        for _ in range(motifs)
    ]
    utts = []
    for _ in range(n_utts):
        target = int(rng.integers(len_range[0], len_range[1] + 1))
        utt: list[int] = []
        while len(utt) < target:
            if rng.random() < 0.6:
                utt.extend(inventory[int(rng.integers(0, motifs))])
            else:
                utt.append(min(int(np.searchsorted(cum, rng.random(), side="right")), vocab - 1))
        utts.append(utt)
    return utts


def rescore_cases(rng, utts):
    """N-best cases: the original utterance ranked first, then ever finer shuffles."""
    def shuffled(seq, block):
        blocks = [seq[i : i + block] for i in range(0, len(seq), block)]
        return [t for b in rng.permutation(len(blocks)) for t in blocks[b]]

    return [([u] + [shuffled(u, b) for b in (4, 2, 1)], [1, 2, 3, 4]) for u in utts]


def write_tokens(path, utts, vocab):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#vocab {vocab}\n")
        fh.writelines(" ".join(map(str, u)) + "\n" for u in utts)


def write_features(path, rows):
    """Feature binary: magic, u32 version 1, u64 rows, u64 dim, float32 LE payload."""
    n, d = rows.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sIQQ", b"ABPEFEAT", 1, n, d))
        fh.write(np.ascontiguousarray(rows, dtype="<f4").tobytes())


def canonical(utts) -> bytes:
    """One byte encoding of a list of token sequences, independent of the program's writers."""
    return "\n".join(" ".join(map(str, u)) for u in utts).encode()


def new_base_tokens(base, merges, continuations, prompts):
    table = unit_table(base, merges)
    return sum(len(expand(table, c)) - len(expand(table, p)) for c, p in zip(continuations, prompts))


# --------------------------------------------------------------- workloads --
#
# Each workload class gives: ``stages()``, a list of one-argument functions
# that read and fill a per-pass state dict; ``outputs(state)``, the pass's
# artifact bytes, float reports and work counts, computed after the pass;
# ``check(gate, state, oracles)``, the correctness gate; and ``corrupt(state)``,
# which damages one artifact so that the harness self-test can show the gate
# trips. ``train_stages``, ``encode_stage`` and ``gen_stage`` name the stages
# behind the end-to-end metrics.


class UnitsV500:
    name = "units-v500"
    train_stages = ("bpe_train", "slm_train")
    encode_stage = "encode_held"
    gen_stage = "generate"
    FULL = dict(base=500, merges=1500, n_train=160, n_held=400, n_cases=30, motifs=200,
                motif_len=(6, 14), n_gen=20, max_new=40, check_merges=20)
    TOY = dict(base=60, merges=40, n_train=30, n_held=12, n_cases=4, motifs=20,
               motif_len=(6, 14), n_gen=3, max_new=8, check_merges=5)

    def __init__(self, seed, workdir, toy):
        p = self.p = self.TOY if toy else self.FULL
        rng = np.random.default_rng([seed, 500])
        utts = zipf_motif_corpus(rng, p["base"], p["n_train"] + p["n_held"],
                                 motifs=p["motifs"], motif_len=p["motif_len"], zipf=1.2)
        self.train = abpe.Corpus(utts[: p["n_train"]], p["base"])
        self.held = abpe.Corpus(utts[p["n_train"] :], p["base"])
        self.cases = rescore_cases(rng, self.held.utterances[: p["n_cases"]])
        self.tok_path = os.path.join(workdir, "train.units.tok")
        self.lm_path = os.path.join(workdir, "slm.ngram")

    def stages(self):
        p, held = self.p, self.held

        def bpe_train(s):
            s["bpe"] = abpe.BpeModel.train(self.train, p["base"] + p["merges"])

        def encode_train(s):
            s["train_enc"] = s["bpe"].encode_corpus(self.train)

        def encode_held(s):
            s["held_enc"] = s["bpe"].encode_corpus(held)

        def decode_held(s):
            s["held_dec"] = s["bpe"].decode_corpus(s["held_enc"])

        def codec_roundtrip(s):
            s["held_text"] = [abpe.tokens_to_unicode(u) for u in held.utterances]
            s["held_from_text"] = [abpe.unicode_to_tokens(t) for t in s["held_text"]]

        def tokens_save_load(s):
            abpe.save_tokens(s["train_enc"], self.tok_path)
            s["train_loaded"] = abpe.load_tokens(self.tok_path)

        def slm_train(s):
            s["lm"] = abpe.NgramModel.train(s["train_loaded"], order=4, add_k=0.1)

        def slm_save_load(s):
            s["lm"].save(self.lm_path)
            s["lm"] = abpe.NgramModel.load(self.lm_path)

        def score(s):
            s["scores"] = [s["lm"].logprob(u) for u in s["held_enc"].utterances]

        def generate(s):
            enc = s["held_enc"].utterances
            s["prompts"] = [enc[i % len(enc)][:3] for i in range(p["n_gen"])]
            s["continuations"] = [s["lm"].generate(pr, p["max_new"], seed=i)
                                  for i, pr in enumerate(s["prompts"])]

        def rescore(s):
            results = [abpe.rescore(s["lm"], abpe.CandidateSet(c, r), bpe=s["bpe"])
                       for c, r in self.cases]
            s["top1"] = abpe.topx_accuracy(results, [r for _, r in self.cases], 1)

        def metrics_compress(s):
            s["compress"] = abpe.compression_stats(held, s["held_enc"], s["bpe"].vocab_size)

        def metrics_syntax(s):
            pairs = [(u, abpe.shuffle_corrupt(u, 1, seed=i))
                     for i, u in enumerate(s["held_enc"].utterances) if len(u) > 1]
            s["syntax"] = abpe.syntax_accuracy(s["lm"], pairs)

        def metrics_xent(s):
            s["xent"] = abpe.cross_entropy(s["continuations"], s["lm"])

        def metrics_vert(s):
            s["vert"] = abpe.vert(s["continuations"], 3)

        return [bpe_train, encode_train, encode_held, decode_held, codec_roundtrip,
                tokens_save_load, slm_train, slm_save_load, score, generate, rescore,
                metrics_compress, metrics_syntax, metrics_xent, metrics_vert]

    def outputs(self, s):
        with open(self.lm_path, "rb") as fh:
            lm_bytes = fh.read()
        artifacts = {
            "merges": s["bpe"].dumps().encode(),
            "train_encoded": canonical(s["train_enc"].utterances),
            "held_encoded": canonical(s["held_enc"].utterances),
            "held_decoded": canonical(s["held_dec"].utterances),
            "ngram_model": lm_bytes,
            "scores": repr(s["scores"]).encode(),
            "continuations": canonical(s["continuations"]),
        }
        reports = {
            "compression_ratio": s["compress"].ratio,
            "syntax_accuracy": s["syntax"],
            "xent": s["xent"].entropy,
            "vert": s["vert"].vert,
            "rescore_top1": s["top1"],
        }
        counts = {
            "encode_items": self.held.total_tokens(),
            "gen_base_tokens": new_base_tokens(self.p["base"], s["bpe"].merges,
                                               s["continuations"], s["prompts"]),
        }
        return artifacts, reports, counts

    def check(self, gate, s, oracles):
        base, merges = self.p["base"], list(s["bpe"].merges)
        held = self.held.utterances
        gate.merges_prefix(oracles, self.train, merges, self.p["check_merges"])
        gate.encoding(oracles, base, merges, held, s["held_enc"].utterances)
        gate.encoding(oracles, base, merges, self.train.utterances[:10],
                      s["train_enc"].utterances[:10])
        gate.equal("decode(encode(held)) == held", s["held_dec"].utterances, held)
        gate.codec(held, s["held_text"], s["held_from_text"])
        gate.equal("load_tokens(save_tokens(x)) == x",
                   s["train_loaded"].utterances, s["train_enc"].utterances)
        gate.next_dist(s["lm"], s["prompts"] + [[]])
        gate.continuations(s["continuations"], s["prompts"], base + len(merges), self.p["max_new"])
        gate.close("compression ratio", s["compress"].ratio,
                   self.held.total_tokens() / sum(map(len, s["held_enc"].utterances)))

    @staticmethod
    def corrupt(s):
        merges = s["bpe"].merges
        merges[0], merges[1] = merges[1], merges[0]


class CliV50:
    name = "cli-v50"
    train_stages = ("bpe-train", "slm-train")
    encode_stage = "bpe-encode-held"
    gen_stage = "continue"
    FULL = dict(base=50, vocab=200, n_sample=200, n_corpus=2000, n_held=300, n_cases=20,
                n_gen=20, max_new=40, check_merges=40, k=8)
    TOY = dict(base=20, vocab=40, n_sample=20, n_corpus=40, n_held=10, n_cases=3,
               n_gen=3, max_new=8, check_merges=5, k=4)
    OUTPUT_FILES = ("km.bin", "frames.tok", "base.txt", "base.rt.tok", "units.merges",
                    "base.units.tok", "held.units.tok", "held.dec.tok", "slm.ngram",
                    "held.scores", "cont.tok", "rescore.txt", "compress.txt", "vert.txt",
                    "syntax.txt", "xent.txt")

    def __init__(self, seed, workdir, toy):
        p = self.p = self.TOY if toy else self.FULL
        self.workdir = workdir
        rng = np.random.default_rng([seed, 50])
        utts = zipf_motif_corpus(rng, p["base"], p["n_sample"] + p["n_corpus"] + p["n_held"],
                                 motifs=5, motif_len=(3, 6), zipf=1.3)
        self.sample = utts[: p["n_sample"]]
        self.corpus = utts[p["n_sample"] : p["n_sample"] + p["n_corpus"]]
        self.held = utts[p["n_sample"] + p["n_corpus"] :]
        write_tokens(self.path("sample.tok"), self.sample, p["base"])
        write_tokens(self.path("base.tok"), self.corpus, p["base"])
        write_tokens(self.path("held.tok"), self.held, p["base"])
        blobs = [rng.normal(loc, 0.3, size=(40, 4)) for loc in (0.0, 3.0, 6.0, 9.0)]
        self.features = np.vstack(blobs).astype(np.float32)
        write_features(self.path("feats.bin"), self.features)
        lines = ["case_id\tcandidate_id\ttoken_file_path\thuman_rank"]
        for ci, (cands, ranks) in enumerate(rescore_cases(rng, self.held[: p["n_cases"]])):
            for j, (cand, rank) in enumerate(zip(cands, ranks)):
                write_tokens(self.path(f"cand-{ci}-{j}.tok"), [cand], p["base"])
                lines.append(f"c{ci}\t{j}\tcand-{ci}-{j}.tok\t{rank}")
        with open(self.path("cands.tsv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def path(self, name):
        return os.path.join(self.workdir, name)

    def stages(self):
        p, f = self.p, self.path
        sink = io.StringIO()

        def command(stage, argv):
            """A stage running one subcommand; ``argv`` may be a function of the state."""
            def run(s):
                sink.seek(0)
                sink.truncate()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv(s) if callable(argv) else argv)
                if code != 0:
                    raise RuntimeError(f"{stage} exited {code}: {sink.getvalue().strip()}")
            run.__name__ = stage
            return run

        def prompt_then_continue(s):
            # first three units of the first encoded held-out utterance, as smoke.sh does
            s["prompt"] = read_tokens(f("held.units.tok"))[1][0][:3]
            return ["continue", "--model", f("slm.ngram"),
                    "--prompt", " ".join(map(str, s["prompt"])), "--max-new", str(p["max_new"]),
                    "--seed", "21", "--num", str(p["n_gen"]), "--out", f("cont.tok")]

        return [
            command("kmeans-fit", ["kmeans-fit", "--in", f("feats.bin"), "--k", str(p["k"]),
                                   "--seed", "5", "--out", f("km.bin")]),
            command("discretize", ["discretize", "--model", f("km.bin"), "--in", f("feats.bin"),
                                   "--out", f("frames.tok")]),
            command("to-unicode", ["to-unicode", "--in", f("base.tok"), "--out", f("base.txt")]),
            command("from-unicode", ["from-unicode", "--in", f("base.txt"),
                                     "--vocab", str(p["base"]), "--out", f("base.rt.tok")]),
            command("bpe-train", ["bpe-train", "--in", f("sample.tok"), "--vocab", str(p["vocab"]),
                                  "--out", f("units.merges")]),
            command("bpe-encode", ["bpe-encode", "--model", f("units.merges"),
                                   "--in", f("base.rt.tok"), "--out", f("base.units.tok")]),
            command("bpe-encode-held", ["bpe-encode", "--model", f("units.merges"),
                                        "--in", f("held.tok"), "--out", f("held.units.tok")]),
            command("bpe-decode", ["bpe-decode", "--model", f("units.merges"),
                                   "--in", f("held.units.tok"), "--out", f("held.dec.tok")]),
            command("slm-train", ["slm-train", "--in", f("base.units.tok"), "--order", "4",
                                  "--add-k", "0.1", "--out", f("slm.ngram")]),
            command("score", ["score", "--model", f("slm.ngram"), "--in", f("held.units.tok"),
                              "--out", f("held.scores")]),
            command("continue", prompt_then_continue),
            command("rescore", ["rescore", "--model", f("slm.ngram"), "--manifest", f("cands.tsv"),
                                "--bpe", f("units.merges"), "--out", f("rescore.txt")]),
            command("metrics-compress", ["metrics-compress", "--base", f("held.tok"),
                                         "--encoded", f("held.units.tok"),
                                         "--out", f("compress.txt")]),
            command("metrics-vert", ["metrics-vert", "--in", f("cont.tok"), "--n", "3",
                                     "--out", f("vert.txt")]),
            command("metrics-syntax", ["metrics-syntax", "--model", f("slm.ngram"),
                                       "--in", f("held.units.tok"), "--block", "1",
                                       "--seed", "33", "--out", f("syntax.txt")]),
            command("metrics-xent", ["metrics-xent", "--model", f("slm.ngram"),
                                     "--in", f("cont.tok"), "--out", f("xent.txt")]),
        ]

    def outputs(self, s):
        artifacts = {}
        for name in self.OUTPUT_FILES:
            with open(self.path(name), "rb") as fh:
                artifacts[name] = fh.read()
        reports = {
            "compression_ratio": read_report(self.path("compress.txt"))["ratio"],
            "syntax_accuracy": read_report(self.path("syntax.txt"))["accuracy"],
            "xent": read_report(self.path("xent.txt"))["entropy"],
            "vert": read_report(self.path("vert.txt"))["vert"],
        }
        base, merges = read_merges(self.path("units.merges"))
        conts = read_tokens(self.path("cont.tok"))[1]
        counts = {
            "encode_items": sum(map(len, self.held)),
            "gen_base_tokens": new_base_tokens(base, merges, conts, [s["prompt"]] * len(conts)),
        }
        return artifacts, reports, counts

    def check(self, gate, s, oracles):
        p, f = self.p, self.path
        base, merges = read_merges(f("units.merges"))
        gate.equal("merges base size", base, p["base"])
        gate.merges_prefix(oracles, abpe.Corpus(self.sample, p["base"]), merges, p["check_merges"])
        gate.encoding(oracles, base, merges, self.held, read_tokens(f("held.units.tok"))[1])
        gate.encoding(oracles, base, merges, self.corpus[:10],
                      read_tokens(f("base.units.tok"))[1][:10])
        gate.equal("bpe-decode(bpe-encode(held)) == held", read_tokens(f("held.dec.tok"))[1],
                   self.held)
        with open(f("base.txt"), encoding="utf-8") as fh:
            text = fh.read().split("\n")[: len(self.corpus)]
        gate.codec(self.corpus, text, read_tokens(f("base.rt.tok"))[1])
        frames = read_tokens(f("frames.tok"))[1][0]  # discretize writes one utterance
        gate.nearest(oracles, self.features, read_centroids(f("km.bin")), frames,
                     range(len(self.features)))
        lm = abpe.NgramModel.load(f("slm.ngram"))
        gate.next_dist(lm, [s["prompt"], []])
        conts = read_tokens(f("cont.tok"))[1]
        gate.continuations(conts, [s["prompt"]] * len(conts), base + len(merges), p["max_new"])
        gate.equal("continuation count", len(conts), p["n_gen"])
        gate.scores(f("held.scores"), len(self.held))

    def corrupt(self, s):
        with open(self.path("units.merges"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[2], lines[3] = lines[3], lines[2]
        with open(self.path("units.merges"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))


class DiscretizeK500:
    name = "discretize-k500"
    train_stages = ("kmeans_fit", "slm_train")
    encode_stage = "assign"
    gen_stage = "generate"
    FULL = dict(k=500, dim=768, n_fit=800, n_held=1600, iters=2, utt_len=32,
                n_gen=12, max_new=40, check_rows=8)
    TOY = dict(k=12, dim=16, n_fit=60, n_held=96, iters=2, utt_len=12,
               n_gen=3, max_new=8, check_rows=4)

    def __init__(self, seed, workdir, toy):
        p = self.p = self.TOY if toy else self.FULL
        rng = np.random.default_rng([seed, 768])
        # a mixture with more components than fitted clusters: frames that do
        # not cluster cleanly, as HuBERT-style features do not
        n = p["n_fit"] + p["n_held"]
        means = rng.standard_normal((4 * p["k"], p["dim"]), dtype=np.float32)
        rows = means[rng.integers(0, len(means), size=n)]
        rows += rng.standard_normal((n, p["dim"]), dtype=np.float32)
        self.fit_rows, self.held_rows = rows[: p["n_fit"]], rows[p["n_fit"] :]
        self.fit_path = os.path.join(workdir, "fit.bin")
        self.held_path = os.path.join(workdir, "held.bin")
        self.labels_path = os.path.join(workdir, "labels.tok")
        write_features(self.fit_path, self.fit_rows)
        write_features(self.held_path, self.held_rows)

    def stages(self):
        p = self.p

        def load_features(s):
            s["fit"] = abpe.load_features(self.fit_path)
            s["held"] = abpe.load_features(self.held_path)

        def kmeans_fit(s):
            s["km"] = abpe.KMeansModel.fit(s["fit"], p["k"], seed=0, max_iters=p["iters"], tol=0.0)

        def assign(s):
            s["labels"] = s["km"].assign(s["held"])

        def save_tokens(s):
            labels, n = s["labels"], p["utt_len"]
            s["units"] = abpe.Corpus([labels[i : i + n] for i in range(0, len(labels), n)], p["k"])
            abpe.save_tokens(s["units"], self.labels_path)

        def codec_roundtrip(s):
            s["text"] = [abpe.tokens_to_unicode(u) for u in s["units"].utterances]
            s["from_text"] = [abpe.unicode_to_tokens(t) for t in s["text"]]

        def slm_train(s):
            s["lm"] = abpe.NgramModel.train(s["units"], order=4, add_k=0.1)

        def generate(s):
            utts = s["units"].utterances
            s["prompts"] = [utts[i % len(utts)][:3] for i in range(p["n_gen"])]
            s["continuations"] = [s["lm"].generate(pr, p["max_new"], seed=i)
                                  for i, pr in enumerate(s["prompts"])]

        def metrics_xent(s):
            s["xent"] = abpe.cross_entropy(s["continuations"], s["lm"])

        def metrics_vert(s):
            s["vert"] = abpe.vert(s["continuations"], 3)

        return [load_features, kmeans_fit, assign, save_tokens, codec_roundtrip, slm_train,
                generate, metrics_xent, metrics_vert]

    def outputs(self, s):
        with open(self.labels_path, "rb") as fh:
            labels_file = fh.read()
        artifacts = {
            "centroids": s["km"].to_bytes(),
            "labels": canonical([s["labels"]]),
            "labels_file": labels_file,
            "ngram_model": s["lm"].to_bytes(),
            "continuations": canonical(s["continuations"]),
        }
        reports = {"inertia": s["km"].inertia, "xent": s["xent"].entropy, "vert": s["vert"].vert}
        counts = {
            "encode_items": len(self.held_rows),
            "gen_base_tokens": sum(len(c) - len(pr)
                                   for c, pr in zip(s["continuations"], s["prompts"])),
        }
        return artifacts, reports, counts

    def check(self, gate, s, oracles):
        p = self.p
        gate.equal("k-means iterations", s["km"].n_iter, p["iters"])
        rows = np.linspace(0, len(self.held_rows) - 1, p["check_rows"]).astype(int)
        gate.nearest(oracles, self.held_rows, s["km"].centroids, s["labels"], rows)
        n = p["utt_len"]
        units = [s["labels"][i : i + n] for i in range(0, len(s["labels"]), n)]
        gate.equal("labels file == assigned labels", read_tokens(self.labels_path)[1], units)
        gate.codec(units, s["text"], s["from_text"])
        gate.next_dist(s["lm"], s["prompts"] + [[]])
        gate.continuations(s["continuations"], s["prompts"], p["k"], p["max_new"])

    @staticmethod
    def corrupt(s):
        s["labels"][0] = (s["labels"][0] + 1) % s["km"].k


WORKLOADS = {w.name: w for w in (UnitsV500, CliV50, DiscretizeK500)}
