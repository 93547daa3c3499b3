"""Span tracing from outside the program, and the per-layer metrics built from it.

``Tracer.install`` wraps the public functions and methods of each abpe
module (constructors and ``Corpus`` validation included), every name other
modules imported them under, and the CLI subcommand handlers. Each call
becomes a span ``[name, start_ns, end_ns, parent_index, counts]`` appended
to an in-memory list; ``uninstall`` restores the originals. Nothing under
``src/`` changes.

A span's self time is its duration minus its children's; a layer's self
time is the sum over its spans. Spans the benchmark opens itself (the pass
and each stage) belong to the ``harness`` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import struct
import time

LAYERS = ("corpus", "codec", "kmeans", "bpe", "slm", "rescore", "metrics", "cli")

# counts recorded at a span's boundary, from the call's arguments and result
COUNTERS = {
    "bpe.BpeModel.train": lambda a, r: {"merges": len(r.merges)},
    "bpe.BpeModel.encode": lambda a, r: {"tokens": len(a[1])},
    "slm.NgramModel.logprob": lambda a, r: {"events": len(a[1]) + 1},
    # triple count: the u64 after the 32-byte fixed header and one f64 weight per order
    "slm.NgramModel.to_bytes": lambda a, r: {
        "triples": struct.unpack_from("<Q", r, 32 + 8 * a[0].order)[0]},
    "corpus.load_tokens": lambda a, r: {"tokens": r.total_tokens()},
    "kmeans.KMeansModel.fit": lambda a, r: {
        "iters": r.n_iter, "dist_evals": (r.n_iter + 1) * len(a[1]) * r.k},
    "kmeans.KMeansModel.assign": lambda a, r: {"dist_evals": len(a[1]) * a[0].k},
}

CLI_SUBCOMMANDS = ("kmeans-fit", "discretize", "to-unicode", "from-unicode", "bpe-train",
                   "bpe-encode", "bpe-decode", "slm-train", "score", "continue", "rescore",
                   "metrics-compress", "metrics-vert", "metrics-syntax", "metrics-xent")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name):
        """Start a span the benchmark itself owns; ``close`` ends the innermost one."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, result)
            return result

        return traced

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def install(self):
        import abpe

        modules = {layer: importlib.import_module(f"abpe.{layer}") for layer in LAYERS}
        holders = [abpe, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "cli" and attr.startswith("_cmd_"):
                        name = "cli." + attr[len("_cmd_"):].replace("_", "-")
                    elif attr.startswith("_"):
                        continue
                    else:
                        name = f"{layer}.{attr}"
                    wrapped = self.wrap(name, obj)
                    for holder in holders:
                        for hattr, hobj in list(vars(holder).items()):
                            if hobj is obj:
                                self._patch(holder, hattr, wrapped)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for mname, raw in list(vars(obj).items()):
                        if mname.startswith("_") and mname not in ("__init__", "__post_init__"):
                            continue
                        name = f"{layer}.{attr}.{mname}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._patch(obj, mname, type(raw)(self.wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._patch(obj, mname, self.wrap(name, raw))

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


# ----------------------------------------------------------------- analysis --


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (times in s, counts per pass)."""
    dur = [(e - s) / 1e9 for _, s, e, _, _ in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            child[sp[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(i)

    def total(*names):
        """Summed duration of the named spans, not counting one nested in another of them."""
        return sum(dur[i] for n in names for i in by_name.get(n, ())
                   if spans[i][3] < 0 or spans[spans[i][3]][0] not in names)

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, ()))

    def count(name, key=None):
        idx = by_name.get(name, ())
        return len(idx) if key is None else sum((spans[i][4] or {}).get(key, 0) for i in idx)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {}
    layer_self: dict[str, float] = {}
    for i, sp in enumerate(spans):
        layer = sp[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]
    for layer in (*LAYERS, "harness"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    train_s, merges = total("bpe.BpeModel.train"), count("bpe.BpeModel.train", "merges")
    m["bpe.train_s"] = train_s
    m["bpe.merges"] = merges
    m["bpe.train_ms_per_merge"] = 1000 * train_s / merges if merges else 0.0
    m["bpe.encode_s"] = total("bpe.BpeModel.encode")
    m["bpe.encode_tok_per_s"] = rate(count("bpe.BpeModel.encode", "tokens"), m["bpe.encode_s"])
    m["bpe.decode_s"] = total("bpe.BpeModel.decode")

    m["slm.train_s"] = total("slm.NgramModel.train")
    m["slm.triples"] = max([(spans[i][4] or {}).get("triples", 0)
                            for i in by_name.get("slm.NgramModel.to_bytes", ())] or [0])
    m["slm.save_s"] = total("slm.NgramModel.save", "slm.NgramModel.to_bytes")
    m["slm.load_s"] = total("slm.NgramModel.load")
    m["slm.load_calls"] = count("slm.NgramModel.load")
    m["slm.logprob_s"] = total("slm.NgramModel.logprob")
    m["slm.logprob_events"] = count("slm.NgramModel.logprob", "events")
    m["slm.next_dist_calls"] = count("slm.NgramModel.next_dist")
    m["slm.next_dist_s"] = total("slm.NgramModel.next_dist")
    m["slm.generate_self_s"] = self_time("slm.NgramModel.generate")

    m["corpus.load_tokens_s"] = total("corpus.load_tokens")
    m["corpus.save_tokens_s"] = total("corpus.save_tokens", "corpus.dump_tokens")
    m["corpus.tok_parsed_per_s"] = rate(count("corpus.load_tokens", "tokens"),
                                        m["corpus.load_tokens_s"])
    m["corpus.load_features_s"] = total("corpus.load_features")
    m["codec.roundtrip_s"] = total("codec.tokens_to_unicode", "codec.unicode_to_tokens")

    m["kmeans.fit_s"] = total("kmeans.KMeansModel.fit")
    m["kmeans.fit_iters"] = count("kmeans.KMeansModel.fit", "iters")
    m["kmeans.dist_evals"] = (count("kmeans.KMeansModel.fit", "dist_evals")
                              + count("kmeans.KMeansModel.assign", "dist_evals"))
    m["kmeans.assign_s"] = total("kmeans.KMeansModel.assign")

    m["rescore.s"] = total("rescore.rescore")
    m["rescore.cases"] = count("rescore.rescore")
    m["metrics.syntax_s"] = total("metrics.syntax_accuracy")
    m["metrics.vert_s"] = total("metrics.vert")
    m["metrics.xent_s"] = total("metrics.cross_entropy")
    m["metrics.compress_s"] = total("metrics.compression_stats")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = total(f"cli.{sub}")
    return m


def next_dist_us(spans):
    """Durations of every next_dist span, in microseconds."""
    return [(e - s) / 1e3 for name, s, e, _, _ in spans if name == "slm.NgramModel.next_dist"]


def summarize(per_pass, next_dist_samples):
    """Median over traced passes, plus pooled next_dist percentiles."""
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    samples = sorted(next_dist_samples)
    out["slm.next_dist_samples"] = len(samples)
    if len(samples) >= 2:
        q = statistics.quantiles(samples, n=100)
        out["slm.next_dist_p50_us"], out["slm.next_dist_p99_us"] = q[49], q[98]
    else:
        out["slm.next_dist_p50_us"] = out["slm.next_dist_p99_us"] = samples[0] if samples else 0.0
    return out
