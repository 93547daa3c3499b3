#!/usr/bin/env bash
# Full-pipeline smoke run with fixed seeds. Writes every artifact into the
# directory given as $1; running it twice into two directories must produce
# byte-identical files.
set -euo pipefail

OUT="${1:?usage: smoke.sh OUTPUT_DIR}"
PY="${PYTHON:-python3}"
mkdir -p "$OUT"

# synthetic corpora: a training stream plus a held-out slice for syntax pairs
"$PY" -m abpe synth --vocab 50 --utts 300 --motifs 5 --motif-rate 0.6 --seed 7 \
    --out "$OUT/base.tok"
"$PY" -m abpe synth --vocab 50 --utts 60 --motifs 5 --motif-rate 0.6 --seed 8 \
    --out "$OUT/held.tok"

# synthetic feature rows stand in for upstream frame embeddings
"$PY" - "$OUT/feats.bin" <<'PYEOF'
import sys
import numpy as np
from abpe import save_features

rng = np.random.default_rng(272)
blobs = [rng.normal(loc, 0.3, size=(40, 4)) for loc in (0.0, 3.0, 6.0, 9.0)]
save_features(np.vstack(blobs), sys.argv[1])
PYEOF

"$PY" -m abpe kmeans-fit --in "$OUT/feats.bin" --k 8 --seed 5 --out "$OUT/km.bin"
"$PY" -m abpe discretize --model "$OUT/km.bin" --in "$OUT/feats.bin" \
    --out "$OUT/frames.tok"

"$PY" -m abpe bpe-train --in "$OUT/base.tok" --vocab 200 --out "$OUT/units.merges"
"$PY" -m abpe bpe-encode --model "$OUT/units.merges" --in "$OUT/base.tok" \
    --out "$OUT/base.units.tok"
"$PY" -m abpe bpe-encode --model "$OUT/units.merges" --in "$OUT/held.tok" \
    --out "$OUT/held.units.tok"

"$PY" -m abpe slm-train --in "$OUT/base.units.tok" --order 4 --add-k 0.1 \
    --out "$OUT/slm.ngram"

# prompt: first three units of the first encoded utterance
PROMPT="$(sed -n '2p' "$OUT/base.units.tok" | cut -d' ' -f1-3)"
"$PY" -m abpe continue --model "$OUT/slm.ngram" --prompt "$PROMPT" \
    --max-new 40 --seed 21 --num 50 --out "$OUT/continuations.tok"

"$PY" -m abpe metrics-compress --base "$OUT/base.tok" \
    --encoded "$OUT/base.units.tok" --out "$OUT/compress.txt" >/dev/null
"$PY" -m abpe metrics-vert --in "$OUT/continuations.tok" --n 3 \
    --out "$OUT/vert.txt" >/dev/null
"$PY" -m abpe metrics-syntax --model "$OUT/slm.ngram" --in "$OUT/held.units.tok" \
    --block 1 --seed 33 --out "$OUT/syntax.txt" >/dev/null
"$PY" -m abpe metrics-xent --model "$OUT/slm.ngram" --in "$OUT/continuations.tok" \
    --out "$OUT/xent.txt" >/dev/null

# the remaining subcommands, so that every one of them is run with fixed inputs
"$PY" -m abpe score --model "$OUT/slm.ngram" --in "$OUT/held.units.tok" \
    --out "$OUT/held.scores"
"$PY" -m abpe to-unicode --in "$OUT/base.tok" --out "$OUT/base.txt"
"$PY" -m abpe from-unicode --in "$OUT/base.txt" --vocab 50 --out "$OUT/base.rt.tok"
"$PY" -m abpe bpe-decode --model "$OUT/units.merges" --in "$OUT/held.units.tok" \
    --out "$OUT/held.dec.tok"

# rescore: three cases, each a held-out utterance (rank 1) against the same
# tokens in reverse order (rank 2)
printf 'case_id\tcandidate_id\ttoken_file_path\thuman_rank\n' > "$OUT/cases.tsv"
for i in 1 2 3; do
    sed -n "$((i + 1))p" "$OUT/held.tok" > "$OUT/cand-$i-a.tok"
    awk '{ for (j = NF; j > 0; j--) printf "%s%s", $j, (j > 1 ? " " : "\n") }' \
        "$OUT/cand-$i-a.tok" > "$OUT/cand-$i-b.tok"
    printf 'c%s\ta\tcand-%s-a.tok\t1\nc%s\tb\tcand-%s-b.tok\t2\n' "$i" "$i" "$i" "$i" \
        >> "$OUT/cases.tsv"
done
"$PY" -m abpe rescore --model "$OUT/slm.ngram" --manifest "$OUT/cases.tsv" \
    --bpe "$OUT/units.merges" --out "$OUT/rescore.txt"

# the --help of abpe and of every subcommand, at a fixed width, so that the
# byte-identity check covers the command-line surface too
COLUMNS=80 "$PY" - "$OUT/help.txt" <<'PYEOF'
import contextlib
import io
import sys
from abpe.cli import _SUBCOMMANDS, main

text = io.StringIO()
for argv in [[]] + [[name] for name, _, _ in _SUBCOMMANDS]:
    print("$ abpe " + " ".join(argv + ["--help"]), file=text)
    with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
        main(argv + ["--help"])
with open(sys.argv[1], "w", encoding="utf-8", newline="") as fh:
    fh.write(text.getvalue())
PYEOF

echo "smoke pipeline complete: $OUT" >&2
