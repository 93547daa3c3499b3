import ast
import pathlib
import re

import numpy as np
import pytest

import abpe
from abpe import (
    Corpus,
    FormatError,
    SynthSpec,
    dump_tokens,
    load_features,
    load_tokens,
    save_features,
    save_tokens,
    synth_corpus,
)

from oracles import FROZEN_SYNTH_SPEC


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTokenFiles:
    def test_basic_parse(self, tmp_path):
        corpus = load_tokens(write(tmp_path / "a.tok", "0 1 2\n3 3\n"))
        assert corpus.utterances == [[0, 1, 2], [3, 3]]
        assert corpus.vocab_size == 4

    def test_header_override_roundtrips(self, tmp_path):
        path = write(tmp_path / "a.tok", "#vocab 2000\n5\n")
        corpus = load_tokens(path)
        assert corpus.vocab_size == 2000
        out = tmp_path / "b.tok"
        save_tokens(corpus, str(out))
        assert load_tokens(str(out)) == corpus

    def test_negative_id_rejected_with_line(self, tmp_path):
        with pytest.raises(FormatError, match=":1"):
            load_tokens(write(tmp_path / "a.tok", "1 -2\n"))

    def test_malformed_token_reports_line(self, tmp_path):
        with pytest.raises(FormatError, match=":2"):
            load_tokens(write(tmp_path / "a.tok", "1 2\n3 x\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no utterances"):
            load_tokens(write(tmp_path / "a.tok", ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no utterances"):
            load_tokens(write(tmp_path / "a.tok", "#vocab 5\n"))

    def test_header_below_max_id_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="cover"):
            load_tokens(write(tmp_path / "a.tok", "#vocab 3\n7\n"))

    def test_header_not_on_first_line_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="line 1"):
            load_tokens(write(tmp_path / "a.tok", "1\n#vocab 9\n"))

    @pytest.mark.parametrize("text, lineno, token", [
        ("0 1\n\u30001 0\n", 2, "\u30001"),
        ("0\x1c1\n", 1, "0\x1c1"),
        ("0\u20031\n", 1, "0\u20031"),
        ("1 0\u00a0\n", 1, "0\u00a0"),
        ("1 0\x1f\n", 1, "0\x1f"),
    ])
    def test_ids_are_separated_by_ascii_whitespace_only(self, tmp_path, text, lineno, token):
        path = write(tmp_path / "a.tok", text)
        message = f"^{re.escape(path)}:{lineno}: malformed integer {re.escape(repr(token))}$"
        with pytest.raises(FormatError, match=message):
            load_tokens(path)

    def test_ids_may_be_separated_by_any_ascii_whitespace(self, tmp_path):
        corpus = load_tokens(write(tmp_path / "a.tok", "0\t1\n0  1 \r\n\v2\f0 \n"))
        assert corpus.utterances == [[0, 1], [0, 1], [2, 0]]

    @pytest.mark.parametrize("header", ["#vocab\u30005", "#vocab\x1c5"])
    def test_vocab_header_splits_on_ascii_whitespace_only(self, tmp_path, header):
        path = write(tmp_path / "a.tok", f"{header}\n0\n")
        with pytest.raises(FormatError, match=f"^{re.escape(path)}:1: expected '#vocab <N>' header$"):
            load_tokens(path)

    def test_blank_lines_skipped(self, tmp_path):
        corpus = load_tokens(write(tmp_path / "a.tok", "1 2\n\n\n0\n"))
        assert corpus.utterances == [[1, 2], [0]]

    def test_save_single_token(self, tmp_path):
        out = tmp_path / "a.tok"
        save_tokens(Corpus([[0]], 1), str(out))
        assert out.read_text(encoding="utf-8") == "#vocab 1\n0\n"

    def test_save_rejects_empty_utterance(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            dump_tokens(Corpus([[0], []], 1))

    def test_roundtrip_random_corpora(self, tmp_path):
        rng = np.random.default_rng(11)
        for case in range(25):
            v = int(rng.integers(1, 300))
            utts = [
                [int(t) for t in rng.integers(0, v, size=int(rng.integers(1, 40)))]
                for _ in range(40)
            ]
            corpus = Corpus(utts, v)
            path = tmp_path / f"{case}.tok"
            save_tokens(corpus, str(path))
            assert load_tokens(str(path)) == corpus

    def test_corpus_validates_ids(self):
        with pytest.raises(ValueError, match="outside"):
            Corpus([[0, 5]], 5)

    def test_vocab_sizes_stop_where_int64_streams_would_overflow(self, tmp_path):
        # the n-gram stream holds vocab_size + 1, so a vocab size is at most 2**63 - 2
        with pytest.raises(ValueError, match=r"^vocab_size must be <= 9223372036854775806, got "):
            Corpus([[0, 2**64]], 2**65)
        top = Corpus([[0, 2**63 - 3]], 2**63 - 2)
        path = tmp_path / "top.tok"
        save_tokens(top, str(path))
        assert path.read_text() == "#vocab 9223372036854775806\n0 9223372036854775805\n"
        assert load_tokens(str(path)) == top


class TestFeatureFiles:
    def test_csv_parse(self, tmp_path):
        mat = load_features(write(tmp_path / "f.csv", "1,2,3\n4,5,6"))
        assert mat.shape == (2, 3)
        assert mat[1, 2] == 6.0

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.random((17, 5))
        path = tmp_path / "f.bin"
        save_features(values, str(path))
        loaded = load_features(str(path))
        assert loaded.shape == (17, 5)
        assert np.abs(loaded - values).max() < 1e-6

    def test_binary_and_csv_agree(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.random((9, 4))
        pb, pc = tmp_path / "f.bin", tmp_path / "f.csv"
        save_features(values, str(pb))
        np.savetxt(pc, values, delimiter=",")
        assert np.abs(load_features(str(pb)) - load_features(str(pc))).max() < 1e-6

    def test_binary_zero_rows_rejected(self, tmp_path):
        import struct

        blob = struct.pack("<8sIQQ", b"ABPEFEAT", 1, 0, 3)
        path = tmp_path / "f.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="shape"):
            load_features(str(path))

    def test_truncated_binary_rejected(self, tmp_path):
        import struct

        blob = struct.pack("<8sIQQ", b"ABPEFEAT", 1, 2, 2) + b"\x00" * 8
        path = tmp_path / "f.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="payload"):
            load_features(str(path))

    def test_non_finite_csv_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="finite"):
            load_features(write(tmp_path / "f.csv", "1,nan\n2,3"))

    def test_unsupported_binary_version_rejected(self, tmp_path):
        import struct

        blob = struct.pack("<8sIQQ", b"ABPEFEAT", 9, 1, 1) + b"\x00" * 4
        path = tmp_path / "f.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="version"):
            load_features(str(path))

    def test_non_finite_binary_rejected(self, tmp_path):
        import struct

        payload = struct.pack("<2f", 1.0, float("inf"))
        blob = struct.pack("<8sIQQ", b"ABPEFEAT", 1, 1, 2) + payload
        path = tmp_path / "f.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="finite"):
            load_features(str(path))

    def test_corrupt_magic_falls_through_to_csv_error(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"ABPEFEAX" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_features(str(path))

    @pytest.mark.parametrize("value", ["1e39", "-1e39", "3.4028236e38"])
    def test_csv_outside_float32_rejected(self, tmp_path, value):
        path = write(tmp_path / "f.csv", f"0,{value}\n1,2")
        with pytest.raises(FormatError, match="value outside the float32 range"):
            load_features(path)

    def test_float32_extremes_roundtrip(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        values = np.array([[top, -top], [1e-300, 0.0]])
        path = str(tmp_path / "f.bin")
        save_features(values, path)
        assert load_features(path).tolist() == [[top, -top], [0.0, 0.0]]

    def test_save_outside_float32_rejected_before_writing(self, tmp_path):
        path = tmp_path / "f.bin"
        with pytest.raises(FormatError, match="value outside the float32 range"):
            save_features(np.array([[1e39, 0.0]]), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\u00a01", "1\u2003", "x", ""])
    def test_csv_takes_only_ascii_decimals_without_underscores(self, tmp_path, cell):
        path = write(tmp_path / "f.csv", f"1,2,3\n4,{cell},6\n")
        with pytest.raises(FormatError, match=f"^{re.escape(path)}:2: malformed number$"):
            load_features(path)

    @pytest.mark.parametrize("line", ["\u30001,2", "\u00a01,2", "1,2\u2003", "\x1c1,2", "1,2\x1f",
                                      "1,\x1d2"])
    def test_csv_lines_are_stripped_of_ascii_whitespace_only(self, tmp_path, line):
        path = write(tmp_path / "f.csv", f"3,4\n{line}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(path)}:2: malformed number$"):
            load_features(path)

    def test_csv_cells_may_have_ascii_spaces_around_them(self, tmp_path):
        mat = load_features(write(tmp_path / "f.csv", " 1 ,\t-2.5e1\n+.5 , 3. \n"))
        assert mat.tolist() == [[1.0, -25.0], [0.5, 3.0]]

    def test_ragged_csv_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="column"):
            load_features(write(tmp_path / "f.csv", "1,2\n3"))


class TestSynthCorpus:
    def test_deterministic(self):
        spec = SynthSpec(20, 50, (5, 15), 3, (2, 4), 0.5, 1.1, seed=42)
        a, b = synth_corpus(spec), synth_corpus(spec)
        assert a == b
        assert dump_tokens(a) == dump_tokens(b)

    def test_seed_changes_output(self):
        base = dict(
            vocab_size=20, n_utts=50, len_range=(5, 15), motif_count=3,
            motif_len_range=(2, 4), motif_rate=0.5, zipf_exponent=1.1,
        )
        assert synth_corpus(SynthSpec(**base, seed=1)) != synth_corpus(
            SynthSpec(**base, seed=2)
        )

    def test_pure_zipf_stream(self):
        spec = SynthSpec(30, 40, (10, 20), 0, (1, 1), 0.0, 1.5, seed=9)
        corpus = synth_corpus(spec)
        assert all(max(u) < 30 for u in corpus.utterances)
        assert all(10 <= len(u) <= 20 for u in corpus.utterances)

    def test_all_motif_stream_is_motif_concatenation(self):
        spec = SynthSpec(10, 30, (6, 12), 1, (3, 3), 1.0, 1.0, seed=5)
        corpus = synth_corpus(spec)
        motif = corpus.utterances[0][:3]
        for utt in corpus.utterances:
            assert len(utt) % 3 == 0
            for i in range(0, len(utt), 3):
                assert utt[i : i + 3] == motif

    def test_ids_below_vocab(self):
        corpus = synth_corpus(FROZEN_SYNTH_SPEC)
        assert len(corpus) == 2000
        assert all(max(u) < 50 for u in corpus.utterances)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(10, 5, (8, 4), 0, (1, 1), 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(10, 5, (4, 8), 0, (1, 1), 1.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(10, 5, (4, 8), 0, (1, 1), 0.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(1, 5, (4, 8), 0, (1, 1), 0.0, 1.0, seed=0)


def _opens_for_writing(tree):
    """The (function, line) of each call in ``tree`` that may open a file for writing: ``open``
    with a mode that is not a constant or holds w, x, a or +, and ``write_text``/``write_bytes``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open" and isinstance(node.func, ast.Name):
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wxa+")
                       for m in modes):
                    found.append((func, node.lineno))
            elif name in ("write_text", "write_bytes"):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_corpus_save_opens_files_for_writing():
    # every artifact goes through one writer, which leaves the whole new file or the old one
    writers = {}
    for path in sorted(pathlib.Path(abpe.__file__).parent.glob("*.py")):
        found = _opens_for_writing(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            writers[path.name] = sorted({func for func, _ in found})
    assert writers == {"corpus.py": ["_save"]}


def _id_rule_functions(tree):
    """The name of each function in ``tree`` that names ``np.integer`` or calls ``IdRangeError``,
    the two marks of an implementation of the id rule."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "integer"
                and getattr(node.value, "id", None) == "np"
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "IdRangeError"):
            found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sorted(found)


def test_the_id_rule_has_one_implementation():
    # one check, _check_ids, tests the type and range of every id; the streams take checked ids
    sites = {}
    for path in sorted(pathlib.Path(abpe.__file__).parent.glob("*.py")):
        found = _id_rule_functions(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            sites[path.name] = found
    assert sites == {"corpus.py": ["_check_ids"]}


def _callers(tree, name: str) -> set[str]:
    """The dotted name, class included, of each function in ``tree`` that calls ``name``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_ids_enter_through_one_gate():
    # sequences of ids enter through _as_corpus; each merge's operands have a limit of their own
    callers = set()
    for path in sorted(pathlib.Path(abpe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {path.stem + scope for scope in _callers(tree, "_check_ids")}
    assert callers == {"corpus._as_corpus", "bpe.BpeModel.__init__"}


def test_id_rule_guard_sees_each_mark():
    source = """
def types(t):
    return isinstance(t, (int, np.integer))
def raises(t):
    raise IdRangeError(f"id {t}", 0)
def neither(t):
    return np.int64(t), IdRangeError
"""
    assert _id_rule_functions(ast.parse(source)) == ["raises", "types"]


def test_writer_guard_sees_each_way_to_open_for_writing():
    source = """
def reads(p):
    open(p)
    open(p, "rb")
    open(p, mode="r", encoding="utf-8")
def writes(p, m):
    open(p, "w")
    open(p, "xb")
    open(p, mode="a")
    open(p, "r+")
    open(p, m)
    p.write_text("x")
"""
    assert [line for _, line in _opens_for_writing(ast.parse(source))] == [7, 8, 9, 10, 11, 12]


def _unicode_whitespace_calls(tree):
    """The line of each call in ``tree`` that strips or splits on Unicode whitespace or line
    breaks: ``strip``, ``lstrip`` or ``rstrip`` without an argument, and ``splitlines``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "splitlines"
                       or node.func.attr in ("strip", "lstrip", "rstrip") and not node.args))


def test_text_formats_strip_only_ascii_whitespace():
    # a text line is stripped of corpus._SPACE only; str.strip() would also take U+00A0 or
    # U+3000, and str.splitlines() would break lines at U+2028 or 0x1C
    found = {}
    for path in sorted(pathlib.Path(abpe.__file__).parent.glob("*.py")):
        lines = _unicode_whitespace_calls(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_whitespace_guard_sees_each_unicode_whitespace_call():
    source = """
line.strip(" ")
line.rstrip(chars)
line.strip()
line.lstrip()
line.rstrip()
text.splitlines()
text.splitlines(True)
"""
    assert _unicode_whitespace_calls(ast.parse(source)) == [4, 5, 6, 7, 8]
