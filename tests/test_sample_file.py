"""``cli.read_sample_file`` against a frozen copy of its line-by-line reader.

The reader parses a plain file (leading blank or '#' lines, then one value
per line) in one pass and sends every other file to the line-by-line path.
The property test holds the whole reader to the frozen copy: the same bits,
or a SampleFileError with the same message.
"""

import codecs
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from expoverlap import cli
from expoverlap.cli import SampleFileError, main, read_sample_file


def frozen_read_sample_file(path: str) -> np.ndarray:
    """``read_sample_file`` as it was before the one-pass parse, unchanged."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SampleFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SampleFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    texts = [t for t in map(str.strip, lines) if t and t[0] != "#"]
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        values = None
    if values is None or not np.all((values > 0.0) & (values < math.inf)):
        for lineno, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise SampleFileError(f"{path}:{lineno}: not a number: {text!r}") from exc
            if not math.isfinite(value) or value <= 0.0:
                raise SampleFileError(
                    f"{path}:{lineno}: observations must be positive and finite, got {text}")
    if not texts:
        raise SampleFileError(f"{path}: no observations found")
    return values


def _outcome(reader, path):
    try:
        values = reader(path)
    except SampleFileError as exc:
        return "error", str(exc)
    return values.dtype.str, values.shape, values.tobytes()


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308).map(repr)
_TOKENS = st.one_of(
    _POSITIVE,
    st.floats().map(repr),
    st.sampled_from([
        "1_000", "+1e-3", "\u0661\u0662", "\u0967.5", "0", "-1", "-0.0", "nan", "inf",
        "1e999", "1.5 # note", "1 2", "potato", "#", "# comment", "  # indented",
        "#c\x0c2.5", "#c\u20282.5", "", " ", "\t", "\x0c", "\x85", "\u2028", "\x1c",
    ]),
)
_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028",
                         "\u2029", "\u3000", "\xa0"])
_LINE = st.tuples(_PADS, _TOKENS, _PADS).map("".join)
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _sample_texts(draw):
    """A header of '#' and blank lines, then a body of values and blank lines
    or of mixed lines."""
    header = draw(st.lists(st.sampled_from(["# header", "#", "", "#c\x0c2.5", "#c\u20282.5"]),
                           max_size=3))
    plain = draw(st.booleans())
    body = draw(st.lists(st.one_of(_POSITIVE, st.just("")) if plain else _LINE, max_size=12))
    lines = header + body + draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    text = "".join(line + draw(_ENDS) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]
    return text


@pytest.fixture(scope="module")
def sample_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "sample.txt"


@settings(max_examples=400, deadline=None)
@given(text=_sample_texts())
def test_reader_matches_frozen_reader(sample_path, text):
    sample_path.write_bytes(text.encode("utf-8"))
    path = str(sample_path)
    assert _outcome(read_sample_file, path) == _outcome(frozen_read_sample_file, path)


def _bench_text(n=1000, seed=3):
    values = np.random.default_rng(seed).exponential(2.0, n)
    return (f"# pair 0, sample 1: {n} exponential draws, mean 2.0\n"
            + "\n".join(map(repr, values.tolist())) + "\n"), values


def test_bench_shaped_files_take_the_one_pass_parse(tmp_path, monkeypatch):
    def line_path(path, text):
        raise AssertionError(f"{path} reached the line-by-line path")

    monkeypatch.setattr(cli, "_parse_lines", line_path)
    text, values = _bench_text()
    lf, crlf, blank = tmp_path / "lf.txt", tmp_path / "crlf.txt", tmp_path / "blank.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    blank.write_bytes(text.replace("\n", "\n\n", 3).encode())
    for path in (lf, crlf, blank):
        assert read_sample_file(str(path)).tobytes() == values.tobytes()


def test_crlf_file_gives_the_lf_bits(tmp_path):
    text, _ = _bench_text()
    text = text.replace("\n", "\n\n# mid-file comment\n", 1)
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert read_sample_file(str(crlf)).tobytes() == read_sample_file(str(lf)).tobytes()


@pytest.mark.parametrize("bad", ["1.5 # note", "1.5 2.5"])
def test_line_with_more_than_one_value_is_input_error(tmp_path, bad):
    good = tmp_path / "good.txt"
    good.write_text("1.0\n2.0\n3.0\n")
    path = tmp_path / "bad.txt"
    path.write_text(f"# header\n1.0\n{bad}\n2.0\n")
    res = CliRunner().invoke(main, ["estimate", str(good), str(path)])
    assert res.exit_code == 2
    assert f"error: {path}:3: not a number: {bad!r}" in res.output


@pytest.mark.parametrize("header", [True, False], ids=["before a header", "before a value"])
def test_leading_byte_order_mark_is_ignored(tmp_path, monkeypatch, header):
    def line_path(path, text):
        raise AssertionError(f"{path} reached the line-by-line path")

    text, _ = _bench_text()
    if not header:
        text = text.split("\n", 1)[1]
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode())
    bom.write_bytes(codecs.BOM_UTF8 + text.encode())
    monkeypatch.setattr(cli, "_parse_lines", line_path)
    assert read_sample_file(str(bom)).tobytes() == read_sample_file(str(plain)).tobytes()


def test_byte_order_mark_after_line_one_is_input_error(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(codecs.BOM_UTF8 + "1.0\n\ufeff2.0\n".encode())
    with pytest.raises(SampleFileError) as err:
        read_sample_file(str(path))
    assert str(err.value) == f"{path}:2: not a number: '\\ufeff2.0'"
