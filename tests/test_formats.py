import csv
import io
import json
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailkit
from tailkit import formats
from tailkit.errors import ValidationError
from tailkit.formats import (
    Array,
    Fields,
    dump_json,
    integer,
    load_json,
    nullable,
    number,
    read_numeric_csv,
    string,
    whole,
)

HEADER = ("t_s", "x_m")

_HEADERS = st.sampled_from([HEADER, ("t_s", "voltage_v", "current_a")])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BLANK = st.sampled_from(["", " ", "\t ", "   "])
_FIELD_TEXT = st.sampled_from([
    repr,
    lambda v: f" {v!r}\t",
    lambda v: f'"{v!r}"',
    lambda v: f'" {v!r} "',
    lambda v: f"{v:.17e}",
])


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "log.csv"


def read_both(path: Path, text: str, header):
    """``read_numeric_csv`` of ``text`` from a file object and from a file at
    ``path``: the two must give the same bytes or the same refusal."""
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for source in (io.StringIO(text), path):
        try:
            outcomes.append(read_numeric_csv(source, header))
        except ValidationError as e:
            outcomes.append(e)
    from_file, from_path = outcomes
    if isinstance(from_file, ValidationError):
        assert isinstance(from_path, ValidationError) and str(from_path) == str(from_file)
        raise from_file
    assert from_path.dtype == from_file.dtype and from_path.shape == from_file.shape
    assert from_path.tobytes() == from_file.tobytes()
    return from_path


class TestNumericCsv:
    def test_path_and_file_object_agree(self, tmp_path):
        text = "t_s,x_m\n0.0,1.5\n2,-3e-2\n"
        path = tmp_path / "track.csv"
        path.write_text(text)
        expected = [[0.0, 1.5], [2.0, -0.03]]
        assert read_numeric_csv(path, HEADER).tolist() == expected
        assert read_numeric_csv(str(path), HEADER).tolist() == expected
        assert read_numeric_csv(io.StringIO(text), HEADER).tolist() == expected

    def test_header_names_are_stripped(self):
        assert read_numeric_csv(io.StringIO(" t_s , x_m \n1,2\n"), HEADER).tolist() == [[1.0, 2.0]]

    def test_blank_rows_skipped(self):
        text = "t_s,x_m\n\n1,2\n   \n3,4\n"
        assert read_numeric_csv(io.StringIO(text), HEADER).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty"),
            ("t,x\n1,2\n", "header"),
            ("t_s,x_m\n1,2\n3,4,5\n", "line 3: expected 2 fields, got 3"),
            ("t_s,x_m\n1,2\n\n3\n", "line 4: expected 2 fields, got 1"),
            ("t_s,x_m\n1,two\n", "line 2: non-numeric"),
        ],
    )
    def test_malformed_input_names_the_problem(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_numeric_csv(io.StringIO(text), HEADER)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_s,x_m\n1,2\n3,nan\n", "line 3: non-finite value in \\['3', 'nan'\\]"),
            ("t_s,x_m\n1,-inf\n", "line 2: non-finite"),
            ("t_s,x_m\n1,1e999\n", "line 2: non-finite"),
            ("t_s,x_m\nnan,2\n", "line 2: non-finite"),
            ("t_s,x_m\n1,1_0\n", "line 2: non-numeric"),
            ("t_s,x_m\n1,\u0661\n", "line 2: non-numeric"),
            ('t_s,x_m\n1,"2\n3,4\n', "line 2: unbalanced quote"),
            ('t_s,x_m\n0,0\n1,"2\n', "line 3: unbalanced quote"),
            ('t_s,x_m\n1,"2', "line 2: unbalanced quote"),
            ("t_s,x_m\n1,2,3\n4,5,6\n", "line 2: expected 2 fields, got 3"),
            ("t_s,x_m\r\n1,2\r\n\r\n3,x\r\n", "line 4: non-numeric"),
            pytest.param("t_s,x_m\n1," + "9" * 200_000 + "\n", "line 2: field larger than field limit",
                         id="oversized-field"),
        ],
    )
    def test_refused_values_name_their_line(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_numeric_csv(io.StringIO(text), HEADER)

    def test_header_only_gives_an_empty_table(self):
        data = read_numeric_csv(io.StringIO("t_s,x_m\n\n"), HEADER)
        assert data.shape == (0, 2) and data.dtype == np.float64

    @pytest.mark.parametrize("text, expected", [
        ('t_s,x_m\n"1.5"," -2 "\n', [[1.5, -2.0]]),
        ('t_s,x_m\n0,0\n1,"2', "line 3: unbalanced quote"),
        ("t_s,x_m\n1,2\n \t\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("t_s,x_m\n", []),
        ("t_s,x_m", []),
        ("t_s,x_m\n\n \n\t\n", []),
        ("t_s,x_m\r1,2\r\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("t_s,x_m\r1,2\r3,x\r", "line 3: non-numeric value in ['3', 'x']"),
        ("\ufefft_s,x_m\n1,2\n", "CSV header must be t_s,x_m, got \ufefft_s,x_m"),
    ], ids=["quoted", "unterminated-quote", "whitespace-rows", "header-only", "no-newline",
            "blank-only", "lone-cr", "lone-cr-refused", "bom"])
    def test_path_and_file_object_give_the_same_answer(self, csv_path, text, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "input contained no data" included
            if isinstance(expected, str):
                with pytest.raises(ValidationError) as caught:
                    read_both(csv_path, text, HEADER)
                assert str(caught.value) == expected
            else:
                data = read_both(csv_path, text, HEADER)
                assert data.shape == (len(expected), 2) and data.tolist() == expected

    def test_non_utf8_byte_past_the_first_chunk_is_refused_as_text(self, tmp_path):
        data = "t_s,x_m\n".encode() + b"".join(b"%d,0.5\n" % i for i in range(3000)) + b"1,\xff\n"
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as caught:
            read_numeric_csv(path, HEADER)
        with pytest.raises(UnicodeDecodeError) as expected:
            data.decode("utf-8")
        assert len(data) > 8192 and str(caught.value) == str(expected.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "log.csv"
        os.mkfifo(fifo)
        got = []
        threads = [threading.Thread(target=fifo.write_text, args=("t_s,x_m\n1,2\n3,4\n",),
                                    daemon=True),
                   threading.Thread(target=lambda: got.append(read_numeric_csv(fifo, HEADER)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert got[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_plain_file_from_a_path_skips_the_text_reader(self, tmp_path, monkeypatch):
        rows = np.random.default_rng(7).standard_normal((500, 3))
        text = "t_s,voltage_v,current_a\n" + "".join(",".join(map(repr, r)) + "\n"
                                                 for r in rows.tolist())
        path = tmp_path / "power.csv"
        path.write_text(text)

        def refuse(*args):
            raise AssertionError("the text reader ran")

        monkeypatch.setattr(formats, "_read_text", refuse)
        assert read_numeric_csv(path, ("t_s", "voltage_v", "current_a")).tobytes() == rows.tobytes()
        with pytest.raises(AssertionError, match="the text reader ran"):  # the patch does bite
            read_numeric_csv(io.StringIO(text), ("t_s", "voltage_v", "current_a"))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_valid_files_parse_like_float(self, csv_path, data):
        header = data.draw(_HEADERS)
        rows = data.draw(st.lists(st.lists(_FINITE, min_size=len(header), max_size=len(header)),
                                  min_size=1, max_size=25))
        lines, expected = [",".join(header)], []
        for row in rows:
            lines.extend(data.draw(st.lists(_BLANK, max_size=2)))
            lines.append(",".join(data.draw(_FIELD_TEXT)(v) for v in row))
            expected.append([float(field) for field in next(csv.reader([lines[-1]]))])
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = newline.join(lines) + data.draw(st.sampled_from(["", newline]))
        got = read_both(csv_path, text, header)
        expected = np.array(expected)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bit-identical, -0.0 included

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_corruption_names_its_line(self, csv_path, data):
        header = data.draw(_HEADERS)
        width = len(header)
        rows = data.draw(st.lists(st.lists(_FINITE, min_size=width, max_size=width),
                                  min_size=1, max_size=25))
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
        lineno = data.draw(st.integers(2, len(lines)))  # 1-based; line 1 is the header
        fields = lines[lineno - 1].split(",")
        kind = data.draw(st.sampled_from(["extra", "missing", "token", "non-finite"]))
        if kind == "extra":
            fields.append("1.0")
        elif kind == "missing":
            fields.pop()
        else:
            tokens = (["x", "", "1.2.3", "--1", "0x10", "1d5", "1_0", "\u0661"] if kind == "token"
                      else ["nan", "NaN", "inf", "-Infinity", "1e999"])
            fields[data.draw(st.integers(0, width - 1))] = data.draw(st.sampled_from(tokens))
        lines[lineno - 1] = ",".join(fields)
        message = {"extra": f"expected {width} fields, got {width + 1}",
                   "missing": f"expected {width} fields, got {width - 1}",
                   "token": "non-numeric", "non-finite": "non-finite"}[kind]
        with pytest.raises(ValidationError, match=f"^line {lineno}: {message}"):
            read_both(csv_path, "\n".join(lines) + "\n", header)


class TestStrictJson:
    def test_dump_matches_indented_json(self):
        doc = {"a": [1, 2.5, None], "b": {"c": True}}
        assert dump_json(doc) == json.dumps(doc, indent=1) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_dump_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            dump_json({"x": [1.0, value]})

    def test_load_round_trips_dump(self):
        doc = {"a": [1, -7, 2.5e-300, -0.0, 10**300], "b": "NaN"}
        assert load_json(dump_json(doc), "doc") == doc

    @pytest.mark.parametrize(
        "text",
        ["NaN", '{"x": Infinity}', "[1, -Infinity]", "[1e999]", "[1" + "0" * 400 + "]", "{x: 1}", ""],
    )
    def test_load_refuses_non_standard_json(self, text):
        with pytest.raises(ValidationError, match="^grid JSON is not valid JSON"):
            load_json(text, "grid JSON")


class TestJsonReaders:
    @pytest.mark.parametrize("read, value, expected", [
        (number, 2, 2.0), (number, -0.5, -0.5), (integer, 7, 7), (whole, 6.0, 6),
        (whole, 6, 6), (string, "x", "x"), (nullable(number), None, None),
        (Array(number, 2), [1, 2.5], (1.0, 2.5)), (Array(integer), [], ()),
    ])
    def test_accepts(self, read, value, expected):
        got = read(value, "doc: $")
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("read, value, message", [
        (number, "2", "doc: $ must be a number, got '2'"),
        (number, True, "doc: $ must be a number, got True"),
        (number, None, "doc: $ must be a number, got None"),
        (integer, 17.5, "doc: $ must be an integer, got 17.5"),
        (integer, 6.0, "doc: $ must be an integer, got 6.0"),
        (whole, 6.7, "doc: $ must be a whole number, got 6.7"),
        (whole, False, "doc: $ must be a whole number, got False"),
        (string, 3, "doc: $ must be a string, got 3"),
        (Array(number), {"a": 1}, "doc: $ must be an array, got {'a': 1}"),
        (Array(number, 2), [0, 1, 2], "doc: $ must be an array of 2 entries, got [0, 1, 2]"),
        (Array(Array(number, 2)), [[1, 2], [1, "2"]], "doc: $[1][1] must be a number, got '2'"),
    ])
    def test_refuses_naming_the_path(self, read, value, message):
        with pytest.raises(ValidationError) as caught:
            read(value, "doc: $")
        assert str(caught.value) == message

    def _pair(self, defaults=False):
        def build(low=0.0, high=1.0):
            if low > high:
                raise ValidationError("low exceeds high")
            return (low, high)

        return Fields(build, ("low", "lo", number), ("high", "hi", number), defaults=defaults)

    def test_fields_round_trip_in_table_order(self):
        pair = self._pair()
        assert list(pair.write((0.5, 2.0)).items()) == [("lo", 0.5), ("hi", 2.0)]
        assert pair({"hi": 2, "lo": 0.5, "note": "kept out"}, "doc: $") == (0.5, 2.0)

    def test_required_key_is_named(self):
        with pytest.raises(ValidationError, match=r"^doc: \$\.x\.hi is missing$"):
            self._pair()({"lo": 0.5}, "doc: $.x")

    def test_defaults_fill_missing_keys_and_refuse_unknown_ones(self):
        pair = self._pair(defaults=True)
        assert pair({"hi": 3}, "doc: $") == (0.0, 3.0)
        with pytest.raises(ValidationError) as caught:
            pair({"lo": 0.5, "high": 3}, "doc: $")
        assert str(caught.value) == "doc: $.high is not a known key; the keys are lo, hi"

    def test_build_refusal_gets_the_object_path(self):
        with pytest.raises(ValidationError) as caught:
            Array(self._pair())([{"lo": 0, "hi": 1}, {"lo": 2, "hi": 1}], "doc: $")
        assert str(caught.value) == "doc: $[1]: low exceeds high"


def test_each_format_has_one_home():
    """json.dumps/json.loads live only in formats; csv is imported only by
    formats (numeric CSV) and explorer (report CSV). No module catches
    KeyError or TypeError: JSON documents are read through the checked
    readers of formats, not by indexing and converting and catching what
    goes wrong."""
    json_calls, csv_importers, lax_readers = set(), set(), set()
    for path in Path(tailkit.__file__).parent.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        if re.search(r"\bjson\.(dumps|loads)\b", source):
            json_calls.add(path.name)
        if re.search(r"^\s*(import csv\b|from csv import)", source, re.MULTILINE):
            csv_importers.add(path.name)
        if re.search(r"^\s*except\b[^:]*\b(KeyError|TypeError)\b", source, re.MULTILINE):
            lax_readers.add(path.name)
    assert json_calls == {"formats.py"}
    assert csv_importers == {"formats.py", "explorer.py"}
    assert lax_readers == set()
