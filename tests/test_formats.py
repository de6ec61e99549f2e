import io
import json
import re
from pathlib import Path

import pytest

import tailkit
from tailkit.errors import ValidationError
from tailkit.formats import dump_json, load_json, read_numeric_csv

HEADER = ("t_s", "x_m")


class TestNumericCsv:
    def test_path_and_file_object_agree(self, tmp_path):
        text = "t_s,x_m\n0.0,1.5\n2,-3e-2\n"
        path = tmp_path / "track.csv"
        path.write_text(text)
        expected = [(0.0, 1.5), (2.0, -0.03)]
        assert read_numeric_csv(path, HEADER) == expected
        assert read_numeric_csv(str(path), HEADER) == expected
        assert read_numeric_csv(io.StringIO(text), HEADER) == expected

    def test_header_names_are_stripped(self):
        assert read_numeric_csv(io.StringIO(" t_s , x_m \n1,2\n"), HEADER) == [(1.0, 2.0)]

    def test_blank_rows_skipped(self):
        text = "t_s,x_m\n\n1,2\n   \n3,4\n"
        assert read_numeric_csv(io.StringIO(text), HEADER) == [(1.0, 2.0), (3.0, 4.0)]

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


def test_each_format_has_one_home():
    """json.dumps/json.loads live only in formats; csv is imported only by
    formats (numeric CSV) and explorer (report CSV)."""
    json_calls, csv_importers = set(), set()
    for path in Path(tailkit.__file__).parent.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        if re.search(r"\bjson\.(dumps|loads)\b", source):
            json_calls.add(path.name)
        if re.search(r"^\s*(import csv\b|from csv import)", source, re.MULTILINE):
            csv_importers.add(path.name)
    assert json_calls == {"formats.py"}
    assert csv_importers == {"formats.py", "explorer.py"}
