import json
import os

import numpy as np
import pytest

from hypercollapse.serialize import dumps_json, format_float, write_csv, write_json


class TestFormatFloat:
    def test_seventeen_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(1.185e-4) == "0.00011849999999999999"

    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.random(200) * 10.0 ** rng.integers(-8, 8, 200):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("inf"))
        with pytest.raises(ValueError):
            format_float(float("nan"))


class TestWriters:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a", "b"), [(1, 0.5), (np.int64(2), np.float64(0.25))])
        assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"

    def test_json_is_valid_and_exact(self, tmp_path):
        doc = {"z": 0.1756856662015595, "zeta": [], "n": 100,
               "nested": {"ok": True, "none": None}, "list": [1, 2.5]}
        path = tmp_path / "t.json"
        write_json(doc, str(path))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["z"] == doc["z"]
        assert loaded["nested"] == {"ok": True, "none": None}
        assert loaded["list"] == [1, 2.5]

    def test_failed_format_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), ("a", "b"), [(1, 0.5), (2, float("nan"))])
        assert not path.exists()
        path = tmp_path / "t.json"
        with pytest.raises(ValueError):
            write_json({"ok": 1.0, "bad": [float("nan")]}, str(path))
        assert not path.exists()

    def test_makes_a_directory_only_when_it_is_missing(self, tmp_path, monkeypatch):
        write_json({"a": 1}, str(tmp_path / "new" / "sub" / "t.json"))
        assert (tmp_path / "new" / "sub" / "t.json").read_text() == '{\n  "a": 1\n}\n'

        def refuse(*args, **kwargs):
            raise AssertionError("os.makedirs called for an existing directory")

        monkeypatch.setattr(os, "makedirs", refuse)
        write_csv(str(tmp_path / "t.csv"), ("a",), [(1,)])
        write_json({"a": 1}, str(tmp_path / "new" / "t.json"))
        assert (tmp_path / "t.csv").read_text() == "a\n1\n"

    def test_json_strings_and_empty_containers(self):
        assert dumps_json({"a": 'x"y', "b": {}, "c": []}) == (
            '{\n  "a": "x\\"y",\n  "b": {},\n  "c": []\n}')

    def test_json_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"bad": object()})
