"""BPA document parsing, positioned errors, serialization."""

import json
import os
import pathlib
import stat

import pytest

import dsconflict as ds
from dsconflict import document

DATA = pathlib.Path(__file__).parent / "data"

GOOD = """
{
  "frame": ["A1", "A2", "A3"],
  "bpas": [
    {"name": "m1", "masses": [{"set": ["A1", "A2"], "mass": 0.9},
                              {"set": ["A3"], "mass": 0.1}]},
    {"name": "m2", "masses": [{"set": ["A3"], "mass": 1.0}]}
  ]
}
"""


def where_of(callable_, *args):
    with pytest.raises(ds.DocumentError) as info:
        callable_(*args)
    return info.value.where


class TestLoads:
    def test_good_document(self):
        doc = document.loads(GOOD)
        assert doc.frame.labels == ("A1", "A2", "A3")
        assert doc.names == ("m1", "m2")
        assert doc.bpa("m1").mass(0b011) == 0.9

    def test_example_files_parse(self):
        for name in ("example1.json", "example2.json", "example3.json"):
            doc = document.load(DATA / name)
            assert len(doc.bpas) >= 2

    def test_unknown_bpa_name(self):
        doc = document.loads(GOOD)
        with pytest.raises(ds.DocumentError) as info:
            doc.bpa("nope")
        assert "m1" in str(info.value)  # lists known names

    def test_invalid_json_position(self):
        where = where_of(document.loads, '{"frame": ["A1"],\n  "bpas": }')
        assert where.startswith("line 2")

    def test_root_not_object(self):
        assert where_of(document.loads, "[1, 2]") == ""

    def test_missing_keys(self):
        assert where_of(document.loads, '{"frame": ["A1"]}') == "bpas"

    def test_unknown_root_key(self):
        text = '{"frame": ["A1"], "bpas": [], "extra": 1}'
        assert where_of(document.loads, text) == "extra"

    def test_frame_not_array(self):
        assert where_of(document.loads, '{"frame": 3, "bpas": []}') == "frame"

    def test_frame_member_not_string(self):
        text = '{"frame": ["A1", 7], "bpas": []}'
        assert where_of(document.loads, text) == "frame[1]"

    def test_frame_duplicate_label(self):
        text = '{"frame": ["A1", "A1"], "bpas": []}'
        assert where_of(document.loads, text) == "frame"

    def test_bpas_not_array(self):
        text = '{"frame": ["A1"], "bpas": {}}'
        assert where_of(document.loads, text) == "bpas"

    def test_bpa_entry_not_object(self):
        text = '{"frame": ["A1"], "bpas": [17]}'
        assert where_of(document.loads, text) == "bpas[0]"

    def test_bpa_unknown_key(self):
        text = ('{"frame": ["A1"], "bpas": '
                '[{"name": "m", "masses": [], "weight": 2}]}')
        assert where_of(document.loads, text) == "bpas[0].weight"

    def test_bpa_name_not_string(self):
        text = '{"frame": ["A1"], "bpas": [{"name": 4, "masses": []}]}'
        assert where_of(document.loads, text) == "bpas[0].name"

    def test_duplicate_bpa_name(self):
        text = ('{"frame": ["A1"], "bpas": ['
                '{"name": "m", "masses": [{"set": ["A1"], "mass": 1.0}]},'
                '{"name": "m", "masses": [{"set": ["A1"], "mass": 1.0}]}]}')
        assert where_of(document.loads, text) == "bpas[1].name"

    @pytest.mark.parametrize(
        "text, where, key",
        [
            ('{"frame": ["A1"], "frame": ["A1", "A2"], "bpas": []}', "", "frame"),
            ('{"frame": ["A1"], "bpas": [{"name": "m1", "name": "m3", "masses": '
             '[{"set": ["A1"], "mass": 1}]}]}', "bpas[0]", "name"),
            ('{"frame": ["A1", "A2"], "bpas": [{"name": "m1", "masses": ['
             '{"set": ["A2"], "mass": 0.5}, {"set": ["A1"], "mass": 0.2, "mass": 1}'
             ']}]}', "bpas[0].masses[1]", "mass"),
        ],
    )
    def test_duplicate_key_positioned(self, text, where, key):
        # json would keep the last value; the document is refused instead
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert info.value.where == where
        assert info.value.message == f"duplicate key {key!r}"

    def test_mass_entry_not_object(self):
        text = '{"frame": ["A1"], "bpas": [{"name": "m", "masses": [5]}]}'
        assert where_of(document.loads, text) == "bpas[0].masses[0]"

    def test_set_not_array(self):
        text = ('{"frame": ["A1"], "bpas": '
                '[{"name": "m", "masses": [{"set": "A1", "mass": 1.0}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[0].set"

    @pytest.mark.parametrize(
        "members, p",
        [
            ('[3]', 0),
            # unhashable members: the decoder leaves such arrays as they are
            ('[["A1"]]', 0),
            ('["A1", {}]', 1),
            ('["A1", 1, true]', 1),
        ],
        ids=["number", "array", "object", "number-and-bool"],
    )
    def test_set_member_not_string(self, members, p):
        text = ('{"frame": ["A1"], "bpas": '
                f'[{{"name": "m", "masses": [{{"set": {members}, "mass": 1.0}}]}}]}}')
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert info.value.where == f"bpas[0].masses[0].set[{p}]"
        assert info.value.message == "expected a non-empty string"

    def test_unknown_label_position(self):
        text = ('{"frame": ["A1"], "bpas": '
                '[{"name": "m", "masses": [{"set": ["A9"], "mass": 1.0}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[0].set"

    @pytest.mark.parametrize(
        "masses, where, message",
        [
            ('{"set": ["A1", "B2", "B3"], "mass": 1.0}',
             "bpas[0].masses[0].set", "label 'B2' is not part of the frame"),
            ('{"set": ["A1", "B2", 3], "mass": 1.0}',
             "bpas[0].masses[0].set[2]", "expected a non-empty string"),
            ('{"set": ["", "A1"], "mass": 1.0}',
             "bpas[0].masses[0].set[0]", "expected a non-empty string"),
            ('{"mass": 1.0, "set": ["A1", "B2"]}',
             "bpas[0].masses[0].set", "label 'B2' is not part of the frame"),
            ('{"set": ["A1"], "mass": 1.0}, {"mass": 0.5, "set": "A1"}',
             "bpas[0].masses[1].set", "expected an array"),
            ('{"set": ["A1"], "mass": [1, {"set": ["A1", "B2"], "mass": true}]}',
             "bpas[0].masses[0].mass",
             "mass [1, {'set': ['A1', 'B2'], 'mass': True}] on Theta is not a number"),
            # ids of 300 distinct labels: the 257th is past a byte
            (", ".join('{"set": ["L%d"], "mass": 0}' % i for i in range(300)),
             "bpas[0].masses[0].set", "label 'L0' is not part of the frame"),
        ],
        ids=["two-unknown", "unknown-then-number", "empty-label", "mass-first",
             "mass-first-not-array", "entry-in-mass", "many-labels"],
    )
    def test_entry_where_and_message(self, masses, where, message):
        text = '{"frame": ["A1"], "bpas": [{"name": "m", "masses": [%s]}]}' % masses
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert (info.value.where, info.value.message) == (where, message)

    def test_entry_keys_in_either_order(self):
        text = ('{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
                '{"mass": 0.25, "set": ["A2", "A1"]},'
                '{"set": ["A2"], "mass": 0.75}]}]}')
        bpa = document.loads(text).bpa("m")
        assert dict(bpa.items()) == {0b11: 0.25, 0b10: 0.75}

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ('{"set": ["A1"], "mass": 1}', "set",
             "unknown key (expected 'frame', 'bpas')"),
            ('{"frame": ["A1"], "bpas": [{"set": ["A1"], "mass": 1}]}', "bpas[0].set",
             "unknown key (expected 'name', 'masses')"),
            ('{"frame": [{"set": ["A1"], "mass": 1}], "bpas": []}', "frame[0]",
             "expected a non-empty string"),
            ('{"frame": ["A1"], "bpas": [{"name": "m", "masses": '
             '{"set": ["A1"], "mass": 1}}]}', "bpas[0].masses", "expected an array"),
        ],
        ids=["root", "bpa", "frame-label", "masses"],
    )
    def test_entry_shaped_object_elsewhere(self, text, where, message):
        """An object with exactly the keys of a mass entry, where the layout
        expects something else, is reported as any other object."""
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert (info.value.where, info.value.message) == (where, message)

    def test_mass_not_number(self):
        text = ('{"frame": ["A1"], "bpas": '
                '[{"name": "m", "masses": [{"set": ["A1"], "mass": "x"}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[0].mass"

    def test_mass_boolean_rejected(self):
        text = ('{"frame": ["A1"], "bpas": '
                '[{"name": "m", "masses": [{"set": ["A1"], "mass": true}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[0].mass"

    def test_negative_mass_position(self):
        text = ('{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
                '{"set": ["A1"], "mass": 1.2},'
                '{"set": ["A2"], "mass": -0.2}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[1].mass"

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "1" + "0" * 400],
        ids=["NaN", "Infinity", "huge-int"],
    )
    def test_non_finite_mass_position(self, literal):
        text = ('{"frame": ["A1"], "bpas": [{"name": "m", "masses": ['
                '{"set": ["A1"], "mass": %s}]}]}' % literal)
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert info.value.where == "bpas[0].masses[0].mass"
        assert "not a finite number" in info.value.message

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 100000], ids=["long-int", "deep-nesting"]
    )
    def test_json_beyond_parser_limits(self, text):
        assert where_of(document.loads, text) == ""

    def test_empty_set_with_mass_position(self):
        text = ('{"frame": ["A1"], "bpas": [{"name": "m", "masses": ['
                '{"set": [], "mass": 0.3}, {"set": ["A1"], "mass": 0.7}]}]}')
        assert where_of(document.loads, text) == "bpas[0].masses[0].set"

    def test_unnormalized_position_and_name(self):
        text = ('{"frame": ["A1", "A2"], "bpas": [{"name": "m9", "masses": ['
                '{"set": ["A1"], "mass": 0.5}, {"set": ["A2"], "mass": 0.6}]}]}')
        with pytest.raises(ds.DocumentError) as info:
            document.loads(text)
        assert info.value.where == "bpas[0].masses"
        assert "m9" in info.value.message

    def test_duplicate_sets_merged(self):
        text = ('{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
                '{"set": ["A1"], "mass": 0.25},'
                '{"set": ["A1"], "mass": 0.25},'
                '{"set": ["A2"], "mass": 0.5}]}]}')
        doc = document.loads(text)
        assert doc.bpa("m").mass(0b01) == 0.5

    def test_slightly_off_sum_renormalized(self):
        text = ('{"frame": ["A1", "A2"], "bpas": [{"name": "m", "masses": ['
                '{"set": ["A1"], "mass": 0.5},'
                '{"set": ["A2"], "mass": 0.5000001}]}]}')
        doc = document.loads(text)
        total = sum(doc.bpa("m").focal.values())
        assert abs(total - 1.0) <= 1e-12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ds.DocumentError):
            document.load(tmp_path / "does-not-exist.json")

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"\xff\xfe{}", 0),
            # past the first buffer of a text-mode read
            (b" " * 100_000 + b'{"frame": ["a\xc3"]}', 100_013),
        ],
        ids=["leading", "deep"],
    )
    def test_not_utf8_names_the_byte(self, tmp_path, data, offset):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ds.DocumentError) as info:
            document.load(path)
        assert info.value.where == str(path)
        assert f"not UTF-8 at byte {offset}:" in info.value.message


class TestDumps:
    def test_round_trip_exact(self):
        doc = document.loads(GOOD)
        again = document.loads(document.dumps(doc))
        assert again.frame == doc.frame
        assert again.names == doc.names
        for name in doc.names:
            assert ds.bpa_equal(doc.bpa(name), again.bpa(name), tol=0.0)

    def test_output_is_json_with_expected_shape(self):
        doc = document.loads(GOOD)
        payload = json.loads(document.dumps(doc))
        assert set(payload) == {"frame", "bpas"}
        assert payload["bpas"][0]["name"] == "m1"
        assert {"set", "mass"} == set(payload["bpas"][0]["masses"][0])

    def test_dump_writes_file(self, tmp_path):
        doc = document.loads(GOOD)
        target = tmp_path / "out.json"
        document.dump(doc, target)
        assert ds.bpa_equal(
            document.load(target).bpa("m1"), doc.bpa("m1"), tol=0.0
        )
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
    def test_dump_keeps_file_modes(self, tmp_path, umask):
        """A new file gets the mode ``open()`` gives under the umask, and a
        replaced file keeps its own."""
        doc = document.loads(GOOD)
        opened, new, kept = (tmp_path / n for n in ("opened", "new.json", "kept.json"))
        kept.write_text("{}")
        kept.chmod(0o640)
        old = os.umask(umask)
        try:
            with open(opened, "w"):
                pass
            document.dump(doc, new)
            document.dump(doc, kept)
        finally:
            os.umask(old)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert new.stat().st_mode == opened.stat().st_mode
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert document.load(kept).names == doc.names
