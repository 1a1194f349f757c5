"""Dictionary loading: separators, duplicate counting, multi-target sources
and numbered parse errors."""

import pytest

from vocab_bridge import load_dictionary
from vocab_bridge.errors import MalformedLine


def write_dict(tmp_path, text, name="dict.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDictionary:
    def test_tab_and_space_lines_mix(self, tmp_path):
        d = load_dictionary(write_dict(tmp_path, "chat\tcat\nchien dog\n"))
        assert d.pairs == (("chat", "cat"), ("chien", "dog"))

    def test_duplicates_counted(self, tmp_path):
        d = load_dictionary(write_dict(tmp_path, "a\tb\na\tb\na\tc\n"))
        assert d.pairs == (("a", "b"), ("a", "c"))
        assert d.dedup_count == 1

    def test_multi_target_source_kept(self, tmp_path):
        d = load_dictionary(write_dict(tmp_path, "bank\tbanque\nbank\trive\n"))
        assert d.targets_by_source() == {"bank": ["banque", "rive"]}

    def test_malformed_line_numbered(self, tmp_path):
        with pytest.raises(MalformedLine) as err:
            load_dictionary(write_dict(tmp_path, "a\tb\nunsplittable\n"))
        assert err.value.line == 2

    def test_three_fields_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            load_dictionary(write_dict(tmp_path, "a b c\n"))

    def test_tab_line_may_hold_spaces(self, tmp_path):
        d = load_dictionary(write_dict(tmp_path, "new york\tville\n"))
        assert d.pairs == (("new york", "ville"),)

