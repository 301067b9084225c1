"""Key=value config file parsing: order, repetition, and rejection."""

import pytest

from qsmkit.config import parse_config_items, read_config_items
from qsmkit.errors import InputError


class TestParseItems:
    def test_simple_pairs(self):
        items = parse_config_items("a = 1\nb = two\n", "t")
        assert items == [("a", "1"), ("b", "two")]

    def test_file_order_preserved_across_keys(self):
        text = "sphere = s1\nbox = b1\nsphere = s2\n"
        items = parse_config_items(text, "t")
        assert items == [("sphere", "s1"), ("box", "b1"), ("sphere", "s2")]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\na = 1\n   \n# tail\nb = 2\n"
        assert parse_config_items(text, "t") == [("a", "1"), ("b", "2")]

    def test_value_keeps_internal_spaces(self):
        items = parse_config_items("dims = 16 16 16\n", "t")
        assert items == [("dims", "16 16 16")]

    def test_value_may_contain_equals(self):
        items = parse_config_items("expr = a=b\n", "t")
        assert items == [("expr", "a=b")]

    def test_missing_equals_rejected_with_location(self):
        with pytest.raises(InputError, match=r"cfg:2"):
            parse_config_items("a = 1\nnonsense\n", "cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(InputError, match="empty key"):
            parse_config_items("= 1\n", "t")

    def test_empty_text_gives_no_items(self):
        assert parse_config_items("", "t") == []

    def test_repeated_key_kept_per_occurrence(self):
        items = parse_config_items("a = 1\nb = 3\na = 2\n", "t")
        assert items == [("a", "1"), ("b", "3"), ("a", "2")]
        assert dict(items) == {"a": "2", "b": "3"}


class TestReadFiles:
    def test_round_trip_through_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\nb = 2 3\n")
        assert read_config_items(p) == [("a", "1"), ("b", "2 3")]

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read config file"):
            read_config_items(tmp_path / "absent.cfg")

    def test_error_names_the_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("a = 1\nbroken line\n")
        with pytest.raises(InputError, match="bad.cfg:2"):
            read_config_items(p)
