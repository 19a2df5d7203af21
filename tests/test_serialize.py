import json

import pytest

from octavib._serialize import dumps


class TestStrings:
    def test_control_characters_round_trip(self):
        doc = {"k": "a\nb\x01\t"}
        assert json.loads(dumps(doc)) == doc

    def test_escapes_match_json_dumps(self):
        text = "".join(chr(c) for c in range(0x20)) + '"\\ D_2^{D_1} x S_4^p'
        assert dumps(text) == json.dumps(text)
        assert json.loads(dumps(text)) == text

    def test_keys_are_escaped(self):
        assert dumps({"a\tb": 1}) == '{"a\\tb":1}'


class TestNumbers:
    def test_floats(self):
        got = dumps([1.0, 0.1, -2.5e-20])
        assert got == "[1.0,0.10000000000000001,-2.4999999999999999e-20]"

    def test_non_finite_refused(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
