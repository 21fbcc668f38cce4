"""Word-expression syntax errors: each message and the position it names."""

import pytest

from znfree.wordexpr import WordSyntaxError, parse_word


@pytest.mark.parametrize("text, message, pos", [
    ("a * #", "unexpected character '#'", 4),
    ("b*a^c", "exponent must be an integer", 4),
    ("a^", "exponent must be an integer", 2),
    ("a*b^1000001", "exponent too large", 4),
    ("a*q", "unknown symbol 'q'", 2),
    ("a*(b*a", "missing ')'", 2),
    ("a*)", "unexpected token ')'", 2),
    ("^2", "unexpected token '^'", 0),
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("a*b)z", "trailing input", 3),
    ("a*", "unexpected end of input", 2),
])
def test_syntax_error_names_its_message_and_position(t1, text, message,
                                                     pos):
    with pytest.raises(WordSyntaxError) as ei:
        parse_word(t1, text)
    assert ei.value.pos == pos
    assert str(ei.value) == f"{message} (at position {pos})"
