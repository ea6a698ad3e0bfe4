"""The lexer's flat token lists against the token-object lexer it
replaced (`reference_lexer`), and what a tokenize allocates."""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import mklang.parser as mk_parser
from mklang.bench import synthetic_corpus
from mklang.errors import MkSyntaxError
from mklang.kernel import KERNEL_SOURCE
from mklang.listings import run_all
from mklang.parser import BINOP_CHARS, tokenize
from progen import gen_program
import reference_lexer

# Letters and digits beyond ASCII (`²` is a digit but not decimal, `٣` is
# decimal), spaces beyond ASCII (no-break space, `\x1c`), and every
# character that starts or continues a token.
ALPHABET = sorted(set("abzX_019 \n\t²ß٣\xa0\x1c:#'\"()[]^.|")
                  | BINOP_CHARS)


def lex(tokenizer, source):
    """`(type, text, start, end)` of each token, or the error's message
    and span."""
    try:
        return tokenizer(source, "<lexed>")
    except MkSyntaxError as exc:
        return "error", exc.args[0], exc.span


def flat(source, file):
    return list(zip(*tokenize(source, file)))


def objects(source, file):
    return [(t.type, t.text, t.start, t.end)
            for t in reference_lexer.tokenize(source, file)]


def assert_same_tokens(source):
    assert lex(flat, source) == lex(objects, source), source


def listing_sources(monkeypatch):
    """Every source the bundled listings parse."""
    seen = []
    monkeypatch.setattr(mk_parser, "tokenize",
                        lambda source, file="<string>":
                        seen.append(source) or tokenize(source, file))
    assert all(result.passed for result in run_all())
    return seen


def test_listings_kernel_and_generated_programs_lex_as_before(monkeypatch):
    listings = listing_sources(monkeypatch)
    assert len(listings) >= 7
    for source in listings + [KERNEL_SOURCE] + [
            gen_program(random.Random(seed))[0] for seed in range(50)]:
        assert_same_tokens(source)


def test_tokenizer_errors_as_before():
    for source in ["'open", '"open', "#", "# x", "#)", "a $ b", "²",
                   "x := 'a'' b", "\"a\" \"b", "3 + ٣ ²"]:
        assert_same_tokens(source)
    assert lex(flat, "x := 'a'' b")[0] == "error"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(ALPHABET), max_size=60))
def test_random_text_lexes_as_before(source):
    assert_same_tokens(source)


def test_tokenize_tracks_no_object_per_token():
    """Strings and ints are not tracked by the cyclic GC, so the four
    lists (and the tuple holding them) are all a tokenize leaves for it
    to traverse, however many tokens the source has."""
    source = synthetic_corpus(1200)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tokens = tokenize(source)
        tracked = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert 9000 < len(tokens[0]) < 12000
    assert tracked <= 8, tracked


def test_equal_names_are_one_string_object():
    """Every occurrence of one identifier, keyword or binary operator is
    one string object, and so is each node's name taken from it."""
    source = ("count := count ++ 10. count at: 1 put: count. "
              "count at: 2 put: 3 ++ 4. total ++ total")
    types, texts, _, _ = tokenize(source)
    first = {}
    names = 0
    for type_, text in zip(types, texts):
        if type_ in ("ident", "keyword", "binop"):
            assert first.setdefault(text, text) is text
            names += 1
    assert len(first) == 5 and names == 14
    named = [n.var_name for n in mk_parser.parse(source).main.walk()
             if n.var_name == "count"]
    assert len(named) == 5 and all(r is named[0] for r in named)
