"""The token-object lexer that `mklang.parser.tokenize` replaced, kept as
the reference its flat lists are checked against.

Each token is a `Token` with a type, a text and a source range; the
stream ends with one eof token. The rules are the ones the parser's
lexer follows, and so are the `MkSyntaxError` messages and spans.
"""

from mklang.errors import MkSyntaxError
from mklang.nodes import SourceSpan

# The lexer's character classes as they stood, copied so that a change to
# the parser's own tables shows as a difference.
BINOP_CHARS = set("+-*/\\~<>=&@%,?!")
PUNCTUATION = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
               "^": "caret", ".": "dot", "|": "pipe"}
RESERVED = {"class", "extends", "self", "super", "true", "false", "nil"}


class Token:
    __slots__ = ("type", "text", "start", "end")

    def __init__(self, type_, text, start, end):
        self.type = type_
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return "Token(%s, %r)" % (self.type, self.text)


def tokenize(source: str, file: str = "<string>"):
    toks = []
    append = toks.append
    i, n = 0, len(source)

    def err(msg, at):
        raise MkSyntaxError(msg, SourceSpan(at, min(at + 1, n), file))

    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        kind = PUNCTUATION.get(c)
        if kind is not None:
            append(Token(kind, c, start, i + 1))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if source.startswith(":", j) and not source.startswith(":=", j):
                append(Token("keyword", word + ":", start, j + 1))
                i = j + 1
            else:
                append(Token(word if word in RESERVED else "ident", word,
                             start, j))
                i = j
            continue
        if c.isdecimal():
            j = i + 1
            while j < n and source[j].isdecimal():
                j += 1
            append(Token("int", source[i:j], start, j))
            i = j
            continue
        if c in BINOP_CHARS:
            j = i + 1
            while j < n and source[j] in BINOP_CHARS:
                j += 1
            append(Token("binop", source[i:j], start, j))
            i = j
            continue
        if c == ":":
            if source.startswith(":=", i):
                append(Token("assign", ":=", start, i + 2))
                i += 2
            else:
                append(Token("colon", ":", start, i + 1))
                i += 1
            continue
        if c == '"':  # comment
            j = source.find('"', i + 1)
            if j < 0:
                err("unterminated comment", i)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            buf = []
            while j < n:
                if source[j] == "'":
                    if j + 1 < n and source[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(source[j])
                j += 1
            if j >= n:
                err("unterminated string", i)
            append(Token("string", "".join(buf), start, j + 1))
            i = j + 1
            continue
        if c == "#":
            if i + 1 < n and source[i + 1] == "(":
                append(Token("litarray", "#(", start, i + 2))
                i += 2
                continue
            j = i + 1
            if j < n and (source[j].isalpha() or source[j] == "_"):
                while j < n and (source[j].isalnum() or source[j] in "_:"):
                    j += 1
                append(Token("symbol", source[i + 1:j], start, j))
                i = j
                continue
            if j < n and source[j] in BINOP_CHARS:
                while j < n and source[j] in BINOP_CHARS:
                    j += 1
                append(Token("symbol", source[i + 1:j], start, j))
                i = j
                continue
            err("malformed symbol literal", i)
        err("unexpected character %r" % c, i)
    append(Token("eof", "", n, n))
    return toks
