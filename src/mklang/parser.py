"""Lexer and recursive-descent parser for the toy language.

Grammar (informally):

    program   := classDef* sequence
    classDef  := "class" IDENT ("extends" IDENT)? "[" ("|" IDENT* "|")? methodDef* "]"
    methodDef := pattern "[" ("|" IDENT* "|")? sequence "]"
    sequence  := statement ("." statement)* "."?
    statement := "^" expr | expr
    expr      := IDENT ":=" expr | keywordSend
    block     := "[" (":"IDENT)* "|"? sequence? "]"

Comments are double-quoted, Smalltalk style. Parsing produces no partial
results: any malformed input raises MkSyntaxError with a span.
Only bracket nesting recurses (see MAX_NESTING); send chains are loops.

Each node takes the next id from one process-wide counter as it is
finished, children before their parent. So the ids of any subtree are
exactly the interval from its leftmost leaf's id to its root's, and a
method's record needs no map of its nodes (`nodes.id_interval`). Two
parses that drew ids at once would break that, so `parse` and
`parse_method` hold one module lock: two interpreters in two threads
parse one after the other.

`tokenize` answers four parallel lists (types, texts, starts, ends), and
the parser names a token by its position in them. Strings and ints are
not tracked by the cyclic GC, so a tokenize leaves it four lists however
long the source is. A token object, or a tuple, would be one more
tracked object per token, alive until the parse ends: on a large source
the young generations fill with them, and every collection the parse
triggers (or that a host triggers while its heap is large) traverses
them again. Every occurrence of one identifier, keyword or binary
operator is one string object, which each node that names it shares.
"""

from __future__ import annotations

import itertools
import threading

from .errors import MkSyntaxError
from .nodes import (
    ASSIGNMENT, BLOCK, CLASS_DEF, LITERAL, LITERAL_ARRAY, MESSAGE_SEND,
    METHOD_DEF, RETURN, SELF_REF, SEQUENCE, TEMP_DECL, VAR_READ,
    AstNode, Program, SourceSpan,
)
from .values import Symbol

BINOP_CHARS = set("+-*/\\~<>=&@%,?!")
PUNCTUATION = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
               "^": "caret", ".": "dot", "|": "pipe"}

# Node ids are unique in the process, not only per parse: a link keeps its
# sites as node ids, and may sit on nodes of several interpreters. A parse
# draws them only while it holds _PARSING, so its ids are contiguous.
_NODE_IDS = itertools.count(1)
_PARSING = threading.Lock()

# Deepest nesting of parentheses, blocks and assignments the parser
# accepts. Each level costs up to eight frames of this recursive-descent
# parser, so the limit keeps a legal program clear of Python's recursion
# limit.
MAX_NESTING = 100
RESERVED = {"class", "extends", "self", "super", "true", "false", "nil"}
CONSTANTS = {"true": True, "false": False, "nil": None}


def tokenize(source: str, file: str = "<string>"):
    """The tokens of `source` as four parallel lists, `(types, texts,
    starts, ends)`: token k has type `types[k]`, text `texts[k]` and
    source range `starts[k]..ends[k]`. The last token is an eof. Equal
    identifier, keyword and binop texts are one string object."""
    types, texts, starts, ends = [], [], [], []
    names = {}
    add_type, add_text = types.append, texts.append
    add_start, add_end = starts.append, ends.append
    i, n = 0, len(source)

    def err(msg, at):
        raise MkSyntaxError(msg, SourceSpan(at, min(at + 1, n), file))

    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        # Each branch leaves `i` at the end of its token.
        type_ = PUNCTUATION.get(c)
        if type_ is not None:
            text = c
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if source.startswith(":", j) and not source.startswith(":=", j):
                type_ = "keyword"
                j += 1
                text = source[i:j]
            else:
                text = source[i:j]
                type_ = text if text in RESERVED else "ident"
            text = names.setdefault(text, text)
            i = j
        elif c.isdecimal():
            j = i + 1
            while j < n and source[j].isdecimal():
                j += 1
            type_, text, i = "int", source[i:j], j
        elif c in BINOP_CHARS:
            j = i + 1
            while j < n and source[j] in BINOP_CHARS:
                j += 1
            text = source[i:j]
            type_, text, i = "binop", names.setdefault(text, text), j
        elif c == ":":
            if source.startswith(":=", i):
                type_, text, i = "assign", ":=", i + 2
            else:
                type_, text, i = "colon", ":", i + 1
        elif c == '"':  # comment
            j = source.find('"', i + 1)
            if j < 0:
                err("unterminated comment", i)
            i = j + 1
            continue
        elif c == "'":
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
            type_, text, i = "string", "".join(buf), j + 1
        elif c == "#":
            j = i + 1
            if j < n and source[j] == "(":
                type_, text, i = "litarray", "#(", i + 2
            elif j < n and (source[j].isalpha() or source[j] == "_"):
                while j < n and (source[j].isalnum() or source[j] in "_:"):
                    j += 1
                type_, text, i = "symbol", source[i + 1:j], j
            elif j < n and source[j] in BINOP_CHARS:
                while j < n and source[j] in BINOP_CHARS:
                    j += 1
                type_, text, i = "symbol", source[i + 1:j], j
            else:
                err("malformed symbol literal", i)
        else:
            err("unexpected character %r" % c, i)
        add_type(type_)
        add_text(text)
        add_start(start)
        add_end(i)
    types.append("eof")
    texts.append("")
    starts.append(n)
    ends.append(n)
    return types, texts, starts, ends


class Parser:
    """Recursive descent over the lists of `tokenize`. A token is its
    position in them: `expect` and `node` take and answer positions."""

    def __init__(self, source, file="<string>"):
        self.source = source
        self.file = file
        types, texts, starts, ends = tokenize(source, file)
        # A second eof after the first: the token after the current one is
        # always there, so a peek is a single index with no bounds check.
        types.append("eof")
        texts.append("")
        starts.append(starts[-1])
        ends.append(ends[-1])
        self.types = types
        self.texts = texts
        self.starts = starts
        self.ends = ends
        self.pos = 0
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def at(self, type_):
        return self.types[self.pos] == type_

    def next_text(self):
        """The text of the current token, which it consumes."""
        pos = self.pos
        self.pos = pos + 1
        return self.texts[pos]

    def expect(self, type_, what=None):
        """Consume the current token, of type `type_`; answer its
        position."""
        pos = self.pos
        if self.types[pos] != type_:
            self.error("expected %s, found %r" % (
                what or type_, self.texts[pos] or "end of input"))
        self.pos = pos + 1
        return pos

    def error(self, msg):
        pos = self.pos
        raise MkSyntaxError(msg, SourceSpan(self.starts[pos], self.ends[pos],
                                            self.file))

    def node(self, kind, start_pos, children=(), **kw):
        """A node spanning the token at `start_pos` up to the last token
        consumed, numbered after `children`, which are numbered already.
        (Before any token is consumed, index -1 reads the sentinel eof: the
        input holds no other token.)"""
        end = self.ends[self.pos - 1]
        start = self.starts[start_pos]
        return AstNode(kind, start, end if end > start else start, self.file,
                       next(_NODE_IDS), children, **kw)

    def leaf(self, kind, var_name=None, value=None):
        """A node of the current token, which it consumes."""
        pos = self.pos
        self.pos = pos + 1
        return AstNode(kind, self.starts[pos], self.ends[pos], self.file,
                       next(_NODE_IDS), (), None, var_name, value)

    def nest(self, open_pos):
        """Enter one nesting level opened by the token at `open_pos`; the
        caller leaves it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MkSyntaxError(
                "nesting deeper than %d levels" % MAX_NESTING,
                SourceSpan(self.starts[open_pos], self.ends[open_pos],
                           self.file))

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        classes = []
        while self.at("class"):
            classes.append(self.parse_class())
        decl = self.parse_temp_decl() if self.at("pipe") else None
        main = self.parse_sequence(stop="eof")
        if decl is not None:    # numbered before the statements it heads
            main.children = [decl, *main.children]
            main.temps = decl.temps
        self.expect("eof", "end of input")
        return Program(classes=classes, main=main, source=self.source)

    def parse_class(self):
        start = self.expect("class")
        name = self.texts[self.expect("ident", "class name")]
        superclass = None
        if self.at("extends"):
            self.pos += 1
            superclass = self.texts[self.expect("ident", "superclass name")]
        self.expect("lbracket", "'['")
        children = []
        slots = []
        if self.at("pipe"):
            decl = self.parse_temp_decl()
            slots = decl.temps
            children.append(decl)
        while not self.at("rbracket"):
            children.append(self.parse_method())
        self.expect("rbracket", "']'")
        return self.node(CLASS_DEF, start, children, name=name,
                         superclass=superclass, temps=slots)

    def parse_temp_decl(self):
        start = self.expect("pipe")
        names = []
        while self.at("ident"):
            names.append(self.next_text())
        self.expect("pipe", "'|'")
        return self.node(TEMP_DECL, start, temps=names)

    def parse_method(self):
        start = self.pos
        selector, params = self.parse_pattern()
        self.expect("lbracket", "'['")
        temps = []
        children = []
        if self.at("pipe"):
            decl = self.parse_temp_decl()
            temps = decl.temps
            children.append(decl)
        body = self.parse_sequence(stop="rbracket")
        children.append(body)
        self.expect("rbracket", "']'")
        return self.node(METHOD_DEF, start, children, selector=selector,
                         params=params, temps=temps)

    def parse_pattern(self):
        type_ = self.types[self.pos]
        if type_ == "ident":
            return self.next_text(), []
        if type_ == "binop":
            selector = self.next_text()
            arg = self.texts[self.expect("ident", "binary parameter")]
            return selector, [arg]
        if type_ == "keyword":
            selector = ""
            params = []
            while self.at("keyword"):
                selector += self.next_text()
                params.append(
                    self.texts[self.expect("ident", "keyword parameter")])
            return selector, params
        self.error("expected a method pattern")

    def parse_sequence(self, stop):
        types = self.types
        start = self.pos
        stmts = []
        while types[self.pos] != stop:
            stmts.append(self.parse_statement())
            type_ = types[self.pos]
            if type_ == "dot":
                self.pos += 1
            elif type_ != stop:
                self.error("expected '.' or end of sequence")
        return self.node(SEQUENCE, start, stmts)

    def parse_statement(self):
        start = self.pos
        if self.types[start] == "caret":
            self.pos += 1
            return self.node(RETURN, start, [self.parse_expr()])
        return self.parse_expr()

    def parse_expr(self):
        types = self.types
        start = self.pos
        if types[start] == "ident" and types[start + 1] == "assign":
            self.pos += 2
            self.nest(start)
            rhs = self.parse_expr()
            self.depth -= 1
            return self.node(ASSIGNMENT, start, [rhs],
                             var_name=self.texts[start])
        node = self.parse_binary_send()
        if types[self.pos] != "keyword":
            return node
        selector = ""
        args = [node]
        while types[self.pos] == "keyword":
            selector += self.next_text()
            args.append(self.parse_binary_send())
        return self.node(MESSAGE_SEND, start, args, selector=selector)

    def parse_binary_send(self):
        types = self.types
        start = self.pos
        node = self.parse_unary_send()
        while types[self.pos] == "binop":
            selector = self.next_text()
            node = self.node(MESSAGE_SEND, start,
                             [node, self.parse_unary_send()],
                             selector=selector)
        return node

    def parse_unary_send(self):
        """A primary, then its unary sends."""
        types = self.types
        texts = self.texts
        start = self.pos
        type_ = types[start]
        if type_ == "ident":
            node = self.leaf(VAR_READ, texts[start])
        elif type_ == "self" or type_ == "super":
            node = self.leaf(SELF_REF, texts[start])
        elif type_ == "int":
            node = self.leaf(LITERAL, value=int(texts[start]))
        elif type_ == "string":
            node = self.leaf(LITERAL, value=texts[start])
        elif type_ == "symbol":
            node = self.leaf(LITERAL, value=Symbol(texts[start]))
        elif type_ in CONSTANTS:
            node = self.leaf(LITERAL, value=CONSTANTS[type_])
        elif type_ == "litarray":
            node = self.parse_literal_array()
        elif type_ == "lbracket":
            node = self.parse_block()
        elif type_ == "lparen":
            self.pos += 1
            self.nest(start)
            node = self.parse_expr()
            self.expect("rparen", "')'")
            self.depth -= 1
        else:
            self.error("expected an expression")
        # "class" is a keyword only at definition position; after a primary
        # it reads as the ordinary unary selector.
        while (type_ := types[self.pos]) == "ident" or type_ == "class":
            node = self.node(MESSAGE_SEND, start, [node],
                             selector=self.next_text())
        return node

    def parse_literal_array(self):
        start = self.expect("litarray")
        items = []
        while not self.at("rparen"):
            type_ = self.types[self.pos]
            if type_ == "int":
                items.append(int(self.next_text()))
            elif type_ == "string":
                items.append(self.next_text())
            elif type_ in ("symbol", "ident", "keyword"):
                # Bare words inside #( ) read as symbols, Smalltalk style.
                items.append(Symbol(self.next_text()))
            elif type_ in CONSTANTS:
                self.pos += 1
                items.append(CONSTANTS[type_])
            else:
                self.error("expected a literal inside #( )")
        self.expect("rparen", "')'")
        return self.node(LITERAL_ARRAY, start, value=items)

    def parse_block(self):
        start = self.expect("lbracket")
        self.nest(start)
        params = []
        while self.at("colon"):
            self.pos += 1
            params.append(self.texts[self.expect("ident", "block parameter")])
        if params:
            self.expect("pipe", "'|'")
        elif self.at("pipe"):
            self.pos += 1
        children = []
        if not self.at("rbracket"):
            children.append(self.parse_sequence(stop="rbracket"))
        self.expect("rbracket", "']'")
        self.depth -= 1
        return self.node(BLOCK, start, children, params=params)


def parse(source: str, file: str = "<string>") -> Program:
    """Parse a full program; raises MkSyntaxError on malformed input."""
    with _PARSING:
        return Parser(source, file).parse_program()


def parse_method(source: str, file: str = "<string>") -> AstNode:
    """Parse a single method definition (used by recompile)."""
    with _PARSING:
        p = Parser(source, file)
        method = p.parse_method()
        p.expect("eof", "end of method source")
        return method
