"""Lexer and recursive-descent parser for the toy language.

Grammar (informally):

    program   := classDef* sequence
    classDef  := "class" IDENT ("extends" IDENT)? "[" ("|" IDENT* "|")? methodDef* "]"
    methodDef := pattern "[" ("|" IDENT* "|")? sequence "]"
    sequence  := statement ("." statement)* "."?
    statement := "^" expr | expr
    expr      := IDENT ":=" expr | keywordSend
    block     := "[" (":"IDENT)* "|"? sequence? "]"

Comments are double-quoted, Smalltalk style. Parsing is reentrant and
produces no partial results: any malformed input raises MkSyntaxError
with a span. `node` sets each child's `parent` to the id of the node it
builds, so a tree holds no reference cycle.
Only bracket nesting recurses (see MAX_NESTING); send chains are loops.
"""

from __future__ import annotations

import itertools

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
# sites as node ids, and may sit on nodes of several interpreters.
_NODE_IDS = itertools.count(1)

# Deepest nesting of parentheses, blocks and assignments the parser
# accepts. Each level costs up to eight frames of this recursive-descent
# parser, so the limit keeps a legal program clear of Python's recursion
# limit.
MAX_NESTING = 100
RESERVED = {"class", "extends", "self", "super", "true", "false", "nil"}
CONSTANTS = {"true": True, "false": False, "nil": None}


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


class Parser:
    def __init__(self, source, file="<string>"):
        self.source = source
        self.file = file
        tokens = tokenize(source, file)
        # A second eof after the first: the token after the current one is
        # always there, so a peek is a single index with no bounds check.
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, type_):
        return self.tokens[self.pos].type == type_

    def expect(self, type_, what=None):
        tok = self.tokens[self.pos]
        if tok.type != type_:
            self.error("expected %s, found %r" % (what or type_,
                                                  tok.text or "end of input"))
        self.pos += 1
        return tok

    def error(self, msg):
        tok = self.peek()
        raise MkSyntaxError(msg, SourceSpan(tok.start, tok.end, self.file))

    def node(self, kind, start_tok, children=(), **kw):
        """A node spanning `start_tok` up to the last token consumed, whose
        id each of `children` takes as its `parent`. (Before any token is
        consumed, index -1 reads the sentinel eof: the input holds no other
        token.)"""
        end = self.tokens[self.pos - 1].end
        start = start_tok.start
        node_id = next(_NODE_IDS)
        if children:
            for child in children:
                child.parent = node_id
        return AstNode(kind, start, end if end > start else start, self.file,
                       node_id, children, **kw)

    def leaf(self, tok, kind, var_name=None, value=None):
        """A node of the one token `tok`, which it consumes."""
        self.pos += 1
        return AstNode(kind, tok.start, tok.end, self.file, next(_NODE_IDS),
                       (), None, var_name, value)

    def nest(self, open_tok):
        """Enter one nesting level opened by `open_tok`; the caller leaves
        it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MkSyntaxError(
                "nesting deeper than %d levels" % MAX_NESTING,
                SourceSpan(open_tok.start, open_tok.end, self.file))

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        classes = []
        while self.at("class"):
            classes.append(self.parse_class())
        decl = self.parse_temp_decl() if self.at("pipe") else None
        main = self.parse_sequence(stop="eof")
        if decl is not None:
            main.children = [decl, *main.children]
            main.temps = decl.temps
            decl.parent = main.id
        self.expect("eof", "end of input")
        return Program(classes=classes, main=main, source=self.source)

    def parse_class(self):
        start = self.expect("class")
        name = self.expect("ident", "class name").text
        superclass = None
        if self.at("extends"):
            self.next()
            superclass = self.expect("ident", "superclass name").text
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
            names.append(self.next().text)
        self.expect("pipe", "'|'")
        return self.node(TEMP_DECL, start, temps=names)

    def parse_method(self):
        start = self.peek()
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
        tok = self.peek()
        if tok.type == "ident":
            self.next()
            return tok.text, []
        if tok.type == "binop":
            self.next()
            arg = self.expect("ident", "binary parameter").text
            return tok.text, [arg]
        if tok.type == "keyword":
            selector = ""
            params = []
            while self.at("keyword"):
                selector += self.next().text
                params.append(self.expect("ident", "keyword parameter").text)
            return selector, params
        self.error("expected a method pattern")

    def parse_sequence(self, stop):
        tokens = self.tokens
        start = tokens[self.pos]
        stmts = []
        while tokens[self.pos].type != stop:
            stmts.append(self.parse_statement())
            type_ = tokens[self.pos].type
            if type_ == "dot":
                self.pos += 1
            elif type_ != stop:
                self.error("expected '.' or end of sequence")
        return self.node(SEQUENCE, start, stmts)

    def parse_statement(self):
        start = self.tokens[self.pos]
        if start.type == "caret":
            self.pos += 1
            return self.node(RETURN, start, [self.parse_expr()])
        return self.parse_expr()

    def parse_expr(self):
        tokens = self.tokens
        start = tokens[self.pos]
        if start.type == "ident" and tokens[self.pos + 1].type == "assign":
            self.pos += 2
            self.nest(start)
            rhs = self.parse_expr()
            self.depth -= 1
            return self.node(ASSIGNMENT, start, [rhs], var_name=start.text)
        node = self.parse_binary_send()
        if tokens[self.pos].type != "keyword":
            return node
        selector = ""
        args = [node]
        while (tok := tokens[self.pos]).type == "keyword":
            self.pos += 1
            selector += tok.text
            args.append(self.parse_binary_send())
        return self.node(MESSAGE_SEND, start, args, selector=selector)

    def parse_binary_send(self):
        tokens = self.tokens
        start = tokens[self.pos]
        node = self.parse_unary_send()
        while (tok := tokens[self.pos]).type == "binop":
            self.pos += 1
            node = self.node(MESSAGE_SEND, start,
                             [node, self.parse_unary_send()], selector=tok.text)
        return node

    def parse_unary_send(self):
        """A primary, then its unary sends."""
        tokens = self.tokens
        start = tok = tokens[self.pos]
        type_ = tok.type
        if type_ == "ident":
            node = self.leaf(tok, VAR_READ, tok.text)
        elif type_ == "self" or type_ == "super":
            node = self.leaf(tok, SELF_REF, tok.text)
        elif type_ == "int":
            node = self.leaf(tok, LITERAL, value=int(tok.text))
        elif type_ == "string":
            node = self.leaf(tok, LITERAL, value=tok.text)
        elif type_ == "symbol":
            node = self.leaf(tok, LITERAL, value=Symbol(tok.text))
        elif type_ in CONSTANTS:
            node = self.leaf(tok, LITERAL, value=CONSTANTS[type_])
        elif type_ == "litarray":
            node = self.parse_literal_array()
        elif type_ == "lbracket":
            node = self.parse_block()
        elif type_ == "lparen":
            self.pos += 1
            self.nest(tok)
            node = self.parse_expr()
            self.expect("rparen", "')'")
            self.depth -= 1
        else:
            self.error("expected an expression")
        # "class" is a keyword only at definition position; after a primary
        # it reads as the ordinary unary selector.
        while (tok := tokens[self.pos]).type == "ident" or tok.type == "class":
            self.pos += 1
            node = self.node(MESSAGE_SEND, start, [node], selector=tok.text)
        return node

    def parse_literal_array(self):
        start = self.expect("litarray")
        items = []
        while not self.at("rparen"):
            tok = self.peek()
            if tok.type == "int":
                items.append(int(self.next().text))
            elif tok.type == "string":
                items.append(self.next().text)
            elif tok.type == "symbol":
                items.append(Symbol(self.next().text))
            elif tok.type in ("ident", "keyword"):
                # Bare words inside #( ) read as symbols, Smalltalk style.
                items.append(Symbol(self.next().text))
            elif tok.type == "true":
                self.next()
                items.append(True)
            elif tok.type == "false":
                self.next()
                items.append(False)
            elif tok.type == "nil":
                self.next()
                items.append(None)
            else:
                self.error("expected a literal inside #( )")
        self.expect("rparen", "')'")
        return self.node(LITERAL_ARRAY, start, value=items)

    def parse_block(self):
        start = self.expect("lbracket")
        self.nest(start)
        params = []
        while self.at("colon"):
            self.next()
            params.append(self.expect("ident", "block parameter").text)
        if params:
            self.expect("pipe", "'|'")
        elif self.at("pipe"):
            self.next()
        children = []
        if not self.at("rbracket"):
            children.append(self.parse_sequence(stop="rbracket"))
        self.expect("rbracket", "']'")
        self.depth -= 1
        return self.node(BLOCK, start, children, params=params)


def parse(source: str, file: str = "<string>") -> Program:
    """Parse a full program; raises MkSyntaxError on malformed input."""
    return Parser(source, file).parse_program()


def parse_method(source: str, file: str = "<string>") -> AstNode:
    """Parse a single method definition (used by recompile)."""
    p = Parser(source, file)
    method = p.parse_method()
    p.expect("eof", "end of method source")
    return method
