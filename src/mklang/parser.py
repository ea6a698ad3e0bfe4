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
with a span. `node` sets each node's `parent` as it builds the parent.
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

# Node ids are unique in the process, not only per parse: a link keeps its
# sites as node ids, and may sit on nodes of several interpreters.
_NODE_IDS = itertools.count(1)

# Deepest nesting of parentheses, blocks and assignments the parser
# accepts. Each level costs up to eight frames of this recursive-descent
# parser, so the limit keeps a legal program clear of Python's recursion
# limit.
MAX_NESTING = 100
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
    i, n = 0, len(source)

    def err(msg, at):
        raise MkSyntaxError(msg, SourceSpan(at, min(at + 1, n), file))

    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':  # comment
            j = i + 1
            while j < n and source[j] != '"':
                j += 1
            if j >= n:
                err("unterminated comment", i)
            i = j + 1
            continue
        start = i
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if j < n and source[j] == ":" and (j + 1 >= n or source[j + 1] != "="):
                toks.append(Token("keyword", word + ":", start, j + 1))
                i = j + 1
            elif word in RESERVED:
                toks.append(Token(word, word, start, j))
                i = j
            else:
                toks.append(Token("ident", word, start, j))
                i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            toks.append(Token("int", source[i:j], start, j))
            i = j
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
            toks.append(Token("string", "".join(buf), start, j + 1))
            i = j + 1
            continue
        if c == "#":
            if i + 1 < n and source[i + 1] == "(":
                toks.append(Token("litarray", "#(", start, i + 2))
                i += 2
                continue
            j = i + 1
            if j < n and (source[j].isalpha() or source[j] == "_"):
                while j < n and (source[j].isalnum() or source[j] in "_:"):
                    j += 1
                toks.append(Token("symbol", source[i + 1:j], start, j))
                i = j
                continue
            if j < n and source[j] in BINOP_CHARS:
                while j < n and source[j] in BINOP_CHARS:
                    j += 1
                toks.append(Token("symbol", source[i + 1:j], start, j))
                i = j
                continue
            err("malformed symbol literal", i)
        if c == ":" and i + 1 < n and source[i + 1] == "=":
            toks.append(Token("assign", ":=", start, i + 2))
            i += 2
            continue
        if c == ":":
            toks.append(Token("colon", ":", start, i + 1))
            i += 1
            continue
        if c in "()[]^.|":
            names = {"(": "lparen", ")": "rparen", "[": "lbracket",
                     "]": "rbracket", "^": "caret", ".": "dot", "|": "pipe"}
            toks.append(Token(names[c], c, start, i + 1))
            i += 1
            continue
        if c in BINOP_CHARS:
            j = i
            while j < n and source[j] in BINOP_CHARS:
                j += 1
            toks.append(Token("binop", source[i:j], start, j))
            i = j
            continue
        err("unexpected character %r" % c, i)
    toks.append(Token("eof", "", n, n))
    return toks


class Parser:
    def __init__(self, source, file="<string>"):
        self.source = source
        self.file = file
        self.tokens = tokenize(source, file)
        self.pos = 0
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, k=0):
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at(self, *types):
        return self.peek().type in types

    def expect(self, type_, what=None):
        tok = self.peek()
        if tok.type != type_:
            self.error("expected %s, found %r" % (what or type_,
                                                  tok.text or "end of input"))
        return self.next()

    def error(self, msg):
        tok = self.peek()
        raise MkSyntaxError(msg, SourceSpan(tok.start, tok.end, self.file))

    def span(self, start_tok, end_tok=None):
        end = (end_tok or self.tokens[max(self.pos - 1, 0)]).end
        return SourceSpan(start_tok.start, max(end, start_tok.start), self.file)

    def node(self, kind, start_tok, **kw):
        node = AstNode(kind, self.span(start_tok), next(_NODE_IDS), **kw)
        for child in node.children:
            child.parent = node
        return node

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
            main.children.insert(0, decl)
            main.temps = list(decl.temps)
            decl.parent = main
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
        return self.node(CLASS_DEF, start, name=name, superclass=superclass,
                         temps=slots, children=children)

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
        return self.node(METHOD_DEF, start, selector=selector, params=params,
                         temps=temps, children=children)

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
        start = self.peek()
        stmts = []
        while not self.at(stop):
            stmts.append(self.parse_statement())
            if self.at("dot"):
                self.next()
            elif not self.at(stop):
                self.error("expected '.' or end of sequence")
        return self.node(SEQUENCE, start, children=stmts)

    def parse_statement(self):
        if self.at("caret"):
            start = self.next()
            expr = self.parse_expr()
            return self.node(RETURN, start, children=[expr])
        return self.parse_expr()

    def parse_expr(self):
        if self.at("ident") and self.peek(1).type == "assign":
            start = self.next()
            self.next()  # :=
            self.nest(start)
            rhs = self.parse_expr()
            self.depth -= 1
            return self.node(ASSIGNMENT, start, var_name=start.text,
                             children=[rhs])
        return self.parse_keyword_send()

    def parse_keyword_send(self):
        start = self.peek()
        recv = self.parse_binary_send()
        if not self.at("keyword"):
            return recv
        selector = ""
        args = []
        while self.at("keyword"):
            selector += self.next().text
            args.append(self.parse_binary_send())
        return self.node(MESSAGE_SEND, start, selector=selector,
                         children=[recv] + args)

    def parse_binary_send(self):
        start = self.peek()
        node = self.parse_unary_send()
        while self.at("binop"):
            op = self.next().text
            arg = self.parse_unary_send()
            node = self.node(MESSAGE_SEND, start, selector=op,
                             children=[node, arg])
        return node

    def parse_unary_send(self):
        start = self.peek()
        node = self.parse_primary()
        # "class" is a keyword only at definition position; after a primary
        # it reads as the ordinary unary selector.
        while self.at("ident", "class"):
            sel = self.next().text
            node = self.node(MESSAGE_SEND, start, selector=sel,
                             children=[node])
        return node

    def parse_primary(self):
        tok = self.peek()
        if tok.type == "ident":
            self.next()
            return self.node(VAR_READ, tok, var_name=tok.text)
        if tok.type in ("self", "super"):
            self.next()
            return self.node(SELF_REF, tok, var_name=tok.text)
        if tok.type == "int":
            self.next()
            return self.node(LITERAL, tok, value=int(tok.text))
        if tok.type == "string":
            self.next()
            return self.node(LITERAL, tok, value=tok.text)
        if tok.type == "symbol":
            self.next()
            return self.node(LITERAL, tok, value=Symbol(tok.text))
        if tok.type in ("true", "false"):
            self.next()
            return self.node(LITERAL, tok, value=(tok.type == "true"))
        if tok.type == "nil":
            self.next()
            return self.node(LITERAL, tok, value=None)
        if tok.type == "litarray":
            return self.parse_literal_array()
        if tok.type == "lbracket":
            return self.parse_block()
        if tok.type == "lparen":
            self.next()
            self.nest(tok)
            expr = self.parse_expr()
            self.expect("rparen", "')'")
            self.depth -= 1
            return expr
        self.error("expected an expression")

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
        return self.node(BLOCK, start, params=params, children=children)


def parse(source: str, file: str = "<string>") -> Program:
    """Parse a full program; raises MkSyntaxError on malformed input."""
    return Parser(source, file).parse_program()


def parse_method(source: str, file: str = "<string>") -> AstNode:
    """Parse a single method definition (used by recompile)."""
    p = Parser(source, file)
    method = p.parse_method()
    p.expect("eof", "end of method source")
    return method
