"""Concrete syntax.

Declarations:
    type NAME [params] = TYPE          (transparent synonym)
    term NAME [: TYPE] = TERM
    rel NAME : Rel(TYPE, TYPE)         (abstract relation variable)
    rel NAME : AdmRel(TYPE, TYPE)
    rel NAME = RELATION                (definition)

Directives: #check t | #normalize t | #equal t == u | #admissible R
            | #schema KIND PAYLOAD.  Any other `#` starts a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import syntax as S
from .syntax import Flavor, Span

DIRECTIVES = ("check", "normalize", "equal", "admissible", "schema")
KEYWORDS = {"all", "ex", "fn", "lam", "let", "in", "Y", "I", "T", "F",
            "Rel", "AdmRel", "term", "type", "rel"}

_SYMBOLS = ["(*)", "-o", "->", "/\\", "\\/", "=>", "==", "=_", "<>",
            "[", "]", "(", ")", "{", "}", ".", ",", ":", "=", "*", "!", "-",
            "+", "0", "1"]


@dataclass(frozen=True)
class Tok:
    kind: str      # "ident", "kw", "dir", or the symbol itself
    text: str
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


@dataclass
class Diagnostic:
    severity: str
    message: str
    span: Span

    def render(self, text: str | None = None) -> str:
        loc = f"{self.span.start}..{self.span.end}"
        if text is not None:
            line = text.count("\n", 0, self.span.start) + 1
            col = self.span.start - (text.rfind("\n", 0, self.span.start) + 1) + 1
            loc = f"{line}:{col}"
        return f"{self.severity}: {loc}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i + 1:j]
            if word in DIRECTIVES:
                toks.append(Tok("dir", word, i, j))
                i = j
                continue
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            toks.append(Tok("kw" if word in KEYWORDS else "ident", word, i, j))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Tok(sym, sym, i, i + len(sym)))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", Span(i, i + 1))
    toks.append(Tok("eof", "", n, n))
    return toks


# ---------------------------------------------------------------------------
# Signature: what the parser needs from earlier declarations


@dataclass
class Signature:
    """Names visible to the parser: type synonyms and relation variables."""

    types: dict[str, tuple[tuple[str, ...], S.Type]] = field(default_factory=dict)
    rels: dict[str, tuple[S.Type, S.Type, Flavor, Optional[S.Relation]]] = \
        field(default_factory=dict)
    terms: dict[str, S.Type] = field(default_factory=dict)


# Declarations


@dataclass
class TypeDecl:
    name: str
    params: tuple[str, ...]
    body: S.Type
    span: Span


@dataclass
class TermDecl:
    name: str
    claimed: Optional[S.Type]
    body: S.Term
    span: Span


@dataclass
class RelDecl:
    name: str
    dom: Optional[S.Type]
    cod: Optional[S.Type]
    flavor: Optional[Flavor]
    body: Optional[S.Relation]
    span: Span


@dataclass
class Directive:
    name: str
    payload: tuple
    span: Span


Decl = TypeDecl | TermDecl | RelDecl | Directive


@dataclass
class SourceFile:
    decls: list[Decl]
    signature: Signature


class Parser:
    def __init__(self, toks: list[Tok], sig: Signature | None = None,
                 extended_types: bool = False):
        self.toks = toks
        self.pos = 0
        self.sig = sig or Signature()
        # sugar for encode arguments: s + t, 0, 1 and N
        self.extended_types = extended_types
        # relation variables bound by enclosing quantifiers, innermost last
        self.rel_scope: dict[str, list[tuple[S.Type, S.Type, Flavor]]] = {}

    # token helpers -------------------------------------------------------

    def peek(self) -> Tok:
        return self.toks[self.pos]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> Tok | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Tok:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        want = text or kind
        got = t.text or t.kind
        raise ParseError(f"expected {want!r}, found {got!r}", t.span)

    def fail(self, msg: str) -> ParseError:
        return ParseError(msg, self.peek().span)

    def parse(self, production: str):
        """Run one production.  The descent recurses once per level of
        nesting, so input nested past Python's stack gets a located
        `nesting too deep` error at the token it reached."""
        try:
            return getattr(self, production)()
        except RecursionError:
            raise self.fail("nesting too deep") from None

    # types ---------------------------------------------------------------

    def type_(self) -> S.Type:
        if self.at("kw", "all"):
            start = self.next()
            name = self.expect("ident").text
            self.expect(".")
            body = self.type_()
            return S.forall(name, body, Span(start.start, self._prev_end()))
        return self._ty_lolli()

    def _ty_lolli(self) -> S.Type:
        left = self._ty_sum()
        if self.eat("-o"):
            return S.Lolli(left, self.type_())
        if self.eat("->"):
            return S.Lolli(S.Bang(left), self.type_())
        return left

    def _ty_sum(self) -> S.Type:
        left = self._ty_tensor()
        if self.extended_types and self.at("+"):
            from .encodings import sum_type
            self.next()
            return sum_type(left, self._ty_sum())
        return left

    def _ty_tensor(self) -> S.Type:
        t = self._ty_bang()
        while self.at("*"):
            self.next()
            t = S.Tensor(t, self._ty_bang())
        return t

    def _ty_bang(self) -> S.Type:
        if self.eat("!"):
            return S.Bang(self._ty_bang())
        return self._ty_atom()

    def _ty_atom(self) -> S.Type:
        t = self.peek()
        if t.kind == "kw" and t.text == "I":
            self.next()
            return S.Unit(span=t.span)
        if self.extended_types and t.kind in ("0", "1"):
            from .encodings import void_type
            self.next()
            return void_type()
        if t.kind == "ident":
            self.next()
            syn = self.sig.types.get(t.text)
            if syn is not None:
                params, body = syn
                args = [self._ty_atom() for _ in params]
                return S.subst_types(body, dict(zip(params, args)))
            if self.extended_types and t.text == "N":
                from .encodings import nat_type
                return nat_type()
            return S.TyVar(t.text, span=t.span)
        if self.eat("("):
            inner = self.type_()
            self.expect(")")
            return inner
        raise ParseError(f"expected a type, found {t.text or t.kind!r}", t.span)

    # terms ---------------------------------------------------------------

    def term(self) -> S.Term:
        t = self.peek()
        if t.kind == "kw" and t.text in ("fn", "lam"):
            self.next()
            name = self.expect("ident").text
            self.expect(":")
            ty = self.type_()
            self.expect(".")
            body = self.term()
            span = Span(t.start, self._prev_end())
            if t.text == "fn":
                return S.lin_lam(name, ty, body, span)
            return S.lam_int(name, ty, body)
        if self.at("/\\"):
            start = self.next()
            name = self.expect("ident").text
            self.expect(".")
            body = self.term()
            return S.ty_lam(name, body, Span(start.start, self._prev_end()))
        if t.kind == "kw" and t.text == "let":
            return self._let()
        return self._tm_tensor()

    def _let(self) -> S.Term:
        start = self.expect("kw", "let")
        if self.eat("<>"):
            self.expect("=")
            scrut = self.term()
            self.expect("kw", "in")
            body = self.term()
            return S.LetStar(scrut, body, Span(start.start, self._prev_end()))
        if self.eat("!"):
            name = self.expect("ident").text
            ann = None
            if self.eat(":"):
                ann = self.type_()
            self.expect("=")
            scrut = self.term()
            self.expect("kw", "in")
            body = self.term()
            return S.let_bang(name, ann, scrut, body,
                              Span(start.start, self._prev_end()))
        x = self.expect("ident").text
        self.expect("(*)")
        y = self.expect("ident").text
        tyx = tyy = None
        if self.eat(":"):
            ann = self.type_()
            if not isinstance(ann, S.Tensor):
                raise ParseError("tensor pattern annotation must be a tensor type",
                                 Span(start.start, self._prev_end()))
            tyx, tyy = ann.left, ann.right
        self.expect("=")
        scrut = self.term()
        self.expect("kw", "in")
        body = self.term()
        return S.let_tensor(x, y, tyx, tyy, scrut, body,
                            Span(start.start, self._prev_end()))

    def _tm_tensor(self) -> S.Term:
        start = self.peek().start
        t = self._tm_app()
        while self.at("(*)"):
            self.next()
            t = S.TensorPair(t, self._tm_app(),
                             Span(start, self._prev_end()))
        return t

    def _tm_app(self) -> S.Term:
        start = self.peek().start
        t = self._tm_bang()
        while True:
            if self.eat("["):
                ty = self.type_()
                self.expect("]")
                t = S.TyApp(t, ty, Span(start, self._prev_end()))
                continue
            if self._starts_tm_atom():
                t = S.App(t, self._tm_bang(), Span(start, self._prev_end()))
                continue
            return t

    def _starts_tm_atom(self) -> bool:
        t = self.peek()
        return (t.kind in ("ident", "(", "<>", "!")
                or (t.kind == "kw" and t.text == "Y"))

    def _tm_bang(self) -> S.Term:
        start = self.peek().start
        if self.eat("!"):
            body = self._tm_bang()
            return S.BangIntro(body, Span(start, self._prev_end()))
        return self._tm_atom()

    def _tm_atom(self) -> S.Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return S.Var(t.text, span=t.span)
        if t.kind == "<>":
            self.next()
            return S.Star(span=t.span)
        if t.kind == "kw" and t.text == "Y":
            self.next()
            return S.Y(span=t.span)
        if self.eat("("):
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {t.text or t.kind!r}", t.span)

    # relations -----------------------------------------------------------

    def rel(self) -> S.Relation:
        save = self.pos
        try:
            return self._compr()
        except ParseError:
            self.pos = save
        try:
            return self._type_rel()
        except ParseError:
            self.pos = save
        t = self.peek()
        if t.kind == "ident" and self.rel_scope.get(t.text):
            self.next()
            dom, cod, flavor = self.rel_scope[t.text][-1]
            return S.RelVar(t.text, dom, cod, flavor, span=t.span)
        if t.kind == "ident" and t.text in self.sig.rels:
            self.next()
            dom, cod, flavor, body = self.sig.rels[t.text]
            if body is not None:
                return body
            return S.RelVar(t.text, dom, cod, flavor, span=t.span)
        if self.eat("("):
            inner = self.rel()
            self.expect(")")
            return inner
        raise ParseError(f"expected a relation, found {t.text or t.kind!r}", t.span)

    def _compr(self) -> S.Relation:
        start = self.expect("(")
        x = self.expect("ident").text
        self.expect(":")
        tyx = self.type_()
        self.expect(",")
        y = self.expect("ident").text
        self.expect(":")
        tyy = self.type_()
        self.expect(")")
        self.expect(".")
        body = self.prop()
        return S.compr(x, tyx, y, tyy, body, Span(start.start, self._prev_end()))

    def _type_rel(self) -> S.Relation:
        ty = self._ty_tensor()
        self.expect("[")
        args = []
        if not self.at("]"):
            args.append(self.rel())
            while self.eat(","):
                args.append(self.rel())
        self.expect("]")
        names = S.free_type_names(ty)
        if len(names) != len(args):
            raise ParseError(
                f"type has {len(names)} free type variable(s) but "
                f"{len(args)} relation(s) were supplied", self.peek().span)
        return S.type_rel(names, ty, args)

    # propositions ---------------------------------------------------------

    def prop(self) -> S.Proposition:
        t = self.peek()
        if t.kind == "kw" and t.text in ("all", "ex"):
            return self._quantifier()
        return self._prop_imp()

    def _quantifier(self) -> S.Proposition:
        kw = self.next().text
        name = self.expect("ident").text
        if self.eat("."):
            body = self.prop()
            return (S.forall_ty_p if kw == "all" else S.exists_ty_p)(name, body)
        self.expect(":")
        t = self.peek()
        if t.kind == "kw" and t.text in ("Rel", "AdmRel"):
            self.next()
            flavor = Flavor.REL if t.text == "Rel" else Flavor.ADMREL
            self.expect("(")
            dom = self.type_()
            self.expect(",")
            cod = self.type_()
            self.expect(")")
            self.expect(".")
            self.rel_scope.setdefault(name, []).append((dom, cod, flavor))
            try:
                body = self.prop()
            finally:
                self.rel_scope[name].pop()
            ctor = S.forall_rel_p if kw == "all" else S.exists_rel_p
            return ctor(name, dom, cod, flavor, body)
        ty = self.type_()
        self.expect(".")
        body = self.prop()
        return (S.forall_tm_p if kw == "all" else S.exists_tm_p)(name, ty, body)

    def _prop_imp(self) -> S.Proposition:
        left = self._prop_or()
        if self.eat("=>"):
            return S.Implies(left, self._prop_imp())
        return left

    def _prop_or(self) -> S.Proposition:
        p = self._prop_and()
        while self.at("\\/"):
            self.next()
            p = S.Or(p, self._prop_and())
        return p

    def _prop_and(self) -> S.Proposition:
        p = self._prop_atom()
        while self.at("/\\"):
            self.next()
            p = S.And(p, self._prop_atom())
        return p

    def _prop_atom(self) -> S.Proposition:
        t = self.peek()
        if t.kind == "kw" and t.text == "T":
            self.next()
            return S.Top(span=t.span)
        if t.kind == "kw" and t.text == "F":
            self.next()
            return S.Bottom(span=t.span)
        save = self.pos
        # relation application
        try:
            rel = self.rel()
            self.expect("(")
            lhs = self.term()
            self.expect(",")
            rhs = self.term()
            self.expect(")")
            return S.RelApp(rel, lhs, rhs)
        except ParseError:
            self.pos = save
        # internal equality
        try:
            lhs = self._tm_tensor()
            self.expect("=_")
            self.expect("{")
            ty = self.type_()
            self.expect("}")
            rhs = self._tm_tensor()
            return S.InternalEq(ty, lhs, rhs)
        except ParseError:
            self.pos = save
        if self.eat("("):
            inner = self.prop()
            self.expect(")")
            return inner
        raise ParseError(f"expected a proposition, found {t.text or t.kind!r}",
                         t.span)

    # declarations ----------------------------------------------------------

    def _prev_end(self) -> int:
        return self.toks[self.pos - 1].end if self.pos else 0

    def decl(self) -> Decl:
        t = self.peek()
        if t.kind == "kw" and t.text == "type":
            start = self.next()
            name = self.expect("ident").text
            params = []
            while self.at("ident"):
                params.append(self.next().text)
            self.expect("=")
            body = self.type_()
            return TypeDecl(name, tuple(params), body,
                            Span(start.start, self._prev_end()))
        if t.kind == "kw" and t.text == "term":
            start = self.next()
            name = self.expect("ident").text
            claimed = None
            if self.eat(":"):
                claimed = self.type_()
            self.expect("=")
            body = self.term()
            return TermDecl(name, claimed, body, Span(start.start, self._prev_end()))
        if t.kind == "kw" and t.text == "rel":
            start = self.next()
            name = self.expect("ident").text
            if self.eat(":"):
                fl = self.peek()
                if not (fl.kind == "kw" and fl.text in ("Rel", "AdmRel")):
                    raise ParseError("expected Rel(...) or AdmRel(...)", fl.span)
                self.next()
                flavor = Flavor.REL if fl.text == "Rel" else Flavor.ADMREL
                self.expect("(")
                dom = self.type_()
                self.expect(",")
                cod = self.type_()
                self.expect(")")
                return RelDecl(name, dom, cod, flavor, None,
                               Span(start.start, self._prev_end()))
            self.expect("=")
            body = self.rel()
            return RelDecl(name, None, None, None, body,
                           Span(start.start, self._prev_end()))
        if t.kind == "dir":
            return self._directive()
        raise ParseError(
            f"expected a declaration or directive, found {t.text or t.kind!r}",
            t.span)

    def _directive(self) -> Directive:
        t = self.expect("dir")
        if t.text == "check":
            return Directive("check", (self.term(),), Span(t.start, self._prev_end()))
        if t.text == "normalize":
            return Directive("normalize", (self.term(),),
                             Span(t.start, self._prev_end()))
        if t.text == "equal":
            lhs = self.term()
            self.expect("==")
            rhs = self.term()
            return Directive("equal", (lhs, rhs), Span(t.start, self._prev_end()))
        if t.text == "admissible":
            name = self.expect("ident").text
            return Directive("admissible", (name,), Span(t.start, self._prev_end()))
        if t.text == "schema":
            kind = self.expect("ident").text
            while self.eat("-"):
                kind += "-" + self.expect("ident").text
            if kind in ("identity-extension", "parametricity"):
                payload = self.type_()
            elif kind == "lrl":
                payload = self.term()
            else:
                raise ParseError(f"unknown schema kind {kind!r}", t.span)
            return Directive("schema", (kind, payload),
                             Span(t.start, self._prev_end()))
        raise ParseError(f"unknown directive {t.text!r}", t.span)


_DECL_STARTS = {"term", "type", "rel"}


def parse_file(text: str, sig: Signature | None = None
               ) -> tuple[SourceFile, list[Diagnostic]]:
    """Parse a source file; resynchronizes at declaration boundaries."""
    diags: list[Diagnostic] = []
    sig = sig or Signature()
    try:
        toks = tokenize(text)
    except ParseError as e:
        return SourceFile([], sig), [Diagnostic("error", e.message, e.span)]
    p = Parser(toks, sig)
    decls: list[Decl] = []
    seen: set[str] = set()
    while not p.at("eof"):
        start_pos = p.pos
        try:
            d = p.parse("decl")
            if isinstance(d, (TypeDecl, TermDecl, RelDecl)):
                if d.name in seen:
                    diags.append(Diagnostic(
                        "error", f"duplicate declaration of {d.name!r}", d.span))
                    continue
                seen.add(d.name)
            if isinstance(d, TypeDecl):
                sig.types[d.name] = (d.params, d.body)
            elif isinstance(d, RelDecl):
                if d.body is None:
                    sig.rels[d.name] = (d.dom, d.cod, d.flavor, None)
                else:
                    dom, cod = S.rel_signature(d.body)
                    sig.rels[d.name] = (dom, cod, Flavor.REL, d.body)
            decls.append(d)
        except ParseError as e:
            diags.append(Diagnostic("error", e.message, e.span))
            # statement-level resync: skip to the next declaration keyword
            if p.pos == start_pos:
                p.next()
            while not p.at("eof"):
                t = p.peek()
                if t.kind == "dir" or (t.kind == "kw" and t.text in _DECL_STARTS):
                    break
                p.next()
    return SourceFile(decls, sig), diags


def _parse_entire(text: str, sig: Signature | None, production: str):
    toks = tokenize(text)
    p = Parser(toks, sig)
    node = p.parse(production)
    if not p.at("eof"):
        t = p.peek()
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    return node


def parse_type(text: str, sig: Signature | None = None) -> S.Type:
    return _parse_entire(text, sig, "type_")


def parse_encode_type(text: str) -> S.Type:
    """Type parser for encode arguments: also accepts s + t, 0, 1 and N."""
    toks = tokenize(text)
    p = Parser(toks, None, extended_types=True)
    node = p.parse("type_")
    if not p.at("eof"):
        t = p.peek()
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    return node


def parse_term(text: str, sig: Signature | None = None) -> S.Term:
    return _parse_entire(text, sig, "term")


def parse_rel(text: str, sig: Signature | None = None) -> S.Relation:
    return _parse_entire(text, sig, "rel")


def parse_prop(text: str, sig: Signature | None = None) -> S.Proposition:
    return _parse_entire(text, sig, "prop")
