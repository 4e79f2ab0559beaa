"""Concrete syntax.

Declarations:
    type NAME [params] = TYPE          (transparent synonym)
    term NAME [: TYPE] = TERM
    rel NAME : Rel(TYPE, TYPE)         (abstract relation variable)
    rel NAME : AdmRel(TYPE, TYPE)
    rel NAME = RELATION                (definition)

Directives: #check t | #normalize t | #equal t == u | #admissible R
            | #schema KIND PAYLOAD.  A `#` directly followed by a letter
            starts a directive; any other `#` starts a line comment,
            which the tokenizer skips with the whitespace.

The parser builds nameless syntax as it reads: it keeps the names bound
by the enclosing binders of each namespace on a stack and turns a bound
name into its de Bruijn index on the spot, so no body is closed after it
is built.  A synonym shadows a bound name, and is hygienic: it is stored
closed over its parameters, and a name free in its body stays free at
every use.  Propositions and relations backtrack; a memo keyed by token
position and the binders in scope keeps that linear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import syntax as S
from .syntax import KEYWORDS, Flavor, Span

# One match skips blanks and comments, then reads at most one token.  A
# `#` directly followed by a letter is a directive, whatever its name, so
# a misspelt one reaches the parser; any other `#` starts a comment.
# An identifier starts with a letter or `_` and goes on with letters,
# digits, `_` and `'`; `other` catches the non-ASCII starts that `\w`
# admits, and tokenize rejects those that are not letters.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|\#(?![^\W\d_])[^\n]*)*"
    r"(?:(?P<ident>[A-Za-z_][\w']*)"
    r"|\#(?P<dir>[^\W\d_][\w']*)"
    r"|(?P<sym>\(\*\)|-o|->|/\\|\\/|=>|==|=_|<>|[][(){}.,:=*!+01-])"
    r"|(?P<other>[^\W\d][\w']*))?")


class Tok(NamedTuple):
    kind: str      # "ident", "kw", "dir", "eof", or the symbol itself
    text: str
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


class _Committed(Exception):
    """Carries a ParseError past every alternative, up to `parse`."""


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    add, new = toks.append, tuple.__new__  # Tok(...) would run Python code
    match, n, i = _TOKEN.match, len(text), 0
    while True:
        m = match(text, i)
        kind = m.lastgroup
        if kind is None:
            i = m.end()
            if i == n:
                break
            raise ParseError(f"unexpected character {text[i]!r}", Span(i, i + 1))
        start, i = m.span(kind)
        word = text[start:i]
        if kind == "sym":
            add(new(Tok, (word, word, start, i)))
        elif kind == "dir":
            add(new(Tok, ("dir", word, start - 1, i)))
        else:
            if kind == "other" and not word[0].isalpha():
                raise ParseError(f"unexpected character {word[0]!r}",
                                 Span(start, start + 1))
            add(new(Tok, ("kw" if word in KEYWORDS else "ident", word, start, i)))
    add(Tok("eof", "", n, n))
    return toks


# ---------------------------------------------------------------------------
# Signature: what the parser needs from earlier declarations


@dataclass
class Signature:
    """Names visible to the parser: type synonyms and relation variables.
    A synonym's body has its parameters bound, params[0] outermost."""

    types: dict[str, tuple[tuple[str, ...], S.Type]] = field(default_factory=dict)
    rels: dict[str, tuple[S.Type, S.Type, Flavor, Optional[S.Relation]]] = \
        field(default_factory=dict)


# Declarations


@dataclass
class TypeDecl:
    name: str
    params: tuple[str, ...]
    body: S.Type
    span: Span
    # body with the parameters bound, params[0] outermost: what a use
    # instantiates
    closed: Optional[S.Type] = field(default=None, compare=False, repr=False)


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


def _pair(x: str, y: str) -> tuple[Optional[str], ...]:
    """The names a two-variable binder pushes: with `x` and `y` equal the
    name refers to `x`, the outer one."""
    return (x, y) if x != y else (x, None)


def _index(scope: list[Optional[str]], name: str) -> Optional[int]:
    """The de Bruijn index of the innermost binder of `name` in `scope`."""
    for k, bound in enumerate(reversed(scope)):
        if bound == name:
            return k
    return None


class Parser:
    def __init__(self, toks: list[Tok], sig: Signature | None = None,
                 extended_types: bool = False):
        self.toks = toks
        self.pos = 0
        self.sig = sig or Signature()
        # sugar for encode arguments: s + t, 0, 1 and N
        self.extended_types = extended_types
        # names bound by the enclosing binders of each namespace, innermost
        # last; None holds a binder that no name refers to
        self.tys: list[str] = []
        self.tms: list[Optional[str]] = []
        self.rels: list[str] = []
        # `scope` stands for the binders in scope: 0 for none, else the id
        # of the push (outer scope, namespace, names) that made them
        self.scope = 0
        self._scope_ids: dict[tuple, int] = {}
        # every type or term name read, in order, as (name, namespace,
        # position of its binder on that namespace's stack, -1 if free)
        self.seen: list[tuple[str, str, int]] = []
        # (production, position, scope) -> (node, end, first, last): the
        # node read and the entries seen[first:last] it added; or, if it
        # failed, (None, position of the failure, message, span)
        self.memo: dict[tuple[str, int, int], tuple] = {}

    # token helpers -------------------------------------------------------

    def peek(self) -> Tok:
        return self.toks[self.pos]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> Tok | None:
        t = self.toks[self.pos]
        if t.kind == kind and (text is None or t.text == text):
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
        self.memo.clear()
        self.seen.clear()
        try:
            return getattr(self, production)()
        except RecursionError:
            raise self.fail("nesting too deep") from None
        except _Committed as e:
            raise e.args[0] from None

    # scopes ----------------------------------------------------------------

    def _under(self, ns: str, names: tuple | None, production):
        """Run `production` with `names` bound in namespace `ns` ("tys",
        "tms" or "rels"), the last one innermost; with `names` None, with
        no binder of `ns` in scope.  The restore is in a `finally` and
        calls no Python function, so a failed alternative or a stack
        overflow leaves the scopes as they were."""
        outer, scope = self.scope, getattr(self, ns)
        if names is None:
            setattr(self, ns, [])
        else:
            scope.extend(names)
        ids = self._scope_ids
        self.scope = ids.setdefault((outer, ns, names), len(ids) + 1)
        try:
            return production()
        finally:
            if names is None:
                setattr(self, ns, scope)
            else:
                del scope[len(scope) - len(names):]
            self.scope = outer

    def _memo(self, production: str):
        """Run `production` at this token once for the binders in scope and
        replay its node and the names it read, or its error, when an
        alternative tries it again."""
        key = (production, self.pos, self.scope)
        hit = self.memo.get(key)
        if hit is not None:
            node, self.pos, a, b = hit
            if node is None:
                raise ParseError(a, b)
            self.seen.extend(self.seen[a:b])
            return node
        first = len(self.seen)
        try:
            node = getattr(self, production)()
        except ParseError as e:
            self.memo[key] = (None, self.pos, e.message, e.span)
            raise
        self.memo[key] = (node, self.pos, first, len(self.seen))
        return node

    def _resolve(self, ns: str, name: str) -> Optional[int]:
        """The de Bruijn index of `name` in namespace `ns`, or None if it
        is free; logs the name in `seen`."""
        scope = getattr(self, ns)
        k = _index(scope, name)
        self.seen.append((name, ns, -1 if k is None else len(scope) - 1 - k))
        return k

    def _names_since(self, mark: int) -> set[str]:
        """The names read since `seen[mark]` that are free or bound by a
        binder now in scope: the free names that what was read would have
        before the binders in scope are closed."""
        base = {"tys": len(self.tys), "tms": len(self.tms)}
        return {name for name, ns, at in self.seen[mark:] if at < base[ns]}

    # types ---------------------------------------------------------------

    def type_(self) -> S.Type:
        if self.at("kw", "all"):
            start = self.next()
            name = self.expect("ident").text
            self.expect(".")
            body = self._under("tys", (name,), self.type_)
            return S.Forall(name, body, Span(start.start, self._prev_end()))
        return self._ty_lolli()

    def _ty_lolli(self) -> S.Type:
        mark = len(self.seen)
        left = self._ty_tensor()
        if self.extended_types and self.at("+"):
            left = self._ty_sum(left, mark)
        if self.eat("-o"):
            return S.Lolli(left, self.type_())
        if self.eat("->"):
            return S.Lolli(S.Bang(left), self.type_())
        return left

    def _ty_sum(self, left: S.Type, mark: int) -> S.Type:
        """left + t + ...: right-nested sum types, built as
        `encodings.sum_type` builds them from named operands; `left` was
        read from `seen[mark]` on."""
        parts, marks = [left], [mark]
        while self.eat("+"):
            marks.append(len(self.seen))
            parts.append(self._ty_tensor())
        t = parts.pop()
        while parts:
            s = parts.pop()
            a = S.fresh("a", self._names_since(marks[len(parts)]))
            va = S.TyBound(0)
            t = S.Forall(a, S.arrow(S.Lolli(S.shift(s, ty_by=1), va),
                                    S.arrow(S.Lolli(S.shift(t, ty_by=1), va), va)))
        return t

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
                self.seen.extend((n, "tys", -1) for n in S.free_type_names(body))
                if not params:
                    return body
                return S.instantiate_ty(body, *[self._ty_atom() for _ in params])
            if self.extended_types and t.text == "N":
                from .encodings import nat_type
                return nat_type()
            k = self._resolve("tys", t.text)
            if k is not None:
                return S.TyBound(k)
            return S.TyVar(t.text, span=t.span)
        if self.eat("("):
            inner = self._memo("type_")
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
            if t.text == "fn":
                body = self._under("tms", (name,), self.term)
                return S.LinLam(name, ty, body, Span(t.start, self._prev_end()))
            return self._lam(name, ty)
        if self.at("/\\"):
            start = self.next()
            name = self.expect("ident").text
            self.expect(".")
            body = self._under("tys", (name,), self.term)
            return S.TyLam(name, body, Span(start.start, self._prev_end()))
        if t.kind == "kw" and t.text == "let":
            return self._let()
        return self._tm_tensor()

    def _lam(self, name: str, ty: S.Type) -> S.Term:
        """lam name:ty. body, sugar for fn c:!ty. let !name = c in body.
        The carrier c is named as `syntax.lam_int` names it from a named
        body: apart from name and every name the body mentions."""
        mark = len(self.seen)
        body = self._under("tms", (None, name), self.term)  # c, then name
        carrier = S.fresh(name, self._names_since(mark) | {name})
        return S.LinLam(carrier, S.Bang(ty), S.LetBang(name, ty, S.Bound(0), body))

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
            body = self._under("tms", (name,), self.term)
            return S.LetBang(name, ann, scrut, body,
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
        body = self._under("tms", _pair(x, y), self.term)
        return S.LetTensor(x, y, tyx, tyy, scrut, body,
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
            k = self._resolve("tms", t.text)
            if k is not None:
                return S.Bound(k)
            return S.Var(t.text, span=t.span)
        if t.kind == "<>":
            self.next()
            return S.Star(span=t.span)
        if t.kind == "kw" and t.text == "Y":
            self.next()
            return S.Y(span=t.span)
        if self.eat("("):
            inner = self._memo("term")
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {t.text or t.kind!r}", t.span)

    # relations -----------------------------------------------------------

    def rel(self) -> S.Relation:
        return self._memo("_rel")

    def _rel(self) -> S.Relation:
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
        if t.kind == "ident":
            k = _index(self.rels, t.text)
            if k is not None:
                self.next()
                return S.RelBound(k)
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
        body = self._under("tms", _pair(x, y), self.prop)
        return S.Compr(x, y, tyx, tyy, body, Span(start.start, self._prev_end()))

    def _type_rel(self) -> S.Relation:
        # every type variable in `ty` is a slot, bound outside it or not
        ty = self._under("tys", None, self._ty_tensor)
        start = self.expect("[").start
        args = []
        if not self.at("]"):
            args.append(self.rel())
            while self.eat(","):
                args.append(self.rel())
        end = self.expect("]").end
        names = S.free_type_names(ty)
        if len(names) != len(args):  # past `]`, no alternative applies
            raise _Committed(ParseError(
                f"type has {len(names)} free type variable(s) but "
                f"{len(args)} relation(s) were supplied", Span(start, end)))
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
            body = self._under("tys", (name,), self.prop)
            return (S.ForallTy if kw == "all" else S.ExistsTy)(name, body)
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
            body = self._under("rels", (name,), self.prop)
            ctor = S.ForallRel if kw == "all" else S.ExistsRel
            return ctor(name, dom, cod, flavor, body)
        ty = self.type_()
        self.expect(".")
        body = self._under("tms", (name,), self.prop)
        return (S.ForallTm if kw == "all" else S.ExistsTm)(name, ty, body)

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
            at = self.pos
            body = closed = self.type_()
            if params:  # read it again with the parameters bound, for uses
                end, self.pos = self.pos, at
                closed = self._under("tys", tuple(params), self.type_)
                self.pos = end
            return TypeDecl(name, tuple(params), body,
                            Span(start.start, self._prev_end()), closed)
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
               ) -> tuple[SourceFile, list[ParseError]]:
    """Parse a source file; resynchronizes at declaration boundaries."""
    diags: list[ParseError] = []
    sig = sig or Signature()
    try:
        toks = tokenize(text)
    except ParseError as e:
        return SourceFile([], sig), [e]
    p = Parser(toks, sig)
    decls: list[Decl] = []
    seen: set[str] = set()
    while not p.at("eof"):
        start_pos = p.pos
        try:
            d = p.parse("decl")
            if isinstance(d, (TypeDecl, TermDecl, RelDecl)):
                if d.name in seen:
                    diags.append(ParseError(
                        f"duplicate declaration of {d.name!r}", d.span))
                    continue
                seen.add(d.name)
            if isinstance(d, TypeDecl):
                sig.types[d.name] = (d.params, d.closed)
            elif isinstance(d, RelDecl):
                if d.body is None:
                    sig.rels[d.name] = (d.dom, d.cod, d.flavor, None)
                else:
                    dom, cod = S.rel_signature(d.body)
                    sig.rels[d.name] = (dom, cod, Flavor.REL, d.body)
            decls.append(d)
        except ParseError as e:
            diags.append(e)
            # statement-level resync: skip to the next declaration keyword
            if p.pos == start_pos:
                p.next()
            while not p.at("eof"):
                t = p.peek()
                if t.kind == "dir" or (t.kind == "kw" and t.text in _DECL_STARTS):
                    break
                p.next()
    return SourceFile(decls, sig), diags


def _parse_entire(text: str, sig: Signature | None, production: str,
                  extended_types: bool = False):
    p = Parser(tokenize(text), sig, extended_types)
    node = p.parse(production)
    if not p.at("eof"):
        t = p.peek()
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    return node


def parse_type(text: str, sig: Signature | None = None) -> S.Type:
    return _parse_entire(text, sig, "type_")


def parse_encode_type(text: str) -> S.Type:
    """Type parser for encode arguments: also accepts s + t, 0, 1 and N."""
    return _parse_entire(text, None, "type_", extended_types=True)


def parse_term(text: str, sig: Signature | None = None) -> S.Term:
    return _parse_entire(text, sig, "term")


def parse_rel(text: str, sig: Signature | None = None) -> S.Relation:
    return _parse_entire(text, sig, "rel")


def parse_prop(text: str, sig: Signature | None = None) -> S.Proposition:
    return _parse_entire(text, sig, "prop")
