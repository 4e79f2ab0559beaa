"""Abstract syntax for the calculus and its relational logic.

Four syntactic categories: types, terms, relations and propositions.
Bound variables are nameless (de Bruijn indices, one counter per
namespace: type variables, term variables, relation variables); free
variables are named.  Binder nodes keep the surface name as a hint that
is excluded from equality, so dataclass `==` is alpha-equivalence.

All public constructors expect locally closed arguments (no dangling
indices); the index-shifting primitives at the bottom are for internal
use by the rewriter and checker.  Each type and term node caches, on
first use and outside its dataclass fields, one more than its largest
loose index in each namespace, so shifting and instantiation return a
subtree they cannot change without walking it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class Span:
    start: int
    end: int


def _hint(default: str = "a"):
    return field(default=default, compare=False, repr=False)


def _span():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types


class Type:
    __slots__ = ()
    _lb = None  # cached loose bounds, see _loose; not a dataclass field


@dataclass(frozen=True)
class TyVar(Type):
    name: str
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TyBound(Type):
    index: int


@dataclass(frozen=True)
class Unit(Type):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Lolli(Type):
    dom: Type
    cod: Type
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Tensor(Type):
    left: Type
    right: Type
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Bang(Type):
    body: Type
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Forall(Type):
    hint: str = _hint()
    body: Type = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TyConst(Type):
    """Opaque signature type constant, possibly applied."""

    name: str
    args: tuple[Type, ...] = ()
    span: Optional[Span] = _span()


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()
    _lb = None  # cached loose bounds, see _loose; not a dataclass field


@dataclass(frozen=True)
class Var(Term):
    name: str
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Bound(Term):
    index: int


@dataclass(frozen=True)
class Star(Term):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Y(Term):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LinLam(Term):
    hint: str = _hint("x")
    ty: Type = None
    body: Term = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TensorPair(Term):
    left: Term
    right: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class BangIntro(Term):
    body: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TyLam(Term):
    hint: str = _hint()
    body: Term = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TyApp(Term):
    fn: Term
    ty: Type
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LetStar(Term):
    scrut: Term
    body: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LetTensor(Term):
    """let x (*) y [: tyx * tyy] = scrut in body; body binds x=1, y=0."""

    hintx: str = _hint("x")
    hinty: str = _hint("y")
    tyx: Optional[Type] = None
    tyy: Optional[Type] = None
    scrut: Term = None
    body: Term = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LetBang(Term):
    hint: str = _hint("x")
    ty: Optional[Type] = None
    scrut: Term = None
    body: Term = None
    span: Optional[Span] = _span()


# ---------------------------------------------------------------------------
# Relations and propositions


class Flavor(Enum):
    REL = "Rel"
    ADMREL = "AdmRel"


class Relation:
    __slots__ = ()


class Proposition:
    __slots__ = ()


@dataclass(frozen=True)
class RelVar(Relation):
    name: str
    dom: Type = None
    cod: Type = None
    flavor: Flavor = Flavor.REL
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class RelBound(Relation):
    index: int


@dataclass(frozen=True)
class Compr(Relation):
    """(x: tyx, y: tyy). body; body binds the term vars x=1, y=0."""

    hintx: str = _hint("x")
    hinty: str = _hint("y")
    tyx: Type = None
    tyy: Type = None
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class TypeRel(Relation):
    """Relational interpretation of a type: body[args].

    `body` abstracts len(args) type variables as an n-ary binder (slot i
    is TyBound(n-1-i)); slot i is interpreted by args[i].
    """

    hints: tuple[str, ...] = _hint(())
    body: Type = None
    args: tuple[Relation, ...] = ()
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class InternalEq(Proposition):
    ty: Type
    lhs: Term
    rhs: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class RelApp(Proposition):
    rel: Relation
    lhs: Term
    rhs: Term
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Implies(Proposition):
    left: Proposition
    right: Proposition
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class And(Proposition):
    left: Proposition
    right: Proposition
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Or(Proposition):
    left: Proposition
    right: Proposition
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Top(Proposition):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class Bottom(Proposition):
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ForallTy(Proposition):
    hint: str = _hint()
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ExistsTy(Proposition):
    hint: str = _hint()
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ForallTm(Proposition):
    hint: str = _hint("x")
    ty: Type = None
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ExistsTm(Proposition):
    hint: str = _hint("x")
    ty: Type = None
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ForallRel(Proposition):
    hint: str = _hint("R")
    dom: Type = None
    cod: Type = None
    flavor: Flavor = Flavor.REL
    body: Proposition = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class ExistsRel(Proposition):
    hint: str = _hint("R")
    dom: Type = None
    cod: Type = None
    flavor: Flavor = Flavor.REL
    body: Proposition = None
    span: Optional[Span] = _span()


Node = Type | Term | Relation | Proposition


# ---------------------------------------------------------------------------
# Contexts


@dataclass
class TermContext:
    """Kind context, intuitionistic context and linear context."""

    xi: tuple[str, ...] = ()
    gamma: dict[str, Type] = field(default_factory=dict)
    delta: dict[str, Type] = field(default_factory=dict)

    def names(self) -> set[str]:
        return set(self.xi) | set(self.gamma) | set(self.delta)


@dataclass
class RelContext:
    """Ordered relational context: name -> (domain, codomain, flavor)."""

    entries: dict[str, tuple[Type, Type, Flavor]] = field(default_factory=dict)

    def names(self) -> set[str]:
        return set(self.entries)


# ---------------------------------------------------------------------------
# Generic traversal

# Env is the triple of binder depths (type vars, term vars, relation vars)
# between the traversal root and the current node.
Env = tuple[int, int, int]


class VarMap:
    """Identity transformation; subclasses hook the six variable cases.

    A map whose hooks change nothing free and only bound indices at or
    above `depth + ty_from` (type namespace) and `depth + tm_from` (term
    namespace) sets `skips`; `map_type`/`map_term` then return a subtree
    with no such loose index as it is, without walking it.  None means
    the map changes no index in that namespace.
    """

    skips = False
    ty_from: int | None = 0
    tm_from: int | None = 0

    def ty_free(self, node: TyVar, env: Env) -> Type:
        return node

    def ty_bound(self, node: TyBound, env: Env) -> Type:
        return node

    def tm_free(self, node: Var, env: Env) -> Term:
        return node

    def tm_bound(self, node: Bound, env: Env) -> Term:
        return node

    def rel_free(self, node: RelVar, env: Env) -> Relation:
        return node

    def rel_bound(self, node: RelBound, env: Env) -> Relation:
        return node


_CLOSED = (0, 0)


def _loose(n: Type | Term) -> tuple[int, int]:
    """(1 + largest loose type index, 1 + largest loose term index) of a
    type or term, 0 where there is none; computed once per node and cached
    outside the dataclass fields."""
    lb = n._lb
    if lb is None:
        lb = _LOOSE_OF[type(n)](n)
        object.__setattr__(n, "_lb", lb)
    return lb


def _join(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    if a is _CLOSED or a == b:
        return b
    if b is _CLOSED:
        return a
    return (max(a[0], b[0]), max(a[1], b[1]))


def _under(lb: tuple[int, int], tys: int, tms: int) -> tuple[int, int]:
    """Loose bounds of a binder of `tys` type and `tms` term variables
    whose body has loose bounds `lb`."""
    ty, tm = max(lb[0] - tys, 0), max(lb[1] - tms, 0)
    return (ty, tm) if ty or tm else _CLOSED


def _loose_opt(n: Type | None) -> tuple[int, int]:
    return _CLOSED if n is None else _loose(n)


def _loose_const(n: TyConst) -> tuple[int, int]:
    lb = _CLOSED
    for a in n.args:
        lb = _join(lb, _loose(a))
    return lb


# Leaves hold their bounds on the class: closed, or read off the index.
TyVar._lb = Unit._lb = Var._lb = Star._lb = Y._lb = _CLOSED
TyBound._lb = property(lambda n: (n.index + 1, 0))
Bound._lb = property(lambda n: (0, n.index + 1))

# How each other class's loose bounds follow from its children's.
_LOOSE_OF = {
    Lolli: lambda n: _join(_loose(n.dom), _loose(n.cod)),
    Tensor: lambda n: _join(_loose(n.left), _loose(n.right)),
    Bang: lambda n: _loose(n.body),
    Forall: lambda n: _under(_loose(n.body), 1, 0),
    TyConst: _loose_const,
    LinLam: lambda n: _join(_loose(n.ty), _under(_loose(n.body), 0, 1)),
    App: lambda n: _join(_loose(n.fn), _loose(n.arg)),
    TensorPair: lambda n: _join(_loose(n.left), _loose(n.right)),
    BangIntro: lambda n: _loose(n.body),
    TyLam: lambda n: _under(_loose(n.body), 1, 0),
    TyApp: lambda n: _join(_loose(n.fn), _loose(n.ty)),
    LetStar: lambda n: _join(_loose(n.scrut), _loose(n.body)),
    LetTensor: lambda n: _join(
        _join(_loose_opt(n.tyx), _loose_opt(n.tyy)),
        _join(_loose(n.scrut), _under(_loose(n.body), 0, 2))),
    LetBang: lambda n: _join(
        _loose_opt(n.ty),
        _join(_loose(n.scrut), _under(_loose(n.body), 0, 1))),
}


def map_type(t: Type, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Type:
    env = (td, md, rd)
    if isinstance(t, TyVar):
        return m.ty_free(t, env)
    if isinstance(t, TyBound):
        return m.ty_bound(t, env)
    if isinstance(t, Unit):
        return t
    if m.skips and (m.ty_from is None or _loose(t)[0] <= td + m.ty_from):
        return t
    if isinstance(t, Lolli):
        d = map_type(t.dom, m, td, md, rd)
        c = map_type(t.cod, m, td, md, rd)
        return t if d is t.dom and c is t.cod else Lolli(d, c, t.span)
    if isinstance(t, Tensor):
        l = map_type(t.left, m, td, md, rd)
        r = map_type(t.right, m, td, md, rd)
        return t if l is t.left and r is t.right else Tensor(l, r, t.span)
    if isinstance(t, Bang):
        b = map_type(t.body, m, td, md, rd)
        return t if b is t.body else Bang(b, t.span)
    if isinstance(t, Forall):
        b = map_type(t.body, m, td + 1, md, rd)
        return t if b is t.body else Forall(t.hint, b, t.span)
    if isinstance(t, TyConst):
        args = tuple(map_type(a, m, td, md, rd) for a in t.args)
        if all(a is b for a, b in zip(args, t.args)):
            return t
        return TyConst(t.name, args, t.span)
    raise TypeError(f"not a type node: {t!r}")


def map_term(t: Term, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Term:
    env = (td, md, rd)
    if isinstance(t, Var):
        return m.tm_free(t, env)
    if isinstance(t, Bound):
        return m.tm_bound(t, env)
    if isinstance(t, (Star, Y)):
        return t
    if m.skips:
        ty, tm = t._lb or _loose(t)
        if ((m.ty_from is None or ty <= td + m.ty_from)
                and (m.tm_from is None or tm <= md + m.tm_from)):
            return t
    if isinstance(t, LinLam):
        ty = map_type(t.ty, m, td, md, rd)
        b = map_term(t.body, m, td, md + 1, rd)
        return t if ty is t.ty and b is t.body else LinLam(t.hint, ty, b, t.span)
    if isinstance(t, App):
        f = map_term(t.fn, m, td, md, rd)
        a = map_term(t.arg, m, td, md, rd)
        return t if f is t.fn and a is t.arg else App(f, a, t.span)
    if isinstance(t, TensorPair):
        l = map_term(t.left, m, td, md, rd)
        r = map_term(t.right, m, td, md, rd)
        return t if l is t.left and r is t.right else TensorPair(l, r, t.span)
    if isinstance(t, BangIntro):
        b = map_term(t.body, m, td, md, rd)
        return t if b is t.body else BangIntro(b, t.span)
    if isinstance(t, TyLam):
        b = map_term(t.body, m, td + 1, md, rd)
        return t if b is t.body else TyLam(t.hint, b, t.span)
    if isinstance(t, TyApp):
        f = map_term(t.fn, m, td, md, rd)
        ty = map_type(t.ty, m, td, md, rd)
        return t if f is t.fn and ty is t.ty else TyApp(f, ty, t.span)
    if isinstance(t, LetStar):
        s = map_term(t.scrut, m, td, md, rd)
        b = map_term(t.body, m, td, md, rd)
        return t if s is t.scrut and b is t.body else LetStar(s, b, t.span)
    if isinstance(t, LetTensor):
        tx = map_type(t.tyx, m, td, md, rd) if t.tyx is not None else None
        ty2 = map_type(t.tyy, m, td, md, rd) if t.tyy is not None else None
        s = map_term(t.scrut, m, td, md, rd)
        b = map_term(t.body, m, td, md + 2, rd)
        if tx is t.tyx and ty2 is t.tyy and s is t.scrut and b is t.body:
            return t
        return LetTensor(t.hintx, t.hinty, tx, ty2, s, b, t.span)
    if isinstance(t, LetBang):
        ty = map_type(t.ty, m, td, md, rd) if t.ty is not None else None
        s = map_term(t.scrut, m, td, md, rd)
        b = map_term(t.body, m, td, md + 1, rd)
        if ty is t.ty and s is t.scrut and b is t.body:
            return t
        return LetBang(t.hint, ty, s, b, t.span)
    raise TypeError(f"not a term node: {t!r}")


def map_rel(r: Relation, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Relation:
    env = (td, md, rd)
    if isinstance(r, RelVar):
        d = map_type(r.dom, m, td, md, rd)
        c = map_type(r.cod, m, td, md, rd)
        node = r if d is r.dom and c is r.cod else RelVar(r.name, d, c, r.flavor, r.span)
        return m.rel_free(node, env)
    if isinstance(r, RelBound):
        return m.rel_bound(r, env)
    if isinstance(r, Compr):
        tx = map_type(r.tyx, m, td, md, rd)
        ty2 = map_type(r.tyy, m, td, md, rd)
        b = map_prop(r.body, m, td, md + 2, rd)
        if tx is r.tyx and ty2 is r.tyy and b is r.body:
            return r
        return Compr(r.hintx, r.hinty, tx, ty2, b, r.span)
    if isinstance(r, TypeRel):
        body = map_type(r.body, m, td + len(r.hints), md, rd)
        args = tuple(map_rel(a, m, td, md, rd) for a in r.args)
        if body is r.body and all(a is b for a, b in zip(args, r.args)):
            return r
        return TypeRel(r.hints, body, args, r.span)
    raise TypeError(f"not a relation node: {r!r}")


def map_prop(p: Proposition, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Proposition:
    if isinstance(p, InternalEq):
        ty = map_type(p.ty, m, td, md, rd)
        l = map_term(p.lhs, m, td, md, rd)
        r = map_term(p.rhs, m, td, md, rd)
        if ty is p.ty and l is p.lhs and r is p.rhs:
            return p
        return InternalEq(ty, l, r, p.span)
    if isinstance(p, RelApp):
        rel = map_rel(p.rel, m, td, md, rd)
        l = map_term(p.lhs, m, td, md, rd)
        r = map_term(p.rhs, m, td, md, rd)
        if rel is p.rel and l is p.lhs and r is p.rhs:
            return p
        return RelApp(rel, l, r, p.span)
    if isinstance(p, (Implies, And, Or)):
        l = map_prop(p.left, m, td, md, rd)
        r = map_prop(p.right, m, td, md, rd)
        return p if l is p.left and r is p.right else type(p)(l, r, p.span)
    if isinstance(p, (Top, Bottom)):
        return p
    if isinstance(p, (ForallTy, ExistsTy)):
        b = map_prop(p.body, m, td + 1, md, rd)
        return p if b is p.body else type(p)(p.hint, b, p.span)
    if isinstance(p, (ForallTm, ExistsTm)):
        ty = map_type(p.ty, m, td, md, rd)
        b = map_prop(p.body, m, td, md + 1, rd)
        return p if ty is p.ty and b is p.body else type(p)(p.hint, ty, b, p.span)
    if isinstance(p, (ForallRel, ExistsRel)):
        d = map_type(p.dom, m, td, md, rd)
        c = map_type(p.cod, m, td, md, rd)
        b = map_prop(p.body, m, td, md, rd + 1)
        if d is p.dom and c is p.cod and b is p.body:
            return p
        return type(p)(p.hint, d, c, p.flavor, b, p.span)
    raise TypeError(f"not a proposition node: {p!r}")


def map_node(n: Node, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Node:
    if isinstance(n, Type):
        return map_type(n, m, td, md, rd)
    if isinstance(n, Term):
        return map_term(n, m, td, md, rd)
    if isinstance(n, Relation):
        return map_rel(n, m, td, md, rd)
    return map_prop(n, m, td, md, rd)


# ---------------------------------------------------------------------------
# Substitution of free variables (replacements must be locally closed)


class _SubstTypes(VarMap):
    def __init__(self, mapping):
        self.mapping = mapping

    def ty_free(self, node, env):
        return self.mapping.get(node.name, node)


class _SubstTerms(VarMap):
    def __init__(self, mapping):
        self.mapping = mapping

    def tm_free(self, node, env):
        return self.mapping.get(node.name, node)


class _SubstRels(VarMap):
    def __init__(self, mapping):
        self.mapping = mapping

    def rel_free(self, node, env):
        return self.mapping.get(node.name, node)


def subst_types(obj: Node, mapping: dict[str, Type]) -> Node:
    """Simultaneous capture-avoiding substitution of free type variables."""
    if not mapping:
        return obj
    return map_node(obj, _SubstTypes(mapping))


def subst_terms(obj: Node, mapping: dict[str, Term]) -> Node:
    if not mapping:
        return obj
    return map_node(obj, _SubstTerms(mapping))


def subst_rels(obj: Node, mapping: dict[str, Relation]) -> Node:
    if not mapping:
        return obj
    return map_node(obj, _SubstRels(mapping))


def subst_type_in_type(ty: Type, name: str, rep: Type) -> Type:
    return subst_types(ty, {name: rep})


def subst_term_in_term(t: Term, name: str, rep: Term) -> Term:
    return subst_terms(t, {name: rep})


# ---------------------------------------------------------------------------
# Free variables


class _Collector(VarMap):
    def __init__(self):
        self.tys: list[str] = []
        self.tms: list[str] = []
        self.rels: list[str] = []

    def ty_free(self, node, env):
        if node.name not in self.tys:
            self.tys.append(node.name)
        return node

    def tm_free(self, node, env):
        if node.name not in self.tms:
            self.tms.append(node.name)
        return node

    def rel_free(self, node, env):
        if node.name not in self.rels:
            self.rels.append(node.name)
        return node


def free_type_names(obj: Node) -> list[str]:
    """Free type variable names in first-occurrence order."""
    c = _Collector()
    map_node(obj, c)
    return c.tys


def free_term_names(obj: Node) -> list[str]:
    c = _Collector()
    map_node(obj, c)
    return c.tms


def free_rel_names(obj: Node) -> list[str]:
    c = _Collector()
    map_node(obj, c)
    return c.rels


def all_free_names(obj: Node) -> set[str]:
    c = _Collector()
    map_node(obj, c)
    return set(c.tys) | set(c.tms) | set(c.rels)


def contains_const(obj: Node) -> bool:
    """True if any signature type constant occurs in a type or term."""

    def scan_ty(t: Type) -> bool:
        if isinstance(t, TyConst):
            return True
        if isinstance(t, Lolli):
            return scan_ty(t.dom) or scan_ty(t.cod)
        if isinstance(t, Tensor):
            return scan_ty(t.left) or scan_ty(t.right)
        if isinstance(t, (Bang, Forall)):
            return scan_ty(t.body)
        return False

    def go(x: Term) -> bool:
        if isinstance(x, LinLam):
            return scan_ty(x.ty) or go(x.body)
        if isinstance(x, App):
            return go(x.fn) or go(x.arg)
        if isinstance(x, TensorPair):
            return go(x.left) or go(x.right)
        if isinstance(x, (BangIntro, TyLam)):
            return go(x.body)
        if isinstance(x, TyApp):
            return scan_ty(x.ty) or go(x.fn)
        if isinstance(x, LetStar):
            return go(x.scrut) or go(x.body)
        if isinstance(x, LetTensor):
            return (any(scan_ty(t) for t in (x.tyx, x.tyy) if t is not None)
                    or go(x.scrut) or go(x.body))
        if isinstance(x, LetBang):
            return ((x.ty is not None and scan_ty(x.ty))
                    or go(x.scrut) or go(x.body))
        return False

    if isinstance(obj, Type):
        return scan_ty(obj)
    if isinstance(obj, Term):
        return go(obj)
    raise TypeError("contains_const supports types and terms")


# ---------------------------------------------------------------------------
# Index shifting and binder instantiation (internal machinery)


class _Shift(VarMap):
    skips = True

    def __init__(self, ty_by, tm_by, rel_by):
        self.ty_by = ty_by
        self.tm_by = tm_by
        self.rel_by = rel_by
        self.ty_from = 0 if ty_by else None
        self.tm_from = 0 if tm_by else None

    def ty_bound(self, node, env):
        if self.ty_by and node.index >= env[0]:
            return TyBound(node.index + self.ty_by)
        return node

    def tm_bound(self, node, env):
        if self.tm_by and node.index >= env[1]:
            return Bound(node.index + self.tm_by)
        return node

    def rel_bound(self, node, env):
        if self.rel_by and node.index >= env[2]:
            return RelBound(node.index + self.rel_by)
        return node


def shift(obj: Node, ty_by: int = 0, tm_by: int = 0, rel_by: int = 0,
          td: int = 0, md: int = 0, rd: int = 0) -> Node:
    """Shift dangling indices; used when a term moves across binders.

    td/md/rd start the traversal as if the object were already under that
    many binders, i.e. they act as shifting cutoffs.
    """
    if not (ty_by or tm_by or rel_by):
        return obj
    return map_node(obj, _Shift(ty_by, tm_by, rel_by), td, md, rd)


class _InstTm(VarMap):
    skips = True
    ty_from = None

    def __init__(self, args: Sequence[Term]):
        self.args = args
        self.n = len(args)

    def tm_bound(self, node, env):
        td, md, rd = env
        k = node.index
        if k < md:
            return node
        j = k - md
        if j < self.n:
            return shift(self.args[self.n - 1 - j], ty_by=td, tm_by=md, rel_by=rd)
        return Bound(k - self.n)


def instantiate_tm(body: Node, *args: Term) -> Node:
    """Contract the len(args) innermost term binders of `body`.

    args[0] replaces the outermost of the contracted binders.
    """
    return map_node(body, _InstTm(args))


class _InstTy(VarMap):
    skips = True
    tm_from = None

    def __init__(self, tys: Sequence[Type]):
        self.tys = tys
        self.n = len(tys)

    def ty_bound(self, node, env):
        td, md, rd = env
        k = node.index
        if k < td:
            return node
        j = k - td
        if j < self.n:
            return shift(self.tys[self.n - 1 - j], ty_by=td, tm_by=md, rel_by=rd)
        return TyBound(k - self.n)


def instantiate_ty(body: Node, *tys: Type) -> Node:
    """Contract the len(tys) innermost type binders of `body`."""
    return map_node(body, _InstTy(tys))


class _InstRel(VarMap):
    skips = True
    ty_from = tm_from = None  # types and terms hold no relation variables

    def __init__(self, rels: Sequence[Relation]):
        self.rels = rels
        self.n = len(rels)

    def rel_bound(self, node, env):
        td, md, rd = env
        k = node.index
        if k < rd:
            return node
        j = k - rd
        if j < self.n:
            return shift(self.rels[self.n - 1 - j], ty_by=td, tm_by=md, rel_by=rd)
        return RelBound(k - self.n)


def instantiate_rel(body: Node, *rels: Relation) -> Node:
    return map_node(body, _InstRel(rels))


class _CloseTy(VarMap):
    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.n = len(self.names)

    def ty_free(self, node, env):
        if node.name in self.names:
            i = self.names.index(node.name)
            return TyBound(env[0] + self.n - 1 - i)
        return node


def close_ty(obj: Node, *names: str) -> Node:
    """Abstract free type variables: names[0] becomes the outermost binder."""
    return map_node(obj, _CloseTy(names))


class _CloseTm(VarMap):
    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.n = len(self.names)

    def tm_free(self, node, env):
        if node.name in self.names:
            i = self.names.index(node.name)
            return Bound(env[1] + self.n - 1 - i)
        return node


def close_tm(obj: Node, *names: str) -> Node:
    return map_node(obj, _CloseTm(names))


class _CloseRel(VarMap):
    def __init__(self, name: str):
        self.name = name

    def rel_free(self, node, env):
        if node.name == self.name:
            return RelBound(env[2])
        return node


def close_rel(obj: Node, name: str) -> Node:
    return map_node(obj, _CloseRel(name))


class _UsesBound(VarMap):
    skips = True

    def __init__(self, ns: str, k: int):
        self.ns = ns
        self.k = k
        self.found = False
        self.ty_from = k if ns == "ty" else None
        self.tm_from = k if ns == "tm" else None

    def ty_bound(self, node, env):
        if self.ns == "ty" and node.index == env[0] + self.k:
            self.found = True
        return node

    def tm_bound(self, node, env):
        if self.ns == "tm" and node.index == env[1] + self.k:
            self.found = True
        return node

    def rel_bound(self, node, env):
        if self.ns == "rel" and node.index == env[2] + self.k:
            self.found = True
        return node


def uses_bound_tm(obj: Node, k: int = 0) -> bool:
    m = _UsesBound("tm", k)
    map_node(obj, m)
    return m.found


def uses_bound_ty(obj: Node, k: int = 0) -> bool:
    m = _UsesBound("ty", k)
    map_node(obj, m)
    return m.found


# ---------------------------------------------------------------------------
# Fresh names and binder helpers


def fresh(base: str, avoid: Iterable[str]) -> str:
    avoid = set(avoid)
    if base and base not in avoid:
        return base
    base = base or "x"
    root = base.rstrip("0123456789") or base
    for i in itertools.count(1):
        cand = f"{root}{i}"
        if cand not in avoid:
            return cand


def fresh_many(bases: Sequence[str], avoid: Iterable[str]) -> list[str]:
    avoid = set(avoid)
    out = []
    for b in bases:
        n = fresh(b, avoid)
        avoid.add(n)
        out.append(n)
    return out


# Smart constructors: build binders from named, locally closed bodies.


def forall(name: str, body: Type, span: Optional[Span] = None) -> Forall:
    return Forall(name, close_ty(body, name), span)


def foralls(names: Sequence[str], body: Type) -> Type:
    for n in reversed(names):
        body = forall(n, body)
    return body


def lin_lam(name: str, ty: Type, body: Term, span: Optional[Span] = None) -> LinLam:
    return LinLam(name, ty, close_tm(body, name), span)


def ty_lam(name: str, body: Term, span: Optional[Span] = None) -> TyLam:
    return TyLam(name, close_ty(body, name), span)


def ty_lams(names: Sequence[str], body: Term) -> Term:
    for n in reversed(names):
        body = ty_lam(n, body)
    return body


def let_star(scrut: Term, body: Term, span: Optional[Span] = None) -> LetStar:
    return LetStar(scrut, body, span)


def let_tensor(x: str, y: str, tyx: Optional[Type], tyy: Optional[Type],
               scrut: Term, body: Term, span: Optional[Span] = None) -> LetTensor:
    return LetTensor(x, y, tyx, tyy, scrut, close_tm(body, x, y), span)


def let_bang(x: str, ty: Optional[Type], scrut: Term, body: Term,
             span: Optional[Span] = None) -> LetBang:
    return LetBang(x, ty, scrut, close_tm(body, x), span)


def compr(x: str, tyx: Type, y: str, tyy: Type, body: Proposition,
          span: Optional[Span] = None) -> Compr:
    return Compr(x, y, tyx, tyy, close_tm(body, x, y), span)


def type_rel(names: Sequence[str], ty: Type, args: Sequence[Relation],
             span: Optional[Span] = None) -> TypeRel:
    """Build a relational-interpretation node, normalizing slot order.

    Slots are reordered to first occurrence in `ty` and vacuous slots are
    dropped, so equal interpretations compare equal.
    """
    if len(names) != len(args):
        raise ValueError("type_rel: names/args arity mismatch")
    occ = free_type_names(ty)
    pairs = [(n, a) for n, a in zip(names, args) if n in occ]
    pairs.sort(key=lambda p: occ.index(p[0]))
    names2 = [n for n, _ in pairs]
    body = close_ty(ty, *names2)
    return TypeRel(tuple(names2), body, tuple(a for _, a in pairs), span)


def forall_ty_p(name: str, body: Proposition) -> ForallTy:
    return ForallTy(name, close_ty(body, name))


def exists_ty_p(name: str, body: Proposition) -> ExistsTy:
    return ExistsTy(name, close_ty(body, name))


def forall_tm_p(name: str, ty: Type, body: Proposition) -> ForallTm:
    return ForallTm(name, ty, close_tm(body, name))


def exists_tm_p(name: str, ty: Type, body: Proposition) -> ExistsTm:
    return ExistsTm(name, ty, close_tm(body, name))


def forall_rel_p(name: str, dom: Type, cod: Type, flavor: Flavor,
                 body: Proposition) -> ForallRel:
    return ForallRel(name, dom, cod, flavor, close_rel(body, name))


def exists_rel_p(name: str, dom: Type, cod: Type, flavor: Flavor,
                 body: Proposition) -> ExistsRel:
    return ExistsRel(name, dom, cod, flavor, close_rel(body, name))


# Binder openers (return fresh names and the opened body).


def open_forall(t: Forall, avoid: Iterable[str]) -> tuple[str, Type]:
    n = fresh(t.hint, avoid)
    return n, instantiate_ty(t.body, TyVar(n))


def open_ty_lam(t: TyLam, avoid: Iterable[str]) -> tuple[str, Term]:
    n = fresh(t.hint, avoid)
    return n, instantiate_ty(t.body, TyVar(n))


def open_lin_lam(t: LinLam, avoid: Iterable[str]) -> tuple[str, Term]:
    n = fresh(t.hint, avoid)
    return n, instantiate_tm(t.body, Var(n))


def open_let_tensor(t: LetTensor, avoid: Iterable[str]) -> tuple[str, str, Term]:
    x, y = fresh_many([t.hintx, t.hinty], avoid)
    return x, y, instantiate_tm(t.body, Var(x), Var(y))


def open_let_bang(t: LetBang, avoid: Iterable[str]) -> tuple[str, Term]:
    n = fresh(t.hint, avoid)
    return n, instantiate_tm(t.body, Var(n))


def open_compr(r: Compr, avoid: Iterable[str]) -> tuple[str, str, Proposition]:
    x, y = fresh_many([r.hintx, r.hinty], avoid)
    return x, y, instantiate_tm(r.body, Var(x), Var(y))


# ---------------------------------------------------------------------------
# Term builders


def v(name: str) -> Var:
    return Var(name)


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def tyapp(fn: Term, *tys: Type) -> Term:
    for t in tys:
        fn = TyApp(fn, t)
    return fn


def bang(t: Term) -> BangIntro:
    return BangIntro(t)


def tensor_pair(l: Term, r: Term) -> TensorPair:
    return TensorPair(l, r)


def id_at(ty: Type, name: str = "x") -> Term:
    """Linear identity at a type."""
    return lin_lam(name, ty, Var(name))


def poly_id() -> Term:
    """The polymorphic identity /\\a. fn x:a. x."""
    return ty_lam("a", lin_lam("x", TyVar("a"), Var("x")))


def lam_int(name: str, ty: Type, body: Term) -> Term:
    """Intuitionistic lambda sugar: fn y:!ty. let !name = y in body."""
    carrier = fresh(name, all_free_names(body) | {name})
    return lin_lam(carrier, Bang(ty), let_bang(name, ty, Var(carrier), body))


def lam_ints(bindings: Sequence[tuple[str, Type]], body: Term) -> Term:
    for name, ty in reversed(bindings):
        body = lam_int(name, ty, body)
    return body


def compose(f: Term, g: Term, dom: Type, name: str = "x") -> Term:
    """fn x:dom. f (g x)."""
    n = fresh(name, all_free_names(f) | all_free_names(g))
    return lin_lam(n, dom, App(f, App(g, Var(n))))


def arrow(dom: Type, cod: Type) -> Type:
    """Intuitionistic function type: !dom -o cod."""
    return Lolli(Bang(dom), cod)


def y_type() -> Type:
    """The type of the fixed-point combinator: all a. !(!a -o a) -o a."""
    a = TyVar("a")
    return forall("a", Lolli(Bang(Lolli(Bang(a), a)), a))


def alpha_eq(a: Node, b: Node) -> bool:
    """Alpha-equivalence; hints and spans are excluded from equality."""
    return a == b


def rel_signature(r: Relation) -> tuple[Type, Type]:
    """Domain and codomain of a locally closed relation."""
    if isinstance(r, RelVar):
        return r.dom, r.cod
    if isinstance(r, Compr):
        return r.tyx, r.tyy
    if isinstance(r, TypeRel):
        doms = [rel_signature(a)[0] for a in r.args]
        cods = [rel_signature(a)[1] for a in r.args]
        return instantiate_ty(r.body, *doms), instantiate_ty(r.body, *cods)
    raise ValueError("relation has no standalone signature (bound variable)")
