"""Abstract syntax for the calculus and its relational logic.

Four syntactic categories: types, terms, relations and propositions.
Bound variables are nameless (de Bruijn indices, one counter per
namespace: type variables, term variables, relation variables); free
variables are named.  Binder nodes keep the surface name as a hint that
is excluded from equality, so dataclass `==` is alpha-equivalence; so
are spans, and let annotations, which the type checker makes agree with
the scrutinee.

All public constructors expect locally closed arguments (no dangling
indices); the index-shifting primitives at the bottom are for internal
use by the rewriter and checker.  `CHILDREN` is the one place that lists
a node class's children and the binders each sits under; `map_node`,
`subnodes`, `rebuild` and the loose bounds below, and the rewriter's
congruence walk and its table of let-hoisting positions, all read it.
Each variable operation is one `VarMap`, whose two hooks, `free` and
`bound`, get the variable's namespace and whose `from_` bounds the loose
indices it acts on.  Each node of all four sorts caches, on first use
and outside its dataclass fields, one more than its largest loose index
in each namespace, and its free type, term and relation names in
first-occurrence order.  Shifting and
instantiation return a subtree with no loose index they act on without
walking it; closing and substitution (`close_*`, `subst_*`) return one
that lacks the names they act on.  The free-name queries read the root's
cache, so they cost the number of names on a cached node.  A term node
also holds the type checker's cache of its type; `rebuild` drops all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Iterable, Optional, Sequence


@dataclass(frozen=True)
class Span:
    start: int
    end: int


def _hint(default: str = "a"):
    return field(default=default, compare=False, repr=False)


def _span():
    return field(default=None, compare=False, repr=False)


def _annotation():
    """A let's optional annotation: the type checker rejects one that
    disagrees with the scrutinee, so it is excluded from equality."""
    return field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Types


class Type:
    __slots__ = ()
    _lb = None  # cached loose bounds, see _loose; not a dataclass field
    _fn = None  # cached free names, see _free; not a dataclass field


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
    _fn = None  # cached free names, see _free; not a dataclass field
    _ty = None  # cached (type, elaboration or None), see typecheck


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
    tyx: Optional[Type] = _annotation()
    tyy: Optional[Type] = _annotation()
    scrut: Term = None
    body: Term = None
    span: Optional[Span] = _span()


@dataclass(frozen=True)
class LetBang(Term):
    hint: str = _hint("x")
    ty: Optional[Type] = _annotation()
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
    _lb = None  # cached loose bounds, see _loose; not a dataclass field
    _fn = None  # cached free names, see _free; not a dataclass field


class Proposition:
    __slots__ = ()
    _lb = None  # cached loose bounds, see _loose; not a dataclass field
    _fn = None  # cached free names, see _free; not a dataclass field


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


@dataclass
class RelContext:
    """Ordered relational context: name -> (domain, codomain, flavor)."""

    entries: dict[str, tuple[Type, Type, Flavor]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The child table: the one place that lists a node's children


def _c(name: str, sort: type, ty: int = 0, tm: int = 0, rel: int = 0):
    return (name, sort, ty, tm, rel)


_HINTS = -1  # stands for one type binder per hint (TypeRel.body)

# Every inner node class with its children in field order.  A child is
# (field, sort, type binders, term binders, relation binders): the sort
# of the node(s) the field holds and how many binders of each namespace
# it sits under.  A let annotation may be None, and `TyConst.args` and
# `TypeRel.args` are tuples.  Every other class is a leaf.
CHILDREN: dict[type, tuple[tuple[str, type, int, int, int], ...]] = {
    Lolli: (_c("dom", Type), _c("cod", Type)),
    Tensor: (_c("left", Type), _c("right", Type)),
    Bang: (_c("body", Type),),
    Forall: (_c("body", Type, ty=1),),
    TyConst: (_c("args", Type),),
    LinLam: (_c("ty", Type), _c("body", Term, tm=1)),
    App: (_c("fn", Term), _c("arg", Term)),
    TensorPair: (_c("left", Term), _c("right", Term)),
    BangIntro: (_c("body", Term),),
    TyLam: (_c("body", Term, ty=1),),
    TyApp: (_c("fn", Term), _c("ty", Type)),
    LetStar: (_c("scrut", Term), _c("body", Term)),
    LetTensor: (_c("tyx", Type), _c("tyy", Type), _c("scrut", Term),
                _c("body", Term, tm=2)),
    LetBang: (_c("ty", Type), _c("scrut", Term), _c("body", Term, tm=1)),
    RelVar: (_c("dom", Type), _c("cod", Type)),
    Compr: (_c("tyx", Type), _c("tyy", Type), _c("body", Proposition, tm=2)),
    TypeRel: (_c("body", Type, ty=_HINTS), _c("args", Relation)),
    InternalEq: (_c("ty", Type), _c("lhs", Term), _c("rhs", Term)),
    RelApp: (_c("rel", Relation), _c("lhs", Term), _c("rhs", Term)),
    **{cls: (_c("left", Proposition), _c("right", Proposition))
       for cls in (Implies, And, Or)},
    **{cls: (_c("body", Proposition, ty=1),) for cls in (ForallTy, ExistsTy)},
    **{cls: (_c("ty", Type), _c("body", Proposition, tm=1))
       for cls in (ForallTm, ExistsTm)},
    **{cls: (_c("dom", Type), _c("cod", Type),
             _c("body", Proposition, rel=1))
       for cls in (ForallRel, ExistsRel)},
}


_new = object.__new__  # a global read is cheaper, and rebuild is hot


def rebuild(n: Node, changes: dict[str, object]) -> Node:
    """`n` with the fields in `changes` replaced and every other field,
    hints and span included, kept.  Copies the instance dictionary, as
    `copy.copy` does, without the cached loose bounds, free names and type."""
    new = _new(type(n))
    d = new.__dict__
    d.update(n.__dict__)
    d.pop("_lb", None)
    d.pop("_fn", None)
    d.pop("_ty", None)
    d.update(changes)
    return new


def subnodes(obj: Node):
    """Every node in `obj`, outermost first, children in field order."""
    todo = [obj]
    while todo:
        x = todo.pop()
        yield x
        for name, *_ in reversed(CHILDREN.get(type(x), ())):
            c = getattr(x, name)
            if type(c) is tuple:
                todo.extend(reversed(c))
            elif c is not None:
                todo.append(c)


# ---------------------------------------------------------------------------
# Generic traversal

# Env is the triple of binder depths (type vars, term vars, relation vars)
# between the traversal root and the current node.
Env = tuple[int, int, int]


# The value of `VarMap.skips` for a map that skips by free names.
BY_NAMES = "names"


class VarMap:
    """Identity transformation; subclasses hook the variable cases.

    `map_node` calls `free(node, ns, env)` on a named variable and
    `bound(node, ns, env)` on a bound one, `ns` being the variable's
    namespace (0 type, 1 term, 2 relation); on a relation variable it
    calls `free` after mapping its domain and codomain.  A map that acts
    on one namespace tests `ns` first.  A map whose `skips` is set lets
    `map_node` return a subtree as it is, without walking it, where its
    hooks cannot change the subtree:
    - `skips = True`: the hooks change nothing free and, in namespace i,
      only bound indices at or above `depth + from_[i]`, None meaning no
      index in that namespace; a subtree with no such loose index is
      skipped;
    - `skips = BY_NAMES`: the hooks change no bound index and only the
      free names in `names` of namespace `ns`; a subtree whose cached
      free names of that namespace miss them is skipped.
    """

    skips = False
    names: frozenset[str] = frozenset()
    ns = 0
    from_: tuple[int | None, int | None, int | None] = (0, 0, 0)

    def free(self, node: Node, ns: int, env: Env) -> Node:
        return node

    def bound(self, node: Node, ns: int, env: Env) -> Node:
        return node


_CLOSED = (0, 0, 0)


def _loose(n: Node) -> tuple[int, int, int]:
    """(1 + largest loose type index, 1 + largest loose term index, 1 +
    largest loose relation index) of a node, 0 where there is none;
    computed once per node and cached outside the dataclass fields."""
    lb = n._lb
    if lb is None:
        ty = tm = rel = 0
        for name, _, dt, dm, dr in CHILDREN[type(n)]:
            c = getattr(n, name)
            if c is None:
                continue
            if dt == _HINTS:
                dt = len(n.hints)
            for x in c if type(c) is tuple else (c,):
                cty, ctm, crel = x._lb or _loose(x)
                if cty - dt > ty:
                    ty = cty - dt
                if ctm - dm > tm:
                    tm = ctm - dm
                if crel - dr > rel:
                    rel = crel - dr
        lb = (ty, tm, rel) if ty or tm or rel else _CLOSED
        n.__dict__["_lb"] = lb
    return lb


# Leaves hold their bounds on the class: closed, or read off the index.
TyVar._lb = Unit._lb = Var._lb = Star._lb = Y._lb = _CLOSED
Top._lb = Bottom._lb = _CLOSED
TyBound._lb = property(lambda n: (n.index + 1, 0, 0))
Bound._lb = property(lambda n: (0, n.index + 1, 0))
RelBound._lb = property(lambda n: (0, 0, n.index + 1))


def _fill(n: Node, key: str, compute) -> None:
    """Call `compute` on every node of n whose `key` cache is empty,
    children before parents.  The nodes are listed outermost first with
    an explicit stack and computed in reverse, so `compute` finds every
    child cached and deep input does not recurse."""
    todo, order = [n], []
    while todo:
        x = todo.pop()
        order.append(x)
        for kid in CHILDREN[type(x)]:
            c = getattr(x, kid[0])
            if type(c) is tuple:
                todo.extend(a for a in c if getattr(a, key) is None)
            elif c is not None and getattr(c, key) is None:
                todo.append(c)
    for x in reversed(order):
        compute(x)


def loose_bounds(n: Node) -> tuple[int, int, int]:
    """`_loose` for input that may be deep: fills the cache children
    first, with an explicit stack."""
    if n._lb is None:
        _fill(n, "_lb", _loose)
    return n._lb


_NO_NAMES = ((), (), ())


def _merge(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The names of `a`, then those of `b` that `a` lacks."""
    if not a or a is b:
        return b
    extra = [x for x in b if x not in a]
    return a + tuple(extra) if extra else a


def _free_of(x: Node) -> None:
    """Cache x's free names from its own name, if it is a relation
    variable, and its children's caches."""
    tys = tms = ()
    rels = (x.name,) if type(x) is RelVar else ()
    for kid in CHILDREN[type(x)]:
        c = getattr(x, kid[0])
        if c is None:
            continue
        for y in c if type(c) is tuple else (c,):
            cty, ctm, crel = y._fn
            if cty:
                tys = _merge(tys, cty)
            if ctm:
                tms = _merge(tms, ctm)
            if crel:
                rels = _merge(rels, crel)
    x.__dict__["_fn"] = (tys, tms, rels) if tys or tms or rels else _NO_NAMES


def _free(n: Node) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(free type names, free term names, free relation names) of a node,
    each in first-occurrence order; computed once per node, children
    first with an explicit stack, and cached outside the dataclass
    fields.  Bound variables are nameless, so every named variable is
    free."""
    if n._fn is None:
        _fill(n, "_fn", _free_of)
    return n._fn


# Leaves hold their names on the class: none, or their own.
TyBound._fn = Unit._fn = Bound._fn = Star._fn = Y._fn = _NO_NAMES
RelBound._fn = Top._fn = Bottom._fn = _NO_NAMES
TyVar._fn = property(lambda n: ((n.name,), (), ()))
Var._fn = property(lambda n: ((), (n.name,), ()))

# What map_node does at each class: call the named hook (a variable),
# walk the children (an inner node), or nothing (a closed leaf).  _NS
# holds a variable's namespace, and _BOUND[ns] builds a bound one.
_WALK = {TyVar: "free", TyBound: "bound", Var: "free", Bound: "bound",
         RelBound: "bound", **CHILDREN}
_NS = {TyVar: 0, TyBound: 0, Var: 1, Bound: 1, RelBound: 2}
_BOUND = (TyBound, Bound, RelBound)


def map_node(n: Node, m: VarMap, td: int = 0, md: int = 0, rd: int = 0) -> Node:
    """Rebuild `n` with `m`'s hooks applied to its variables, as if `n`
    sat under td type, md term and rd relation binders; a subtree the
    hooks leave unchanged comes back as the same object."""
    cls = type(n)
    kids = _WALK.get(cls)
    if kids is None:
        return n
    if type(kids) is str:
        return getattr(m, kids)(n, _NS[cls], (td, md, rd))
    skips = m.skips
    if skips:
        if skips is BY_NAMES:
            if m.names.isdisjoint((n._fn or _free(n))[m.ns]):
                return n
        else:
            ty, tm, rel = n._lb or _loose(n)
            fty, ftm, frel = m.from_
            if ((fty is None or ty <= td + fty)
                    and (ftm is None or tm <= md + ftm)
                    and (frel is None or rel <= rd + frel)):
                return n
    if cls is TypeRel:  # its body sits under one type binder per hint
        kids = (("body", Type, len(n.hints), 0, 0), kids[1])
    changes = None
    for name, _, dt, dm, dr in kids:
        c = getattr(n, name)
        if c is None:
            continue
        if type(c) is tuple:
            d = tuple([map_node(a, m, td + dt, md + dm, rd + dr) for a in c])
            if all(a is b for a, b in zip(c, d)):
                continue
        else:
            d = map_node(c, m, td + dt, md + dm, rd + dr)
            if d is c:
                continue
        if changes is None:
            changes = {}
        changes[name] = d
    if changes is not None:
        n = rebuild(n, changes)
    if cls is RelVar:
        return m.free(n, 2, (td, md, rd))
    return n


# ---------------------------------------------------------------------------
# Substitution of free variables (replacements must be locally closed)


class _Subst(VarMap):
    skips = BY_NAMES

    def __init__(self, ns: int, mapping: dict[str, Node]):
        self.ns = ns
        self.mapping = mapping
        self.names = frozenset(mapping)

    def free(self, node, ns, env):
        if ns == self.ns:
            return self.mapping.get(node.name, node)
        return node


def subst_types(obj: Node, mapping: dict[str, Type]) -> Node:
    """Simultaneous capture-avoiding substitution of free type variables."""
    if not mapping:
        return obj
    return map_node(obj, _Subst(0, mapping))


def subst_terms(obj: Node, mapping: dict[str, Term]) -> Node:
    if not mapping:
        return obj
    return map_node(obj, _Subst(1, mapping))


def subst_type_in_type(ty: Type, name: str, rep: Type) -> Type:
    return subst_types(ty, {name: rep})


def subst_term_in_term(t: Term, name: str, rep: Term) -> Term:
    return subst_terms(t, {name: rep})


# ---------------------------------------------------------------------------
# Free variables


def free_type_names(obj: Node) -> list[str]:
    """Free type variable names in first-occurrence order."""
    return list(_free(obj)[0])


def free_term_names(obj: Node) -> list[str]:
    return list(_free(obj)[1])


def all_free_names(obj: Node) -> set[str]:
    tys, tms, rels = _free(obj)
    return {*tys, *tms, *rels}


def contains_const(obj: Node) -> bool:
    """True if any signature type constant occurs in obj."""
    return any(isinstance(x, TyConst) for x in subnodes(obj))


# ---------------------------------------------------------------------------
# Index shifting, binder instantiation and closing (internal machinery)


# `VarMap.from_` of a map that acts on the bound indices of one namespace.
_ONLY = ((0, None, None), (None, 0, None), (None, None, 0))


class _Shift(VarMap):
    skips = True

    def __init__(self, by: Env):
        self.by = by
        ty, tm, rel = by
        self.from_ = (0 if ty else None, 0 if tm else None, 0 if rel else None)

    def bound(self, node, ns, env):
        by = self.by[ns]
        if by and node.index >= env[ns]:
            return _BOUND[ns](node.index + by)
        return node


def shift(obj: Node, ty_by: int = 0, tm_by: int = 0, rel_by: int = 0,
          td: int = 0, md: int = 0, rd: int = 0) -> Node:
    """Shift dangling indices; used when a term moves across binders.

    td/md/rd start the traversal as if the object were already under that
    many binders, i.e. they act as shifting cutoffs.
    """
    if not (ty_by or tm_by or rel_by):
        return obj
    return map_node(obj, _Shift((ty_by, tm_by, rel_by)), td, md, rd)


class _Inst(VarMap):
    """Contract the len(args) innermost binders of namespace ns."""

    skips = True

    def __init__(self, ns: int, args: Sequence[Node]):
        self.ns = ns
        self.args = args
        self.n = len(args)
        self.from_ = _ONLY[ns]

    def bound(self, node, ns, env):
        k, d = node.index, env[ns]
        if ns != self.ns or k < d:
            return node
        j = k - d
        if j < self.n:
            return shift(self.args[self.n - 1 - j], *env)
        return _BOUND[ns](k - self.n)


def instantiate_tm(body: Node, *args: Term) -> Node:
    """Contract the len(args) innermost term binders of `body`.

    args[0] replaces the outermost of the contracted binders.
    """
    return map_node(body, _Inst(1, args))


def instantiate_ty(body: Node, *tys: Type) -> Node:
    """Contract the len(tys) innermost type binders of `body`."""
    return map_node(body, _Inst(0, tys))


def instantiate_rel(body: Node, *rels: Relation) -> Node:
    return map_node(body, _Inst(2, rels))


class _Close(VarMap):
    skips = BY_NAMES

    def __init__(self, ns: int, names: Sequence[str]):
        self.ns = ns
        self.order = names
        self.names = frozenset(names)
        self.n = len(names)

    def free(self, node, ns, env):
        if ns == self.ns and node.name in self.names:
            i = self.order.index(node.name)
            return _BOUND[ns](env[ns] + self.n - 1 - i)
        return node


def close_ty(obj: Node, *names: str) -> Node:
    """Abstract free type variables: names[0] becomes the outermost binder."""
    return map_node(obj, _Close(0, names))


def close_tm(obj: Node, *names: str) -> Node:
    return map_node(obj, _Close(1, names))


def close_rel(obj: Node, name: str) -> Node:
    return map_node(obj, _Close(2, (name,)))


class _UsesBound(VarMap):
    skips = True

    def __init__(self, ns: int, k: int):
        self.ns = ns
        self.k = k
        self.found = False
        self.from_ = _ONLY[ns]

    def bound(self, node, ns, env):
        if ns == self.ns and node.index == env[ns] + self.k:
            self.found = True
        return node


def uses_bound_tm(obj: Node, k: int = 0) -> bool:
    m = _UsesBound(1, k)
    map_node(obj, m)
    return m.found


def uses_bound_ty(obj: Node, k: int = 0) -> bool:
    m = _UsesBound(0, k)
    map_node(obj, m)
    return m.found


# ---------------------------------------------------------------------------
# Fresh names and binder helpers


# Reserved words, which `fresh` never returns: its numbered names hold digits.
KEYWORDS = {"all", "ex", "fn", "lam", "let", "in", "Y", "I", "T", "F",
            "Rel", "AdmRel", "term", "type", "rel"}
DIGITS = "0123456789"


def fresh(base: str, avoid: Container[str],
          floors: dict[str, int] | None = None) -> str:
    """`base` if `avoid` lacks it and it is no keyword, else base's root
    (base less its trailing digits) numbered with the smallest suffix from
    1 that `avoid` lacks.  `floors`, if given, maps a root to a suffix
    below which every numbered name of that root is in `avoid`: the search
    starts there, and the floor moves past the name returned, which the
    caller then adds to `avoid`."""
    if base and base not in avoid and base not in KEYWORDS:
        return base
    base = base or "x"
    root = base.rstrip(DIGITS) or base
    i = 1 if floors is None else floors.get(root, 1)
    while f"{root}{i}" in avoid:
        i += 1
    if floors is not None:
        floors[root] = i + 1
    return f"{root}{i}"


def fresh_many(bases: Sequence[str], avoid: Iterable[str]) -> list[str]:
    avoid = set(avoid)
    out = []
    for b in bases:
        n = fresh(b, avoid)
        avoid.add(n)
        out.append(n)
    return out


# Smart constructors: build binders from named, locally closed bodies.
# The parser resolves names as it reads and builds binder nodes directly;
# the encodings, relations and functor modules and the tests still build
# through these.


def forall(name: str, body: Type) -> Forall:
    return Forall(name, close_ty(body, name))


def foralls(names: Sequence[str], body: Type) -> Type:
    for n in reversed(names):
        body = forall(n, body)
    return body


def lin_lam(name: str, ty: Type, body: Term) -> LinLam:
    return LinLam(name, ty, close_tm(body, name))


def ty_lam(name: str, body: Term) -> TyLam:
    return TyLam(name, close_ty(body, name))


def ty_lams(names: Sequence[str], body: Term) -> Term:
    for n in reversed(names):
        body = ty_lam(n, body)
    return body


def let_tensor(x: str, y: str, tyx: Optional[Type], tyy: Optional[Type],
               scrut: Term, body: Term) -> LetTensor:
    return LetTensor(x, y, tyx, tyy, scrut, close_tm(body, x, y))


def let_bang(x: str, ty: Optional[Type], scrut: Term, body: Term) -> LetBang:
    return LetBang(x, ty, scrut, close_tm(body, x))


def compr(x: str, tyx: Type, y: str, tyy: Type, body: Proposition) -> Compr:
    return Compr(x, y, tyx, tyy, close_tm(body, x, y))


def type_rel(names: Sequence[str], ty: Type,
             args: Sequence[Relation]) -> TypeRel:
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
    return TypeRel(tuple(names2), body, tuple(a for _, a in pairs))


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


def open_compr(r: Compr, avoid: Iterable[str]) -> tuple[str, str, Proposition]:
    x, y = fresh_many([r.hintx, r.hinty], avoid)
    return x, y, instantiate_tm(r.body, Var(x), Var(y))


# ---------------------------------------------------------------------------
# Term builders


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


def compose(f: Term, g: Term, dom: Type) -> Term:
    """fn x:dom. f (g x)."""
    n = fresh("x", all_free_names(f) | all_free_names(g))
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
        sigs = [rel_signature(a) for a in r.args]
        return (instantiate_ty(r.body, *[dom for dom, _ in sigs]),
                instantiate_ty(r.body, *[cod for _, cod in sigs]))
    raise ValueError("relation has no standalone signature (bound variable)")
