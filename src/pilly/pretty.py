"""Printers for the four syntactic categories.

Output re-parses to an alpha-equal object.  `sugar=True` additionally
folds `!s -o t` into `s -> t` and the intuitionistic-lambda pattern into
`lam x:s. t`; both forms re-parse to the identical core object.

A printing walks its node once and never builds a renamed copy of a
binder body.  It names each binder fresh against the names in scope and
keeps a stack of names per namespace (type, term, relation): bound index
k prints as the name k places below the top of its namespace's stack.
"""

from __future__ import annotations

from .syntax import (
    And, App, Bang, BangIntro, Bottom, Bound, Compr, ExistsRel, ExistsTm,
    ExistsTy, Forall, ForallRel, ForallTm, ForallTy, Implies, InternalEq,
    LetBang, LetStar, LetTensor, LinLam, Lolli, Node, Or, Proposition, RelApp,
    RelBound, Relation, RelVar, Star, Tensor, TensorPair, Term, Top, TyBound,
    Type, TypeRel, TyApp, TyConst, TyLam, TyVar, Unit, Var, Y,
    DIGITS, all_free_names, fresh, uses_bound_tm,
)

# precedence levels; a node prints bare when its level >= the requested one
# (types reuse them: binders 0, -o/-> at 1, * at 2, ! at 3, atoms at 4)
_BIND, _TENSOR, _APP, _BANG, _ATOM = 0, 1, 2, 3, 4
_PBIND, _PIMP, _POR, _PAND, _PATOM = 0, 1, 2, 3, 4
_TY, _TM, _REL = 0, 1, 2  # namespaces, as in syntax
# each connective's symbol, level, and left and right operand levels
_CONNECTIVES = {Implies: ("=>", _PIMP, _POR, _PIMP),
                Or: ("\\/", _POR, _POR, _PAND),
                And: ("/\\", _PAND, _PAND, _PATOM)}


def _wrap(s: str, level: int, prec: int) -> str:
    return s if level >= prec else f"({s})"


class _Printer:
    """One printing of one root.  `avoid` holds the root's free names and
    the names of the binders in scope, `names[ns]` the names of namespace
    ns's binders in scope, innermost last, and `floors` `fresh`'s suffix
    floor per root, which a pop lowers again, so a name costs amortized
    O(1).  A binder case prints what lies outside its scope, then pushes,
    prints its body and pops in one frame."""

    def __init__(self, root: Node, sugar: bool):
        self.avoid = set(all_free_names(root))
        self.names: tuple[list, list, list] = ([], [], [])
        self.floors: dict[str, int] = {}
        self.sugar = sugar

    def push(self, ns: int, hint: str) -> str:
        n = fresh(hint, self.avoid, self.floors)
        self.avoid.add(n)
        self.names[ns].append(n)
        return n

    def pop(self, ns: int, s: str, count: int = 1) -> str:
        """Close the scope `s` was printed in: pop `count` names of ns."""
        for _ in range(count):
            n = self.names[ns].pop()
            self.avoid.discard(n)
            root = n.rstrip(DIGITS) if n else ""
            if root in self.floors and root != n:
                self.floors[root] = min(self.floors[root], int(n[len(root):]))
        return s

    def bound(self, ns: int, k: int) -> str:
        names = self.names[ns]
        if k < len(names):
            return names[-1 - k]
        if ns == _REL:  # shown with its index counted from the root
            return f"<?rel {RelBound(k - len(names))!r}>"
        kind = "type " if ns == _TY else ""
        raise ValueError(f"dangling {kind}index while printing")

    def ty(self, t: Type, prec: int) -> str:
        if isinstance(t, TyVar):
            return t.name
        if isinstance(t, TyBound):
            return self.bound(_TY, t.index)
        if isinstance(t, Unit):
            return "I"
        if isinstance(t, Forall):
            n = self.push(_TY, t.hint)
            s = self.pop(_TY, f"all {n}. {self.ty(t.body, 0)}")
            return _wrap(s, _BIND, prec)
        if isinstance(t, Lolli):
            arrow = self.sugar and isinstance(t.dom, Bang)
            dom = self.ty(t.dom.body if arrow else t.dom, _APP)
            s = f"{dom} {'->' if arrow else '-o'} {self.ty(t.cod, _TENSOR)}"
            return _wrap(s, _TENSOR, prec)
        if isinstance(t, Tensor):
            s = f"{self.ty(t.left, _APP)} * {self.ty(t.right, _BANG)}"
            return _wrap(s, _APP, prec)
        if isinstance(t, Bang):
            return f"!{self.ty(t.body, _ATOM)}"
        if isinstance(t, TyConst):
            args = "".join([f" {self.ty(a, _ATOM)}" for a in t.args])
            return f"({t.name}{args})" if args else t.name
        return f"<?ty {t!r}>"

    def tm(self, t: Term, prec: int) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Bound):
            return self.bound(_TM, t.index)
        if isinstance(t, Star):
            return "<>"
        if isinstance(t, Y):
            return "Y"
        if isinstance(t, LinLam):
            s = self.lam_sugar(t) if self.sugar else None
            if s is None:
                ty = self.ty(t.ty, 0)
                n = self.push(_TM, t.hint)
                s = self.pop(_TM, f"fn {n}:{ty}. {self.tm(t.body, 0)}")
            return _wrap(s, _BIND, prec)
        if isinstance(t, TyLam):
            n = self.push(_TY, t.hint)
            s = self.pop(_TY, f"/\\{n}. {self.tm(t.body, 0)}")
            return _wrap(s, _BIND, prec)
        if isinstance(t, App):
            s = f"{self.tm(t.fn, _APP)} {self.tm(t.arg, _BANG)}"
            return _wrap(s, _APP, prec)
        if isinstance(t, TyApp):
            s = f"{self.tm(t.fn, _APP)} [{self.ty(t.ty, 0)}]"
            return _wrap(s, _APP, prec)
        if isinstance(t, TensorPair):
            s = f"{self.tm(t.left, _TENSOR)} (*) {self.tm(t.right, _APP)}"
            return _wrap(s, _TENSOR, prec)
        if isinstance(t, BangIntro):
            return f"!{self.tm(t.body, _ATOM)}"
        if isinstance(t, LetStar):
            s = f"let <> = {self.tm(t.scrut, 0)} in {self.tm(t.body, 0)}"
            return _wrap(s, _BIND, prec)
        if isinstance(t, LetTensor):
            ann = (f" : {self.ty(Tensor(t.tyx, t.tyy), 0)}"
                   if t.tyx is not None and t.tyy is not None else "")
            scrut = self.tm(t.scrut, 0)
            x, y = self.push(_TM, t.hintx), self.push(_TM, t.hinty)
            s = self.pop(_TM, f"let {x} (*) {y}{ann} = {scrut} in "
                              f"{self.tm(t.body, 0)}", 2)
            return _wrap(s, _BIND, prec)
        if isinstance(t, LetBang):
            ann = f" : {self.ty(t.ty, 0)}" if t.ty is not None else ""
            scrut = self.tm(t.scrut, 0)
            x = self.push(_TM, t.hint)
            s = self.pop(_TM, f"let !{x}{ann} = {scrut} in "
                              f"{self.tm(t.body, 0)}")
            return _wrap(s, _BIND, prec)
        return f"<?tm {t!r}>"

    def lam_sugar(self, t: LinLam) -> str | None:
        """Fold fn y:!s. let !x = y in b (y unused in b) into lam x:s. b."""
        inner = t.body
        if not (isinstance(t.ty, Bang) and isinstance(inner, LetBang)
                and inner.scrut == Bound(0)
                and (inner.ty is None or inner.ty == t.ty.body)
                and not uses_bound_tm(inner.body, 1)):
            return None
        ty = self.ty(t.ty.body, 0)
        self.names[_TM].append(None)  # y, which b does not use
        x = self.push(_TM, inner.hint)
        return self.pop(_TM, f"lam {x}:{ty}. {self.tm(inner.body, 0)}", 2)

    def rel(self, r: Relation, atom: bool) -> str:
        if isinstance(r, RelVar):
            return r.name
        if isinstance(r, RelBound):
            return self.bound(_REL, r.index)
        if isinstance(r, Compr):
            tyx, tyy = self.ty(r.tyx, 0), self.ty(r.tyy, 0)
            x, y = self.push(_TM, r.hintx), self.push(_TM, r.hinty)
            s = self.pop(_TM, f"({x}:{tyx}, {y}:{tyy}). "
                              f"{self.prop(r.body, 0)}", 2)
            return f"({s})" if atom else s
        if isinstance(r, TypeRel):
            args = ", ".join([self.rel(a, False) for a in r.args])
            for h in r.hints:
                self.push(_TY, h)
            body = self.ty(r.body, _APP)
            return f"{self.pop(_TY, body, len(r.hints))}[{args}]"
        return f"<?rel {r!r}>"

    def prop(self, p: Proposition, prec: int) -> str:
        if isinstance(p, (Top, Bottom)):
            return "T" if isinstance(p, Top) else "F"
        if isinstance(p, InternalEq):
            s = (f"{self.tm(p.lhs, _TENSOR)} =_{{{self.ty(p.ty, 0)}}} "
                 f"{self.tm(p.rhs, _TENSOR)}")
            return _wrap(s, _PATOM, prec)
        if isinstance(p, RelApp):
            return (f"{self.rel(p.rel, True)}({self.tm(p.lhs, 0)}, "
                    f"{self.tm(p.rhs, 0)})")
        if isinstance(p, (Implies, Or, And)):
            op, level, left, right = _CONNECTIVES[type(p)]
            s = f"{self.prop(p.left, left)} {op} {self.prop(p.right, right)}"
            return _wrap(s, level, prec)
        if isinstance(p, (ForallTy, ExistsTy)):
            ns, sort = _TY, ""
        elif isinstance(p, (ForallTm, ExistsTm)):
            ns, sort = _TM, f":{self.ty(p.ty, 0)}"
        elif isinstance(p, (ForallRel, ExistsRel)):
            ns, sort = _REL, (f" : {p.flavor.value}({self.ty(p.dom, 0)}, "
                              f"{self.ty(p.cod, 0)})")
        else:
            return f"<?prop {p!r}>"
        kw = "all" if isinstance(p, (ForallTy, ForallTm, ForallRel)) else "ex"
        n = self.push(ns, p.hint)
        s = self.pop(ns, f"{kw} {n}{sort}. {self.prop(p.body, 0)}")
        return _wrap(s, _PBIND, prec)


def print_type(t: Type, sugar: bool = False) -> str:
    return _Printer(t, sugar).ty(t, 0)


def print_term(t: Term, sugar: bool = False) -> str:
    return _Printer(t, sugar).tm(t, 0)


def print_rel(r: Relation, sugar: bool = False) -> str:
    return _Printer(r, sugar).rel(r, False)


def print_prop(p: Proposition, sugar: bool = False) -> str:
    return _Printer(p, sugar).prop(p, 0)


def pp(n: Node, sugar: bool = False) -> str:
    printer = (print_type if isinstance(n, Type) else
               print_term if isinstance(n, Term) else
               print_rel if isinstance(n, Relation) else print_prop)
    return printer(n, sugar)
