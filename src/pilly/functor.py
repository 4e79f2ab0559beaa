"""Variance analysis and synthesis of functorial actions.

One sign rule, read off the child table, answers every variance question:
the domain of `-o` flips the sign, every other child keeps it, and an
opaque constant's arguments count as both signs.

For a type s with one variable occurring only negatively and one only
positively, `synthesize_m` builds the closed term that acts on a pair of
maps, of type

    all a. all b. all a'. all b'.
      (a' -o a) -> (b -o b') -> s(a,b) -o s(a',b')

Subtrees not mentioning either variable get the identity action, which
also covers I, foreign variables and closed types.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .rewrite import EqResult, RewriteConfig, equal
from .syntax import (CHILDREN, Bang, Forall, Lolli, Tensor, TermContext,
                     TyConst, TyVar, Type, Unit, arrow, free_type_names, fresh,
                     fresh_many)


class PolarityViolation(Exception):
    pass


class NotInductivelyConstructed(Exception):
    pass


@dataclass(frozen=True)
class Polarity:
    positive: bool
    negative: bool


_NEITHER = Polarity(False, False)
# Signs are 1, -1 and 0 (both); a child field's sign is its parent's times
# its factor, 1 where _FACTOR does not list it.
_FACTOR = {(Lolli, "dom"): -1, (TyConst, "args"): 0}
_SIGNED = {cls: [(name, _FACTOR.get((cls, name), 1)) for name, *_ in kids]
           for cls, kids in CHILDREN.items()}


def _signed_children(t: Type, sign: int) -> list[tuple[str, object, int]]:
    """(field, child, sign) for each child field of t, in order; a
    constant's arguments are one tuple."""
    return [(name, getattr(t, name), sign * k)
            for name, k in _SIGNED.get(type(t), ())]


def variance(ty: Type) -> dict[str, Polarity]:
    """The occurrence signs of every free type variable of ty, in
    first-occurrence order, from one walk on an explicit stack."""
    seen = {n: set() for n in free_type_names(ty)}
    todo = [(ty, 1)]
    while todo:
        t, sign = todo.pop()
        if type(t) is TyVar:
            seen[t.name].add(sign)
        for _, c, s in _signed_children(t, sign):
            todo.extend([(a, s) for a in c] if type(c) is tuple else [(c, s)])
    return {n: Polarity(max(s) >= 0, min(s) <= 0) for n, s in seen.items()}


def polarity(ty: Type, name: str) -> Polarity:
    """Occurrence signs of one free type variable; see `variance`."""
    return variance(ty).get(name, _NEITHER)


def forbid(ty: Type, names: list[str], positive: bool, message: str) -> None:
    """Raise PolarityViolation on the first of names that occurs in ty
    with the given sign, formatting message with the name and the sign."""
    signs = variance(ty) if names else {}
    for nm in names:
        pol = signs.get(nm, _NEITHER)
        if pol.positive if positive else pol.negative:
            raise PolarityViolation(message.format(
                nm, "positively" if positive else "negatively"))


@dataclass(frozen=True)
class SplitType:
    split: Type
    neg_var: str
    pos_var: str

    def resubstituted(self, name: str) -> Type:
        return S.subst_types(self.split,
                             {self.neg_var: TyVar(name), self.pos_var: TyVar(name)})


def split_occurrences(ty: Type, name: str) -> SplitType:
    """Split occurrences of a variable by sign into two fresh variables."""
    neg_var, pos_var = fresh_many([name + "n", name + "p"],
                                  {*free_type_names(ty), name})

    def go(t: Type, sign: int) -> Type:
        if name not in free_type_names(t):
            return t
        if type(t) is TyVar:
            return TyVar(pos_var if sign > 0 else neg_var)
        if type(t) is TyConst:
            raise NotInductivelyConstructed(
                f"variable {name!r} occurs inside constant {t.name!r}")
        return S.rebuild(t, {f: go(c, s)
                             for f, c, s in _signed_children(t, sign)})

    return SplitType(go(ty, 1), neg_var, pos_var)


def _act(s: Type, vn: str, vp: str, ns: Type, ps: Type, nd: Type, pd: Type,
         f: S.Term, g: S.Term, avoid: set[str]) -> S.Term:
    """Action term of type s[vn:=ns, vp:=ps] -o s[vn:=nd, vp:=pd],
    given f : nd -o ns and g : ps -o pd."""
    frees = free_type_names(s)
    if vn not in frees and vp not in frees:
        return S.id_at(s, fresh("x", avoid))

    def src(t: Type) -> Type:
        return S.subst_types(t, {vn: ns, vp: ps})

    def dst(t: Type) -> Type:
        return S.subst_types(t, {vn: nd, vp: pd})

    if isinstance(s, Lolli):
        h = fresh("h", avoid)
        x = fresh("x", avoid | {h})
        c_act = _act(s.cod, vn, vp, ns, ps, nd, pd, f, g, avoid | {h, x})
        d_act = _act(s.dom, vp, vn, pd, nd, ps, ns, g, f, avoid | {h, x})
        body = S.app(c_act, S.app(S.Var(h), S.app(d_act, S.Var(x))))
        return S.lin_lam(h, src(s), S.lin_lam(x, dst(s.dom), body))
    if isinstance(s, Tensor):
        z = fresh("z", avoid)
        x = fresh("x", avoid | {z})
        y = fresh("y", avoid | {z, x})
        l_act = _act(s.left, vn, vp, ns, ps, nd, pd, f, g, avoid | {z, x, y})
        r_act = _act(s.right, vn, vp, ns, ps, nd, pd, f, g, avoid | {z, x, y})
        body = S.tensor_pair(S.app(l_act, S.Var(x)), S.app(r_act, S.Var(y)))
        return S.lin_lam(z, src(s), S.let_tensor(
            x, y, src(s.left), src(s.right), S.Var(z), body))
    if isinstance(s, Bang):
        x = fresh("x", avoid)
        y = fresh("y", avoid | {x})
        b_act = _act(s.body, vn, vp, ns, ps, nd, pd, f, g, avoid | {x, y})
        return S.lin_lam(x, src(s), S.let_bang(
            y, src(s.body), S.Var(x),
            S.bang(S.app(b_act, S.Var(y)))))
    if isinstance(s, Forall):
        w = fresh(s.hint, avoid | {vn, vp})
        opened = S.instantiate_ty(s.body, TyVar(w))
        z = fresh("z", avoid | {w})
        b_act = _act(opened, vn, vp, ns, ps, nd, pd, f, g, avoid | {w, z})
        return S.lin_lam(z, src(s), S.ty_lam(
            w, S.app(b_act, S.tyapp(S.Var(z), TyVar(w)))))
    return g  # synthesize_m's checks leave only the variable vp here


def m_declared_type(ty: Type, neg: str, pos: str) -> Type:
    """The polymorphic type the synthesized action checks at."""
    avoid = set(free_type_names(ty)) | {neg, pos}
    a, b, a2, b2 = fresh_many(["a", "b", "a'", "b'"], avoid)
    s_ab = S.subst_types(ty, {neg: TyVar(a), pos: TyVar(b)})
    s_a2b2 = S.subst_types(ty, {neg: TyVar(a2), pos: TyVar(b2)})
    core = arrow(Lolli(TyVar(a2), TyVar(a)),
                 arrow(Lolli(TyVar(b), TyVar(b2)),
                       Lolli(s_ab, s_a2b2)))
    return S.foralls([a, b, a2, b2], core)


def _check_constants(ty: Type, neg: str, pos: str) -> None:
    for t in S.subnodes(ty):
        if isinstance(t, TyConst) and {neg, pos} & set(free_type_names(t)):
            raise NotInductivelyConstructed(
                f"cannot act on constant {t.name!r} mentioning "
                f"{neg!r} or {pos!r}")


def synthesize_m(ty: Type, neg: str, pos: str) -> S.Term:
    """Closed action term for a type with split variances."""
    _check_constants(ty, neg, pos)
    forbid(ty, [neg], True, "{!r} must occur only negatively")
    forbid(ty, [pos], False, "{!r} must occur only positively")
    avoid = set(free_type_names(ty)) | {neg, pos}
    a, b, a2, b2, f, g = fresh_many(["a", "b", "a'", "b'", "f", "g"], avoid)
    s_ab = S.subst_types(ty, {neg: TyVar(a), pos: TyVar(b)})
    act = _act(s_ab, a, b, TyVar(a), TyVar(b), TyVar(a2), TyVar(b2),
               S.Var(f), S.Var(g), avoid | {a, b, a2, b2, f, g})
    core = S.lam_int(f, Lolli(TyVar(a2), TyVar(a)),
                     S.lam_int(g, Lolli(TyVar(b), TyVar(b2)), act))
    return S.ty_lams([a, b, a2, b2], core)


def apply_action(ty: Type, neg: str, pos: str,
                 neg_insts: tuple[Type, Type], pos_insts: tuple[Type, Type],
                 f: S.Term, g: S.Term) -> S.Term:
    """s(f,g): the action applied at concrete instantiations.

    f : neg_insts[1] -o neg_insts[0], g : pos_insts[0] -o pos_insts[1];
    the result maps s[neg_insts[0], pos_insts[0]] to
    s[neg_insts[1], pos_insts[1]].
    """
    m = synthesize_m(ty, neg, pos)
    return S.app(S.tyapp(m, neg_insts[0], pos_insts[0],
                         neg_insts[1], pos_insts[1]),
                 S.bang(f), S.bang(g))


def apply_action_inferred(ty: Type, neg: str, pos: str, f: S.Term, g: S.Term,
                          ctx: TermContext | None = None) -> S.Term:
    """s(f,g) with the four instantiations read off the types of f and g.

    f must have a linear function type a' -o a (contravariant slot) and
    g a type b -o b' (covariant slot) in the given context.
    """
    from .typecheck import infer_type
    ctx = ctx or TermContext()
    fty = infer_type(ctx, f).ty
    gty = infer_type(ctx, g).ty
    if not isinstance(fty, Lolli) or not isinstance(gty, Lolli):
        raise PolarityViolation("action arguments must be linear functions")
    return apply_action(ty, neg, pos, (fty.cod, fty.dom), (gty.dom, gty.cod),
                        f, g)


def action_cov(ty: Type, var: str, src: Type, dst: Type, h: S.Term) -> S.Term:
    """Covariant action s(h) : s[var:=src] -o s[var:=dst], h : src -o dst."""
    dummy = fresh(var + "_c", set(free_type_names(ty)) | {var})
    return apply_action(ty, dummy, var, (Unit(), Unit()), (src, dst),
                        S.id_at(Unit()), h)


def action_contra(ty: Type, var: str, h: S.Term, src: Type, dst: Type) -> S.Term:
    """Contravariant action s(h) : s[var:=src] -o s[var:=dst],
    h : dst -o src."""
    dummy = fresh(var + "_c", set(free_type_names(ty)) | {var})
    return apply_action(ty, var, dummy, (src, dst), (Unit(), Unit()),
                        h, S.id_at(Unit()))


def check_functor_laws(ty: Type, neg: str, pos: str,
                       cfg: RewriteConfig | None = None
                       ) -> tuple[EqResult, EqResult]:
    """Best-effort identity and composition laws through the rewriter."""
    cfg = cfg or RewriteConfig()
    m = synthesize_m(ty, neg, pos)
    avoid = set(free_type_names(ty)) | {neg, pos}
    a, b, a2, b2, a3, b3 = fresh_many(["a", "b", "a'", "b'", "a''", "b''"],
                                      avoid)
    ta, tb, ta2, tb2, ta3, tb3 = (TyVar(n) for n in (a, b, a2, b2, a3, b3))
    s_ab = S.subst_types(ty, {neg: ta, pos: tb})
    ctx = TermContext(
        xi=(a, b, a2, b2, a3, b3),
        gamma={"f": Lolli(ta2, ta), "f2": Lolli(ta3, ta2),
               "g": Lolli(tb, tb2), "g2": Lolli(tb2, tb3)})
    ident = S.app(S.tyapp(m, ta, tb, ta, tb),
                  S.bang(S.id_at(ta)), S.bang(S.id_at(tb)))
    law1 = equal(ident, S.id_at(s_ab), cfg, ctx=ctx)
    lhs = S.app(S.tyapp(m, ta, tb, ta3, tb3),
                S.bang(S.compose(S.Var("f"), S.Var("f2"), ta3)),
                S.bang(S.compose(S.Var("g2"), S.Var("g"), tb)))
    first = S.app(S.tyapp(m, ta, tb, ta2, tb2),
                  S.bang(S.Var("f")), S.bang(S.Var("g")))
    second = S.app(S.tyapp(m, ta2, tb2, ta3, tb3),
                   S.bang(S.Var("f2")), S.bang(S.Var("g2")))
    rhs = S.compose(second, first, s_ab)
    law2 = equal(lhs, rhs, cfg, ctx=ctx)
    return law1, law2
