"""Shared random generators for the property tests.

Two term generators: a well-scoped one (syntax only, for round-trip
properties) and a well-typed-by-construction one that threads the linear
context through the generation, used for the typing and rewriting
properties.
"""

from __future__ import annotations

import random

from pilly import syntax as S
from pilly.syntax import (Bang, Flavor, Forall, Lolli, RelVar, Tensor,
                          TermContext, TyVar, Type, Unit)


def gen_type(rng: random.Random, xi: list[str], depth: int) -> Type:
    if depth <= 0 or rng.random() < 0.25:
        if xi and rng.random() < 0.6:
            return TyVar(rng.choice(xi))
        return Unit()
    k = rng.randrange(4)
    if k == 0:
        return Lolli(gen_type(rng, xi, depth - 1), gen_type(rng, xi, depth - 1))
    if k == 1:
        return Tensor(gen_type(rng, xi, depth - 1), gen_type(rng, xi, depth - 1))
    if k == 2:
        return Bang(gen_type(rng, xi, depth - 1))
    a = f"t{rng.randrange(1000)}"
    return S.forall(a, gen_type(rng, xi + [a], depth - 1))


# ---------------------------------------------------------------------------
# Well-scoped (possibly ill-typed) terms: for parse/print round trips


def gen_scoped_term(rng: random.Random, tyvars: list[str], tmvars: list[str],
                    depth: int) -> S.Term:
    if depth <= 0 or (tmvars and rng.random() < 0.2):
        choices = [S.Star(), S.Y()]
        if tmvars:
            choices += [S.Var(rng.choice(tmvars))] * 3
        return rng.choice(choices)
    k = rng.randrange(10)
    sub = lambda: gen_scoped_term(rng, tyvars, tmvars, depth - 1)
    if k == 0:
        x = f"x{rng.randrange(100)}"
        return S.lin_lam(x, gen_type(rng, tyvars, 2),
                         gen_scoped_term(rng, tyvars, tmvars + [x], depth - 1))
    if k == 1:
        return S.App(sub(), sub())
    if k == 2:
        return S.TensorPair(sub(), sub())
    if k == 3:
        return S.BangIntro(sub())
    if k == 4:
        a = f"a{rng.randrange(100)}"
        return S.ty_lam(a, gen_scoped_term(rng, tyvars + [a], tmvars,
                                           depth - 1))
    if k == 5:
        return S.TyApp(sub(), gen_type(rng, tyvars, 2))
    if k == 6:
        return S.LetStar(sub(), sub())
    if k == 7:
        x, y = f"x{rng.randrange(100)}", f"y{rng.randrange(100)}"
        annot = rng.random() < 0.5
        return S.let_tensor(
            x, y,
            gen_type(rng, tyvars, 1) if annot else None,
            gen_type(rng, tyvars, 1) if annot else None,
            sub(), gen_scoped_term(rng, tyvars, tmvars + [x, y], depth - 1))
    if k == 8:
        x = f"z{rng.randrange(100)}"
        annot = gen_type(rng, tyvars, 1) if rng.random() < 0.5 else None
        return S.let_bang(x, annot, sub(),
                          gen_scoped_term(rng, tyvars, tmvars + [x], depth - 1))
    return sub()


def gen_scoped_prop(rng: random.Random, tyvars: list[str], tmvars: list[str],
                    rels: dict[str, tuple[Type, Type, Flavor]],
                    depth: int) -> S.Proposition:
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice([S.Top(), S.Bottom()])
    k = rng.randrange(10)
    sub = lambda: gen_scoped_prop(rng, tyvars, tmvars, rels, depth - 1)
    if k == 0:
        return S.Implies(sub(), sub())
    if k == 1:
        return S.And(sub(), sub())
    if k == 2:
        return S.Or(sub(), sub())
    if k == 3:
        return S.InternalEq(gen_type(rng, tyvars, 2),
                            gen_scoped_term(rng, tyvars, tmvars, depth - 1),
                            gen_scoped_term(rng, tyvars, tmvars, depth - 1))
    if k == 4 and rels:
        name = rng.choice(sorted(rels))
        dom, cod, fl = rels[name]
        return S.RelApp(RelVar(name, dom, cod, fl),
                        gen_scoped_term(rng, tyvars, tmvars, depth - 1),
                        gen_scoped_term(rng, tyvars, tmvars, depth - 1))
    if k == 5:
        a = f"a{rng.randrange(100)}"
        ctor = S.forall_ty_p if rng.random() < 0.5 else S.exists_ty_p
        return ctor(a, gen_scoped_prop(rng, tyvars + [a], tmvars, rels,
                                       depth - 1))
    if k == 6:
        x = f"x{rng.randrange(100)}"
        ctor = S.forall_tm_p if rng.random() < 0.5 else S.exists_tm_p
        return ctor(x, gen_type(rng, tyvars, 2),
                    gen_scoped_prop(rng, tyvars, tmvars + [x], rels,
                                    depth - 1))
    if k == 7:
        rn = f"R{rng.randrange(100)}"
        dom = gen_type(rng, tyvars, 1)
        cod = gen_type(rng, tyvars, 1)
        fl = rng.choice([Flavor.REL, Flavor.ADMREL])
        ctor = S.forall_rel_p if rng.random() < 0.5 else S.exists_rel_p
        inner = dict(rels)
        inner[rn] = (dom, cod, fl)
        return ctor(rn, dom, cod, fl,
                    gen_scoped_prop(rng, tyvars, tmvars, inner, depth - 1))
    if k == 8:
        rel = gen_scoped_rel(rng, tyvars, tmvars, rels, depth - 1)
        return S.RelApp(rel,
                        gen_scoped_term(rng, tyvars, tmvars, depth - 1),
                        gen_scoped_term(rng, tyvars, tmvars, depth - 1))
    return sub()


def gen_scoped_rel(rng: random.Random, tyvars: list[str], tmvars: list[str],
                   rels: dict[str, tuple[Type, Type, Flavor]],
                   depth: int) -> S.Relation:
    roll = rng.random()
    if rels and (depth <= 0 or roll < 0.3):
        name = rng.choice(sorted(rels))
        dom, cod, fl = rels[name]
        return RelVar(name, dom, cod, fl)
    if depth > 0 and roll < 0.55:
        names = [f"v{rng.randrange(100)}" for _ in range(rng.randrange(1, 3))]
        names = list(dict.fromkeys(names))
        body = gen_type(rng, names, 2)
        args = [gen_scoped_rel(rng, tyvars, tmvars, rels, 0)
                for _ in names]
        if not rels:
            args = [gen_scoped_rel(rng, tyvars, tmvars,
                                   {"R0": (Unit(), Unit(), Flavor.REL)}, 0)
                    for _ in names]
        return S.type_rel(names, body, args)
    x, y = f"x{rng.randrange(100)}", f"y{rng.randrange(100)}"
    return S.compr(x, gen_type(rng, tyvars, 2), y, gen_type(rng, tyvars, 2),
                   gen_scoped_prop(rng, tyvars, tmvars + [x, y], rels,
                                   depth - 1))


# ---------------------------------------------------------------------------
# Well-typed terms: linear context threaded through generation


class TypedGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0

    def fresh(self, base: str) -> str:
        self.n += 1
        return f"{base}{self.n}"

    def type_(self, xi: list[str], depth: int) -> Type:
        return gen_type(self.rng, xi, depth)

    def split(self, delta: dict[str, Type]):
        left, right = {}, {}
        for k, v in delta.items():
            (left if self.rng.random() < 0.5 else right)[k] = v
        return left, right

    def consume_all(self, xi, gamma, delta: dict[str, Type]) -> tuple[S.Term, Type]:
        """Cheap fallback consuming the linear context exactly."""
        if not delta:
            if gamma and self.rng.random() < 0.4:
                x = self.rng.choice(sorted(gamma))
                return S.Var(x), gamma[x]
            return (S.Star(), Unit()) if self.rng.random() < 0.7 \
                else (S.Y(), S.y_type())
        items = list(delta.items())
        term, ty = S.Var(items[0][0]), items[0][1]
        for name, t2 in items[1:]:
            term = S.TensorPair(term, S.Var(name))
            ty = Tensor(ty, t2)
        return term, ty

    def gen(self, xi: list[str], gamma: dict[str, Type],
            delta: dict[str, Type], depth: int) -> tuple[S.Term, Type]:
        rng = self.rng
        if depth <= 0:
            return self.consume_all(xi, gamma, delta)
        k = rng.randrange(9)
        if k == 0:  # linear abstraction
            x = self.fresh("x")
            sigma = self.type_(xi, 2)
            body, tau = self.gen(xi, gamma, {**delta, x: sigma}, depth - 1)
            return S.lin_lam(x, sigma, body), Lolli(sigma, tau)
        if k == 1:  # application via a fresh redex
            d1, d2 = self.split(delta)
            arg, sigma = self.gen(xi, gamma, d2, depth - 1)
            y = self.fresh("y")
            body, tau = self.gen(xi, gamma, {**d1, y: sigma}, depth - 1)
            return S.App(S.lin_lam(y, sigma, body), arg), tau
        if k == 2:  # tensor pair
            d1, d2 = self.split(delta)
            l, ts = self.gen(xi, gamma, d1, depth - 1)
            r, tt = self.gen(xi, gamma, d2, depth - 1)
            return S.TensorPair(l, r), Tensor(ts, tt)
        if k == 3 and not delta:  # promotion
            body, ty = self.gen(xi, gamma, {}, depth - 1)
            return S.BangIntro(body), Bang(ty)
        if k == 4:  # type abstraction
            a = self.fresh("a")
            body, ty = self.gen(xi + [a], gamma, delta, depth - 1)
            return S.ty_lam(a, body), S.forall(a, ty)
        if k == 5:  # type application via a fresh redex
            a = self.fresh("a")
            body, ty = self.gen(xi + [a], gamma, delta, depth - 1)
            inst = self.type_(xi, 2)
            return (S.TyApp(S.ty_lam(a, body), inst),
                    S.subst_type_in_type(ty, a, inst))
        if k == 6:  # unit elimination
            d1, d2 = self.split(delta)
            body, ty = self.gen(xi, gamma, d2, depth - 1)
            scrut = S.Star() if not d1 else None
            if scrut is None:
                # consume d1 into the body instead
                body, ty = self.gen(xi, gamma, delta, depth - 1)
                return S.LetStar(S.Star(), body), ty
            return S.LetStar(scrut, body), ty
        if k == 7:  # tensor elimination
            d1, d2 = self.split(delta)
            sl, tl = self.gen(xi, gamma, d1, max(0, depth - 2))
            sr, tr = self.gen(xi, gamma, {}, max(0, depth - 2))
            x, y = self.fresh("px"), self.fresh("py")
            body, ty = self.gen(xi, gamma, {**d2, x: tl, y: tr}, depth - 1)
            annotated = rng.random() < 0.5
            return (S.let_tensor(x, y, tl if annotated else None,
                                 tr if annotated else None,
                                 S.TensorPair(sl, sr), body), ty)
        if k == 8:  # promotion elimination into the intuitionistic context
            su, tu = self.gen(xi, gamma, {}, max(0, depth - 2))
            x = self.fresh("u")
            body, ty = self.gen(xi, {**gamma, x: tu}, delta, depth - 1)
            return S.let_bang(x, tu if rng.random() < 0.5 else None,
                              S.BangIntro(su), body), ty
        return self.consume_all(xi, gamma, delta)


def gen_well_typed(rng: random.Random, depth: int = 5,
                   with_context: bool = True
                   ) -> tuple[TermContext, S.Term, Type]:
    g = TypedGen(rng)
    xi = ["s", "t"]
    gamma: dict[str, Type] = {}
    delta: dict[str, Type] = {}
    if with_context:
        for name in ("gi", "gj")[: rng.randrange(3)]:
            gamma[name] = g.type_(xi, 2)
        for name in ("dx", "dy")[: rng.randrange(3)]:
            delta[name] = g.type_(xi, 2)
    term, ty = g.gen(xi, gamma, delta, depth)
    return TermContext(tuple(xi), gamma, delta), term, ty


def scramble(t: S.Term, rng: random.Random) -> S.Term:
    """A copy of t with every binder hint replaced at random."""
    if isinstance(t, S.LinLam):
        return S.LinLam(f"h{rng.randrange(99)}", t.ty, scramble(t.body, rng))
    if isinstance(t, S.App):
        return S.App(scramble(t.fn, rng), scramble(t.arg, rng))
    if isinstance(t, S.TensorPair):
        return S.TensorPair(scramble(t.left, rng), scramble(t.right, rng))
    if isinstance(t, S.BangIntro):
        return S.BangIntro(scramble(t.body, rng))
    if isinstance(t, S.TyLam):
        return S.TyLam(f"h{rng.randrange(99)}", scramble(t.body, rng))
    if isinstance(t, S.TyApp):
        return S.TyApp(scramble(t.fn, rng), t.ty)
    if isinstance(t, S.LetStar):
        return S.LetStar(scramble(t.scrut, rng), scramble(t.body, rng))
    if isinstance(t, S.LetTensor):
        return S.LetTensor(f"h{rng.randrange(99)}", f"k{rng.randrange(99)}",
                           t.tyx, t.tyy, scramble(t.scrut, rng),
                           scramble(t.body, rng))
    if isinstance(t, S.LetBang):
        return S.LetBang(f"h{rng.randrange(99)}", t.ty,
                         scramble(t.scrut, rng), scramble(t.body, rng))
    return t
