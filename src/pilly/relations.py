"""Definable relations, admissibility derivations and schema generators.

Relations are comprehensions, relation variables, or relational
interpretations of types, which stay folded as ty[rho] (`interp_with`)
until a consumer unfolds one layer (`unfold`, `type_rel_interp`); their
formation is checked on the type checker's binder stack.  The derived
constructions (graph, reindexing, the per-type-constructor
constructions, the admissible closure) produce comprehensions kept in
beta-normal form by `prop_beta`, one walk over the child table for
relations and propositions alike: a comprehension applied to arguments
is unfolded, terms inside propositions are normalized by the rewriter,
and a subtree already in normal form is kept as the same object, cached
loose bounds and free names included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax as S
from .pretty import print_rel, print_type
from .rewrite import RewriteConfig, normalize
from .syntax import (CHILDREN, And, Bottom, Compr, ExistsRel, ExistsTm,
                     ExistsTy, Flavor, Forall, ForallRel, ForallTm, ForallTy,
                     Implies, InternalEq, Lolli, Or, Proposition, RelApp,
                     RelBound, Relation, RelContext, RelVar, Tensor,
                     TermContext, Top, TyConst, TypeRel, TyVar, Type, Unit,
                     Bang, arrow, compr, forall, forall_rel_p, forall_tm_p,
                     forall_ty_p, free_term_names, free_type_names, fresh,
                     fresh_many, instantiate_tm, rel_signature, type_rel)
from .typecheck import (Inferencer, TypeCheckError, infer_type, kind_check,
                        validate_context)


class FormationError(Exception):
    pass


_NF_CFG = RewriteConfig(fuel=4000)


def prop_beta(p: Proposition | Relation) -> Proposition | Relation:
    """Beta-normal form of a proposition or relation: a comprehension
    applied to two terms is unfolded and every embedded term is
    normalized; a fuel cut-off raises FuelExhausted and is never passed
    on as a normal form.  A subtree with nothing to change comes back as
    the same object, so its caches survive."""
    changes = {}
    for name, sort, *_ in CHILDREN.get(type(p), ()):
        c = getattr(p, name)
        if sort is Type:
            continue
        if sort is S.Term:
            d = normalize(c, _NF_CFG)
        elif type(c) is tuple:
            d = tuple([prop_beta(a) for a in c])
            if all(a is b for a, b in zip(c, d)):
                continue
        else:
            d = prop_beta(c)
            # rel is RelApp's first child, so lhs and rhs are not yet
            # normalized when a comprehension unfolds over them
            if type(d) is Compr and type(p) is RelApp:
                return prop_beta(instantiate_tm(d.body, p.lhs, p.rhs))
        if d is not c:
            changes[name] = d
    return S.rebuild(p, changes) if changes else p


# ---------------------------------------------------------------------------
# Formation checking


@dataclass
class RelJudgement:
    xi: tuple[str, ...]
    gamma: dict[str, Type]
    theta: RelContext
    relation: Relation


class _Formation(Inferencer):
    """Formation checking on the type checker's binder stack, opening no
    binder: a type binder pushes its hint on `tys`, a term binder an
    intuitionistic entry on `tms`, and a relation binder (dom, cod,
    len(tys)) on `rels`, which `RelBound(k)` reads at `rels[-1-k]`."""

    def __init__(self, xi, gamma, theta: RelContext):
        ctx = TermContext(tuple(xi), gamma, {})
        validate_context(ctx)
        super().__init__(ctx)
        self.theta = theta.entries
        self.rels: list[tuple[Type, Type, int]] = []

    def kind(self, *tys: Type) -> None:
        for ty in tys:
            kind_check(self.xi, ty, len(self.tys))

    def relation(self, r: Relation) -> tuple[Type, Type]:
        if isinstance(r, RelVar):
            if r.name not in self.theta:
                raise FormationError(
                    f"relation variable {r.name!r} not in scope")
            d, c, _ = self.theta[r.name]
            if d != r.dom or c != r.cod:
                raise FormationError(
                    f"relation variable {r.name!r} used at "
                    f"({self.show(r.dom)}, {self.show(r.cod)}) but declared "
                    f"at ({print_type(d)}, {print_type(c)})")
            self.kind(r.dom, r.cod)
            return r.dom, r.cod
        if isinstance(r, RelBound) and r.index < len(self.rels):
            dom, cod, depth = self.rels[-1 - r.index]
            by = len(self.tys) - depth
            return S.shift(dom, ty_by=by), S.shift(cod, ty_by=by)
        if isinstance(r, Compr):
            self.kind(r.tyx, r.tyy)
            self.bind(r.hintx, r.tyx, False)
            self.bind(r.hinty, r.tyy, False)
            self.prop(r.body)
            del self.tms[-2:]
            return r.tyx, r.tyy
        if isinstance(r, TypeRel):
            sigs = [self.relation(a) for a in r.args]
            dom = S.instantiate_ty(r.body, *[d for d, _ in sigs])
            cod = S.instantiate_ty(r.body, *[c for _, c in sigs])
            self.kind(dom, cod)
            return dom, cod
        raise FormationError(f"not a relation: {r!r}")

    def prop(self, p: Proposition) -> None:
        if isinstance(p, InternalEq):
            self.kind(p.ty)
            for t in (p.lhs, p.rhs):
                ty = self.infer(t)[0]
                if ty != p.ty:
                    raise FormationError(
                        f"equality at {self.show(p.ty)} applied to a term "
                        f"of type {self.show(ty)}")
        elif isinstance(p, RelApp):
            dom, cod = self.relation(p.rel)
            for t, want in ((p.lhs, dom), (p.rhs, cod)):
                ty = self.infer(t)[0]
                if ty != want:
                    raise FormationError(
                        f"relation with domain/codomain {self.show(want)} "
                        f"applied to a term of type {self.show(ty)}")
        elif isinstance(p, (Implies, And, Or)):
            self.prop(p.left)
            self.prop(p.right)
        elif isinstance(p, (ForallTy, ExistsTy)):
            self.tys.append(p.hint)
            self.prop(p.body)
            self.tys.pop()
        elif isinstance(p, (ForallTm, ExistsTm)):
            self.kind(p.ty)
            self.bind(p.hint, p.ty, False)
            self.prop(p.body)
            self.tms.pop()
        elif isinstance(p, (ForallRel, ExistsRel)):
            self.kind(p.dom, p.cod)
            self.rels.append((p.dom, p.cod, len(self.tys)))
            self.prop(p.body)
            self.rels.pop()
        elif not isinstance(p, (Top, Bottom)):
            raise FormationError(f"not a proposition: {p!r}")


def check_relation(xi, gamma, theta: RelContext, r: Relation
                   ) -> tuple[Type, Type]:
    """Formation check; returns the relation's domain and codomain."""
    return _Formation(xi, gamma, theta).relation(r)


def check_prop(xi, gamma, theta: RelContext, p: Proposition) -> None:
    """Well-formedness of a proposition: terms are typed with the
    intuitionistic context only (no linear hypotheses in the logic)."""
    _Formation(xi, gamma, theta).prop(p)


# ---------------------------------------------------------------------------
# Derived constructions


def graph_rel(f: S.Term, dom: Type, cod: Type) -> Compr:
    """<f> = (x, y). f x =_cod y."""
    x, y = fresh_many(["x", "y"], S.all_free_names(f))
    return prop_beta(compr(x, dom, y, cod,
                          InternalEq(cod, S.App(f, S.Var(x)), S.Var(y))))


def eq_rel(ty: Type) -> Compr:
    """Equality as the graph of the identity."""
    return graph_rel(S.id_at(ty), ty, ty)


def reindex(rel: Relation, f: S.Term, g: S.Term, dom: Type,
            cod: Type) -> Compr:
    """(f,g)* rel = (x:dom, y:cod). rel(f x, g y)."""
    x, y = fresh_many(["x", "y"], S.all_free_names(f) | S.all_free_names(g))
    return prop_beta(compr(x, dom, y, cod,
                          RelApp(rel, S.App(f, S.Var(x)), S.App(g, S.Var(y)))))


def lolli_rel(rel: Relation, rel2: Relation) -> Compr:
    s, t = rel_signature(rel)
    s2, t2 = rel_signature(rel2)
    avoid = S.all_free_names(rel) | S.all_free_names(rel2)
    f, g, x, y = fresh_many(["f", "g", "x", "y"], avoid)
    body = forall_tm_p(x, s, forall_tm_p(y, t, Implies(
        RelApp(rel, S.Var(x), S.Var(y)),
        RelApp(rel2, S.App(S.Var(f), S.Var(x)), S.App(S.Var(g), S.Var(y))))))
    return prop_beta(compr(f, Lolli(s, s2), g, Lolli(t, t2), body))


def arrow_rel(rel: Relation, rel2: Relation) -> Compr:
    s, t = rel_signature(rel)
    s2, t2 = rel_signature(rel2)
    avoid = S.all_free_names(rel) | S.all_free_names(rel2)
    f, g, x, y = fresh_many(["f", "g", "x", "y"], avoid)
    body = forall_tm_p(x, s, forall_tm_p(y, t, Implies(
        RelApp(rel, S.Var(x), S.Var(y)),
        RelApp(rel2, S.App(S.Var(f), S.bang(S.Var(x))),
               S.App(S.Var(g), S.bang(S.Var(y)))))))
    return prop_beta(compr(f, arrow(s, s2), g, arrow(t, t2), body))


def forall_rel(a: str, b: str, rname: str, rel: Relation) -> Compr:
    """The quantified construction for polymorphic types.

    `rel` must have domain open in `a` and codomain open in `b`; the
    result relates all-a. dom to all-b. cod.
    """
    dom, cod = rel_signature(rel)
    avoid = S.all_free_names(rel) | {a, b, rname}
    t, u = fresh_many(["t", "u"], avoid)
    body = forall_ty_p(a, forall_ty_p(b, forall_rel_p(
        rname, TyVar(a), TyVar(b), Flavor.ADMREL,
        RelApp(rel, S.TyApp(S.Var(t), TyVar(a)), S.TyApp(S.Var(u), TyVar(b))))))
    return prop_beta(compr(t, forall(a, dom), u, forall(b, cod), body))


def tensor_rel(rel: Relation, rel2: Relation) -> Compr:
    """(f_ss', f_tt')* (all (a,b,R). (rel -o rel2 -o R) -o R)."""
    s, t = rel_signature(rel)
    s2, t2 = rel_signature(rel2)
    avoid = (S.all_free_names(rel) | S.all_free_names(rel2)
             | set(free_type_names(s)) | set(free_type_names(t)))
    a, b, rn = fresh_many(["a", "b", "R"], avoid)
    rv = RelVar(rn, TyVar(a), TyVar(b), Flavor.ADMREL)
    inner = lolli_rel(lolli_rel(rel, lolli_rel(rel2, rv)), rv)
    x, xp, xq, h = fresh_many(["x", "x'", "x''", "h"], avoid | {a, b, rn})

    def embed(u: Type, v: Type) -> S.Term:
        # fn z:u*v. let x' (*) x'' = z in /\c. fn h:u -o v -o c. h x' x''
        c = fresh("c", avoid | {a, b, rn})
        return S.lin_lam(x, Tensor(u, v), S.let_tensor(
            xp, xq, u, v, S.Var(x),
            S.ty_lam(c, S.lin_lam(h, Lolli(u, Lolli(v, TyVar(c))),
                                  S.app(S.Var(h), S.Var(xp), S.Var(xq))))))

    closed = forall_rel(a, b, rn, inner)
    return reindex(closed, embed(s, s2), embed(t, t2),
                   Tensor(s, s2), Tensor(t, t2))


def unit_rel() -> Compr:
    """(f,f)* (all (a,b,R). R -o R) along fn x:I. let <> = x in id."""
    a, b, rn = "a", "b", "R"
    rv = RelVar(rn, TyVar(a), TyVar(b), Flavor.ADMREL)
    inner = lolli_rel(rv, rv)
    closed = forall_rel(a, b, rn, inner)
    f = S.lin_lam("x", Unit(), S.LetStar(S.Var("x"), S.poly_id()))
    return reindex(closed, f, f, Unit(), Unit())


def bang_rel(rel: Relation) -> Compr:
    """(f_s, f_t)* (all (a,b,R). (rel -> R) -o R)."""
    s, t = rel_signature(rel)
    avoid = S.all_free_names(rel)
    a, b, rn = fresh_many(["a", "b", "R"], avoid)
    rv = RelVar(rn, TyVar(a), TyVar(b), Flavor.ADMREL)
    inner = lolli_rel(arrow_rel(rel, rv), rv)
    closed = forall_rel(a, b, rn, inner)

    def embed(u: Type) -> S.Term:
        x, g, c = fresh_many(["x", "g", "c"], avoid | {a, b, rn})
        return S.lin_lam(x, Bang(u), S.ty_lam(c, S.lin_lam(
            g, arrow(u, TyVar(c)), S.App(S.Var(g), S.Var(x)))))

    return reindex(closed, embed(s), embed(t), Bang(s), Bang(t))


def closure_phi(rel: Relation) -> Compr:
    """The least admissible relation containing rel."""
    s, t = rel_signature(rel)
    avoid = S.all_free_names(rel)
    a, b, sn, f, g, x, y = fresh_many(["a", "b", "S", "f", "g", "x", "y"],
                                      avoid)
    sv = RelVar(sn, TyVar(a), TyVar(b), Flavor.ADMREL)
    body = forall_ty_p(a, forall_ty_p(b, forall_rel_p(
        sn, TyVar(a), TyVar(b), Flavor.ADMREL,
        forall_tm_p(f, Lolli(s, TyVar(a)), forall_tm_p(
            g, Lolli(t, TyVar(b)),
            Implies(RelApp(lolli_rel(rel, sv), S.Var(f), S.Var(g)),
                    RelApp(sv, S.App(S.Var(f), S.Var(x)),
                           S.App(S.Var(g), S.Var(y)))))))))
    return prop_beta(compr(x, s, y, t, body))


# ---------------------------------------------------------------------------
# Relational interpretation of types


def type_rel_interp(ty: Type, args: list[Relation]) -> Relation:
    """sigma[rho...] unfolded one layer, with args for ty's free type
    variables in first-occurrence order."""
    names = free_type_names(ty)
    if len(names) != len(args):
        raise FormationError(f"type has {len(names)} free variable(s), "
                             f"got {len(args)} relation(s)")
    return _unfold(ty, dict(zip(names, args)))


def unfold(r: TypeRel) -> Relation:
    """One layer of the fold r, its slots opened at fresh type names."""
    names = fresh_many(r.hints, S.all_free_names(r))
    return _unfold(S.instantiate_ty(r.body, *map(TyVar, names)),
                   dict(zip(names, r.args)))


def interp_with(ty: Type, rel_for: dict[str, Relation]) -> Relation:
    """ty's relational interpretation, folded as ty[rho]: at rel_for[a]
    for each free type variable a that rel_for maps, and at eq_rel(a)
    for every other.  A bare variable is its relation; a closed type
    folds to ty[].  `unfold` exposes one layer on demand."""
    names = free_type_names(ty)
    args = [rel_for[n] if n in rel_for else eq_rel(TyVar(n)) for n in names]
    return args[0] if isinstance(ty, TyVar) else type_rel(names, ty, args)


def _unfold(ty: Type, mapping: dict[str, Relation]) -> Relation:
    """The construction for ty's top constructor over its folded
    components; a variable is its relation and an opaque constant stays
    folded."""
    if isinstance(ty, Unit):
        return unit_rel()
    if isinstance(ty, Lolli):
        return lolli_rel(interp_with(ty.dom, mapping),
                         interp_with(ty.cod, mapping))
    if isinstance(ty, Tensor):
        return tensor_rel(interp_with(ty.left, mapping),
                          interp_with(ty.right, mapping))
    if isinstance(ty, Bang):
        return bang_rel(interp_with(ty.body, mapping))
    if isinstance(ty, Forall):
        used = set(mapping).union(free_type_names(ty),
                                  *map(S.all_free_names, mapping.values()))
        a, b, rn = fresh_many([ty.hint, ty.hint + "'", "R"], used)
        # the domain side opens at a, the codomain side at b
        rv = RelVar(rn, TyVar(a), TyVar(b), Flavor.ADMREL)
        opened = S.instantiate_ty(ty.body, TyVar(a))
        return forall_rel(a, b, rn, interp_with(opened, {**mapping, a: rv}))
    return interp_with(ty, mapping)


# ---------------------------------------------------------------------------
# Admissibility derivations


@dataclass
class Derivation:
    rule: str
    detail: str = ""
    children: list["Derivation"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = f"{pad}{self.rule}" + (f": {self.detail}" if self.detail else "")
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])


def derive_admissible(j: RelJudgement) -> Derivation | None:
    """Bottom-up, syntax-directed search over the admissibility rules.

    None means no derivation was found by this strategy, not a semantic
    refutation.
    """
    env = (tuple(j.xi), dict(j.gamma), dict(j.theta.entries))
    return _derive(j.relation, env)


def _derive(r: Relation, env) -> Derivation | None:
    xi, gamma, theta = env
    if isinstance(r, RelVar):
        declared = theta.get(r.name)
        flavor = declared[2] if declared else r.flavor
        if flavor is Flavor.ADMREL:
            return Derivation("admissible-variable", r.name)
        return None
    if isinstance(r, TypeRel):
        # an opaque constant needs admissible arguments; any other fold
        # is derived through its unfolding
        kids = [_derive(a, env) for a in r.args] \
            if isinstance(r.body, TyConst) else [_derive(unfold(r), env)]
        if None in kids:
            return None
        return Derivation("type-interpretation", print_rel(r), kids)
    if isinstance(r, Compr):
        avoid = set(xi) | set(gamma) | set(theta) | S.all_free_names(r)
        x, y, body = S.open_compr(r, avoid)
        return _derive_body(x, r.tyx, y, r.tyy, body, env)
    return None


def _derive_body(x: str, tyx: Type, y: str, tyy: Type,
                 body: Proposition, env) -> Derivation | None:
    xi, gamma, theta = env
    if isinstance(body, Top):
        return Derivation("truth")
    if isinstance(body, And):
        kids = [_derive_body(x, tyx, y, tyy, q, env)
                for q in (body.left, body.right)]
        return None if None in kids else Derivation("conjunction", "", kids)
    if isinstance(body, Implies):
        if {x, y} & set(free_term_names(body.left)):
            return None
        inner = _derive_body(x, tyx, y, tyy, body.right, env)
        if inner is None:
            return None
        return Derivation("implication-antecedent", children=[inner])
    avoid = set(xi) | set(gamma) | set(theta) | {x, y}
    if isinstance(body, ForallTy):
        a = fresh(body.hint, avoid)
        inner = _derive_body(x, tyx, y, tyy,
                             S.instantiate_ty(body.body, TyVar(a)),
                             (xi + (a,), gamma, theta))
        if inner is None:
            return None
        return Derivation("forall-type", a, [inner])
    if isinstance(body, ForallTm):
        z = fresh(body.hint, avoid)
        gamma2 = dict(gamma)
        gamma2[z] = body.ty
        inner = _derive_body(x, tyx, y, tyy,
                             instantiate_tm(body.body, S.Var(z)),
                             (xi, gamma2, theta))
        if inner is None:
            return None
        return Derivation("forall-term", z, [inner])
    if isinstance(body, ForallRel):
        rn = fresh(body.hint, avoid)
        theta2 = dict(theta)
        theta2[rn] = (body.dom, body.cod, body.flavor)
        opened = S.instantiate_rel(
            body.body, RelVar(rn, body.dom, body.cod, body.flavor))
        inner = _derive_body(x, tyx, y, tyy, opened, (xi, gamma, theta2))
        if inner is None:
            return None
        kind = ("forall-admissible-relation" if body.flavor is Flavor.ADMREL
                else "forall-relation")
        return Derivation(kind, rn, [inner])
    if isinstance(body, InternalEq):
        return _derive_relapp(x, tyx, y, tyy, body.lhs, body.rhs, env,
                              Derivation("equality", print_type(body.ty)))
    if isinstance(body, RelApp):
        return _derive_relapp(x, tyx, y, tyy, body.lhs, body.rhs, env,
                              _derive(body.rel, env))
    return None


def _derive_relapp(x, tyx, y, tyy, lhs, rhs, env,
                   inner: Derivation | None) -> Derivation | None:
    """A relation application's derivation, given its relation's."""
    xi, gamma, _ = env
    if inner is None:
        return None
    if lhs == S.Var(x) and rhs == S.Var(y):
        return Derivation("applied-relation", children=[inner])
    if lhs == S.Var(y) and rhs == S.Var(x):
        return Derivation("converse", children=[inner])

    def linear_map(var, ty, body):
        f = S.lin_lam(var, ty, body)
        infer_type(TermContext(tuple(xi), dict(gamma), {}), f)
        return f

    # view the body as a reindexing along the lambda-abstracted argument
    # positions; the abstractions must be linear maps over Gamma only
    try:
        if (x not in free_term_names(rhs)
                and y not in free_term_names(lhs)):
            linear_map(x, tyx, lhs)
            linear_map(y, tyy, rhs)
            return Derivation("reindex", "via beta-unfolding", [inner])
        if (x not in free_term_names(lhs)
                and y not in free_term_names(rhs)):
            linear_map(y, tyy, lhs)
            linear_map(x, tyx, rhs)
            return Derivation("converse", "reindex via beta-unfolding",
                              [inner])
    except TypeCheckError:
        return None
    return None


# ---------------------------------------------------------------------------
# Schema generators


class PurityError(Exception):
    pass


def identity_extension_instance(ty: Type) -> Proposition:
    """all as. ty[eq_as] == eq_ty, as a biimplication of applications."""
    names = free_type_names(ty)
    interp = interp_with(ty, {})
    eq = eq_rel(ty)
    x, y = fresh_many(["x", "y"], names)
    body = forall_tm_p(x, ty, forall_tm_p(y, ty, And(
        Implies(RelApp(interp, S.Var(x), S.Var(y)),
                RelApp(eq, S.Var(x), S.Var(y))),
        Implies(RelApp(eq, S.Var(x), S.Var(y)),
                RelApp(interp, S.Var(x), S.Var(y))))))
    for n in reversed(names):
        body = forall_ty_p(n, body)
    return prop_beta(body)


def parametricity_schema_instance(var: str, body_ty: Type) -> Proposition:
    """all as. all u:(all var. body). all b,b'. all R:AdmRel(b,b').
       body[R, eq_as](u b, u b')."""
    others = [n for n in free_type_names(body_ty) if n != var]
    avoid = set(others) | {var}
    b, b2, rn, u = fresh_many([var, var + "'", "R", "u"], avoid)
    interp = interp_with(
        body_ty, {var: RelVar(rn, TyVar(b), TyVar(b2), Flavor.ADMREL)})
    poly = forall(var, body_ty)
    prop = forall_tm_p(u, poly, forall_ty_p(b, forall_ty_p(b2, forall_rel_p(
        rn, TyVar(b), TyVar(b2), Flavor.ADMREL,
        RelApp(interp, S.TyApp(S.Var(u), TyVar(b)),
               S.TyApp(S.Var(u), TyVar(b2)))))))
    for n in reversed(others):
        prop = forall_ty_p(n, prop)
    return prop_beta(prop)


def lrl_statement(t: S.Term, ctx: TermContext | None = None) -> Proposition:
    """Relational self-relatedness of a pure term at its type."""
    ctx = ctx or TermContext()
    if S.contains_const(t) or any(S.contains_const(ty)
                                  for ty in list(ctx.gamma.values())
                                  + list(ctx.delta.values())):
        raise PurityError("term or context mentions signature constants")
    tau = infer_type(ctx, t).ty
    alphas = list(ctx.xi)
    avoid = (set(alphas) | set(ctx.gamma) | set(ctx.delta)
             | S.all_free_names(t))
    betas = fresh_many([a + "'" for a in alphas], avoid)
    avoid |= set(betas)
    rels = fresh_many(["R" + a for a in alphas], avoid)
    avoid |= set(rels)
    rel_for = {a: RelVar(r, TyVar(a), TyVar(b), Flavor.ADMREL)
               for a, b, r in zip(alphas, betas, rels)}
    ren_ty = {a: TyVar(b) for a, b in zip(alphas, betas)}
    pairs = []  # (x, y, sigma)
    ren_tm = {}
    for x, sigma in list(ctx.gamma.items()) + list(ctx.delta.items()):
        y = fresh(x + "'", avoid)
        avoid.add(y)
        pairs.append((x, y, sigma))
        ren_tm[x] = S.Var(y)
    t2 = S.subst_types(S.subst_terms(t, ren_tm), ren_ty)
    prem = None
    for x, y, sigma in pairs:
        p = RelApp(interp_with(sigma, rel_for), S.Var(x), S.Var(y))
        prem = p if prem is None else And(prem, p)
    concl = RelApp(_unfold(tau, rel_for), t, t2)
    body = concl if prem is None else Implies(prem, concl)
    for x, y, sigma in reversed(pairs):
        body = forall_tm_p(y, S.subst_types(sigma, ren_ty), body)
        body = forall_tm_p(x, sigma, body)
    for a, b, r in reversed(list(zip(alphas, betas, rels))):
        body = forall_rel_p(r, TyVar(a), TyVar(b), Flavor.ADMREL, body)
    for b in reversed(betas):
        body = forall_ty_p(b, body)
    for a in reversed(alphas):
        body = forall_ty_p(a, body)
    return prop_beta(body)
