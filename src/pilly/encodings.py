"""Impredicative datatype encodings and their combinators.

Each generator returns a bundle: the encoded type, closed combinator
terms with their claimed types, the equational laws that hold by
rewriting alone (beta_laws, checked by the rewriter), and the statements
whose proofs need the parametricity schema (schema_laws, emitted as
well-formed propositions and never checked for truth).  `bundle_decls`
gives a bundle as its file's declarations, closed over its parameters;
`pilly encode` checks them and `bundle_to_source` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import parser as P
from . import relations as R
from . import syntax as S
# cli reaches PolarityViolation and variance through this module
from .functor import PolarityViolation, action_contra, action_cov, \
    apply_action, forbid, split_occurrences, variance
from .pretty import print_prop, print_term, print_type
from .syntax import (Bang, Flavor, Lolli, RelVar, Tensor, Term, Type, TyVar,
                     Unit, arrow, forall, fresh, fresh_many, free_type_names)


@dataclass
class EncodingBundle:
    name: str
    defined_type: Type
    combinators: dict[str, tuple[Term, Type]] = field(default_factory=dict)
    beta_laws: list[tuple[str, Term, Term]] = field(default_factory=list)
    schema_laws: list[tuple[str, S.Proposition]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Type-level helpers


def self_iso_type(ty: Type) -> Type:
    a = fresh("a", free_type_names(ty))
    return forall(a, Lolli(Lolli(ty, TyVar(a)), TyVar(a)))


def tensor_iso_type(s: Type, t: Type) -> Type:
    a = fresh("a", set(free_type_names(s)) | set(free_type_names(t)))
    return forall(a, Lolli(Lolli(s, Lolli(t, TyVar(a))), TyVar(a)))


def unit_iso_type() -> Type:
    return forall("a", Lolli(TyVar("a"), TyVar("a")))


def void_type() -> Type:
    return forall("a", TyVar("a"))


def sum_type(s: Type, t: Type) -> Type:
    a = fresh("a", set(free_type_names(s)) | set(free_type_names(t)))
    va = TyVar(a)
    return forall(a, arrow(Lolli(s, va), arrow(Lolli(t, va), va)))


def product_type(s: Type, t: Type) -> Type:
    a = fresh("a", set(free_type_names(s)) | set(free_type_names(t)))
    va = TyVar(a)
    return forall(a, Lolli(sum_type(Lolli(s, va), Lolli(t, va)), va))


def nat_type() -> Type:
    a = TyVar("a")
    return forall("a", arrow(Lolli(a, a), Lolli(a, a)))


def exists_type(var: str, body: Type) -> Type:
    b = fresh("b", set(free_type_names(body)) | {var})
    return forall(b, Lolli(forall(var, Lolli(body, TyVar(b))), TyVar(b)))


def mu_type(var: str, body: Type) -> Type:
    return forall(var, arrow(Lolli(body, TyVar(var)), TyVar(var)))


def nu_type(var: str, body: Type) -> Type:
    carrier = Tensor(Bang(Lolli(TyVar(var), body)), TyVar(var))
    return exists_type(var, carrier)


# ---------------------------------------------------------------------------
# Isomorphism bundles


def _iso_bundle(name: str, ty: Type, enc: Type, fwd: Term, bwd: Term
                ) -> EncodingBundle:
    """ty as a retract of enc: bwd . fwd = id is a beta law, and
    fwd . bwd = id a schema law."""
    b = EncodingBundle(name, enc)
    b.combinators["fwd"] = (fwd, Lolli(ty, enc))
    b.combinators["bwd"] = (bwd, Lolli(enc, ty))
    b.beta_laws.append(("bwd_fwd", S.compose(bwd, fwd, ty), S.id_at(ty)))
    b.schema_laws.append(("fwd_bwd", S.InternalEq(
        Lolli(enc, enc), S.compose(fwd, bwd, enc), S.id_at(enc))))
    return b


def encode_iso_self(ty: Type) -> EncodingBundle:
    """ty is a retract of its double-negation-style wrapping."""
    enc = self_iso_type(ty)
    a, x, h = fresh_many(["a", "x", "h"], free_type_names(ty))
    fwd = S.lin_lam(x, ty, S.ty_lam(a, S.lin_lam(
        h, Lolli(ty, TyVar(a)), S.App(S.Var(h), S.Var(x)))))
    bwd = S.lin_lam(x, enc, S.app(S.tyapp(S.Var(x), ty), S.id_at(ty)))
    return _iso_bundle("iso_self", ty, enc, fwd, bwd)


def encode_tensor(s: Type, t: Type) -> EncodingBundle:
    enc = tensor_iso_type(s, t)
    st = Tensor(s, t)
    avoid = set(free_type_names(st))
    a, x, xp, y, h = fresh_many(["a", "x", "x'", "y", "h"], avoid)
    fwd = S.lin_lam(y, st, S.let_tensor(
        x, xp, s, t, S.Var(y),
        S.ty_lam(a, S.lin_lam(h, Lolli(s, Lolli(t, TyVar(a))),
                              S.app(S.Var(h), S.Var(x), S.Var(xp))))))
    pairing = S.lin_lam(x, s, S.lin_lam(xp, t,
                                        S.tensor_pair(S.Var(x), S.Var(xp))))
    bwd = S.lin_lam(y, enc, S.app(S.tyapp(S.Var(y), st), pairing))
    b = _iso_bundle("tensor", st, enc, fwd, bwd)
    b.combinators["pairing"] = (pairing, Lolli(s, Lolli(t, st)))
    return b


def encode_unit() -> EncodingBundle:
    enc = unit_iso_type()
    fwd = S.lin_lam("x", Unit(), S.LetStar(S.Var("x"), S.poly_id()))
    bwd = S.lin_lam("t", enc, S.app(S.tyapp(S.Var("t"), Unit()), S.Star()))
    b = _iso_bundle("unit", Unit(), enc, fwd, bwd)
    b.combinators["id"] = (S.poly_id(), enc)
    return b


def initial_map(ty: Type) -> Term:
    """0_ty : void -o ty."""
    return S.lin_lam("x", void_type(), S.TyApp(S.Var("x"), ty))


def bottom_map(ty: Type) -> Term:
    """The fixed-point inhabitant of ty -o void."""
    target = Lolli(ty, void_type())
    w = fresh("w", free_type_names(ty))
    return S.App(S.TyApp(S.Y(), target),
                 S.bang(S.lam_int(w, target, S.Var(w))))


def encode_zero() -> EncodingBundle:
    """The empty type with its polymorphic copairing-free eliminator."""
    z = void_type()
    b = EncodingBundle("zero", z)
    a = "a"
    from_zero = S.ty_lam(a, initial_map(TyVar(a)))
    b.combinators["from_zero"] = (from_zero, forall(a, Lolli(z, TyVar(a))))
    # uniqueness of maps out of the initial object
    f = "f"
    b.schema_laws.append(("initial_unique", S.forall_ty_p(a, S.forall_tm_p(
        f, Lolli(z, TyVar(a)),
        S.InternalEq(Lolli(z, TyVar(a)), S.Var(f),
                     S.TyApp(from_zero, TyVar(a)))))))
    return b


def encode_one() -> EncodingBundle:
    """The same type is weakly terminal via the fixed-point combinator."""
    z = void_type()
    b = EncodingBundle("one", z)
    a = "a"
    b.combinators["bottom"] = (S.ty_lam(a, bottom_map(TyVar(a))),
                               forall(a, Lolli(TyVar(a), z)))
    f, g = "f", "g"
    b.schema_laws.append(("terminal_unique", S.forall_ty_p(a, S.forall_tm_p(
        f, Lolli(TyVar(a), z), S.forall_tm_p(
            g, Lolli(TyVar(a), z),
            S.InternalEq(Lolli(TyVar(a), z), S.Var(f), S.Var(g)))))))
    return b


# ---------------------------------------------------------------------------
# Sums, products, naturals


def _inj(s: Type, t: Type, right: bool) -> Term:
    """The left (s -o s+t) or right (t -o s+t) injection."""
    a, x, f, g = fresh_many(["a", "y" if right else "x", "f", "g"],
                            free_type_names(sum_type(s, t)))
    return S.lin_lam(x, t if right else s, S.ty_lam(a, S.lam_int(
        f, Lolli(s, TyVar(a)), S.lam_int(g, Lolli(t, TyVar(a)), S.App(
            S.Var(g if right else f), S.Var(x))))))


def _case(s: Type, t: Type) -> Term:
    """Polymorphic copairing: all a. (s -o a) -> (t -o a) -> s+t -o a."""
    enc = sum_type(s, t)
    a, f, g, x = fresh_many(["a", "f", "g", "x"], free_type_names(enc))
    return S.ty_lam(a, S.lam_int(f, Lolli(s, TyVar(a)), S.lam_int(
        g, Lolli(t, TyVar(a)), S.lin_lam(
            x, enc, S.app(S.tyapp(S.Var(x), TyVar(a)),
                          S.bang(S.Var(f)), S.bang(S.Var(g)))))))


def encode_sum(s: Type, t: Type) -> EncodingBundle:
    enc = sum_type(s, t)
    inl, inr, case = _inj(s, t, False), _inj(s, t, True), _case(s, t)
    b = EncodingBundle("sum", enc)
    b.combinators["inl"] = (inl, Lolli(s, enc))
    b.combinators["inr"] = (inr, Lolli(t, enc))
    a, f, g, x, y = fresh_many(["a", "f", "g", "x", "y"],
                               free_type_names(enc))
    va = TyVar(a)
    b.combinators["case"] = (case, forall(a, arrow(
        Lolli(s, va), arrow(Lolli(t, va), Lolli(enc, va)))))
    for side, inj, arg_ty, chosen, var in (("case_inl", inl, s, f, x),
                                           ("case_inr", inr, t, g, y)):
        under = lambda body: S.ty_lam(a, S.lam_int(f, Lolli(s, va), S.lam_int(
            g, Lolli(t, va), S.lin_lam(var, arg_ty, body))))
        b.beta_laws.append((side, under(S.app(
            S.tyapp(case, va), S.bang(S.Var(f)), S.bang(S.Var(g)),
            S.App(inj, S.Var(var)))), under(S.App(S.Var(chosen), S.Var(var)))))
    # copairing the injections is the identity
    b.schema_laws.append(("case_of_injections", S.InternalEq(
        Lolli(enc, enc),
        S.app(S.tyapp(case, enc), S.bang(inl), S.bang(inr)),
        S.id_at(enc))))
    w, w2, h = fresh_many(["w", "w'", "h"], free_type_names(enc))
    vw, vw2 = TyVar(w), TyVar(w2)
    b.schema_laws.append(("naturality", S.forall_ty_p(w, S.forall_ty_p(
        w2, S.forall_tm_p(h, Lolli(vw, vw2), S.forall_tm_p(
            f, Lolli(s, vw), S.forall_tm_p(
                g, Lolli(t, vw), S.InternalEq(
                    Lolli(enc, vw2),
                    S.compose(S.Var(h),
                              S.app(S.tyapp(case, vw), S.bang(S.Var(f)),
                                    S.bang(S.Var(g))), enc),
                    S.app(S.tyapp(case, vw2),
                          S.bang(S.compose(S.Var(h), S.Var(f), s)),
                          S.bang(S.compose(S.Var(h), S.Var(g), t)))))))))))
    return b


def encode_product(s: Type, t: Type) -> EncodingBundle:
    enc = product_type(s, t)
    b = EncodingBundle("product", enc)
    proj1 = S.lin_lam("x", enc, S.App(
        S.TyApp(S.Var("x"), s),
        S.App(_inj(Lolli(s, s), Lolli(t, s), False), S.id_at(s))))
    proj2 = S.lin_lam("x", enc, S.App(
        S.TyApp(S.Var("x"), t),
        S.App(_inj(Lolli(s, t), Lolli(t, t), True), S.id_at(t))))
    w, f, g, x, a, h, z = fresh_many(["w", "f", "g", "x", "a", "h", "z"],
                                     free_type_names(enc))
    vw, va = TyVar(w), TyVar(a)
    under = lambda body: S.ty_lam(w, S.lam_int(f, Lolli(vw, s), S.lam_int(
        g, Lolli(vw, t), S.lin_lam(x, vw, body))))
    # copair (fn z:s-oa. z . f) (fn z:t-oa. z . g) h x
    left = S.lin_lam(z, Lolli(s, va), S.compose(S.Var(z), S.Var(f), vw))
    right = S.lin_lam(z, Lolli(t, va), S.compose(S.Var(z), S.Var(g), vw))
    cs = _case(Lolli(s, va), Lolli(t, va))
    pair = under(S.ty_lam(a, S.lin_lam(
        h, sum_type(Lolli(s, va), Lolli(t, va)),
        S.app(S.tyapp(cs, Lolli(vw, va)), S.bang(left), S.bang(right),
              S.Var(h), S.Var(x)))))
    b.combinators["proj1"] = (proj1, Lolli(enc, s))
    b.combinators["proj2"] = (proj2, Lolli(enc, t))
    b.combinators["pair"] = (pair, forall(w, arrow(
        Lolli(vw, s), arrow(Lolli(vw, t), Lolli(vw, enc)))))
    paired = S.app(S.tyapp(pair, vw), S.bang(S.Var(f)), S.bang(S.Var(g)),
                   S.Var(x))
    for name, proj, chosen in (("proj1_pair", proj1, f),
                               ("proj2_pair", proj2, g)):
        b.beta_laws.append((name, under(S.App(proj, paired)),
                            under(S.App(S.Var(chosen), S.Var(x)))))
    b.schema_laws.append(("surjective_pairing", S.forall_ty_p(
        w, S.forall_tm_p(h, Lolli(vw, enc), S.InternalEq(
            Lolli(vw, enc), S.Var(h),
            S.app(S.tyapp(pair, vw),
                  S.bang(S.compose(proj1, S.Var(h), vw)),
                  S.bang(S.compose(proj2, S.Var(h), vw))))))))
    return b


def encode_nat() -> EncodingBundle:
    enc = nat_type()
    b = EncodingBundle("nat", enc)
    a, f, x, y, a0, st = fresh_many(["a", "f", "x", "y", "a0", "s"], set())
    va = TyVar(a)
    zero = S.ty_lam(a, S.lam_int(f, Lolli(va, va),
                                 S.lin_lam(x, va, S.Var(x))))
    succ = S.lin_lam(y, enc, S.ty_lam(a, S.lam_int(
        f, Lolli(va, va), S.lin_lam(x, va, S.App(
            S.Var(f),
            S.app(S.tyapp(S.Var(y), va), S.bang(S.Var(f)), S.Var(x)))))))
    vs = TyVar(st)

    def quantified(body: Term) -> Term:
        return S.ty_lam(st, S.lin_lam(a0, vs, S.lam_int(
            f, Lolli(vs, vs), body)))

    iter_ = quantified(S.lin_lam(y, enc, S.app(
        S.tyapp(S.Var(y), vs), S.bang(S.Var(f)), S.Var(a0))))
    b.combinators["zero"] = (zero, enc)
    b.combinators["succ"] = (succ, Lolli(enc, enc))
    b.combinators["iter"] = (iter_, forall(st, Lolli(
        vs, arrow(Lolli(vs, vs), Lolli(enc, vs)))))
    it = lambda n: S.app(S.tyapp(iter_, vs), S.Var(a0), S.bang(S.Var(f)), n)
    b.beta_laws.append((
        "iter_zero", quantified(it(zero)), quantified(S.Var(a0))))
    succ_law = lambda body: quantified(S.lin_lam(y, enc, body))
    b.beta_laws.append(("iter_succ", succ_law(it(S.App(succ, S.Var(y)))),
                        succ_law(S.App(S.Var(f), it(S.Var(y))))))
    rn, xn = "R", "x"
    rv = RelVar(rn, enc, enc, Flavor.ADMREL)
    b.schema_laws.append(("induction", S.forall_rel_p(
        rn, enc, enc, Flavor.ADMREL, S.Implies(
            S.And(S.RelApp(rv, zero, zero),
                  S.forall_tm_p(xn, enc, S.Implies(
                      S.RelApp(rv, S.Var(xn), S.Var(xn)),
                      S.RelApp(rv, S.App(succ, S.Var(xn)),
                               S.App(succ, S.Var(xn)))))),
            S.forall_tm_p(xn, enc, S.RelApp(rv, S.Var(xn), S.Var(xn)))))))
    return b


def numeral(n: int) -> Term:
    b = encode_nat()
    t = b.combinators["zero"][0]
    succ = b.combinators["succ"][0]
    for _ in range(n):
        t = S.App(succ, t)
    return t


# ---------------------------------------------------------------------------
# Existential packaging


def _pack(var: str, body: Type) -> Term:
    avoid = set(free_type_names(body)) | {var}
    x, bq, f = fresh_many(["x", "b", "f"], avoid)
    inner_poly = forall(var, Lolli(body, TyVar(bq)))
    return S.ty_lam(var, S.lin_lam(x, body, S.ty_lam(bq, S.lin_lam(
        f, inner_poly, S.App(S.TyApp(S.Var(f), TyVar(var)), S.Var(x))))))


def exists_hat(var: str, body: Type, t: Term, res: Type) -> Term:
    """From var |- t : body -o res (res closed in var) to (ex var. body) -o res."""
    enc = exists_type(var, body)
    x = fresh("x", S.all_free_names(t) | {var})
    return S.lin_lam(x, enc, S.App(S.TyApp(S.Var(x), res), S.ty_lam(var, t)))


def exists_tilde(var: str, body: Type, s_term: Term) -> Term:
    """From s : (ex var. body) -o res to var |- body -o res."""
    x = fresh("x", S.all_free_names(s_term) | {var})
    return S.lin_lam(x, body, S.App(
        s_term, S.app(S.TyApp(_pack(var, body), TyVar(var)), S.Var(x))))


def encode_exists(var: str, body: Type) -> EncodingBundle:
    enc = exists_type(var, body)
    pack = _pack(var, body)
    b = EncodingBundle("exists", enc)
    b.combinators["pack"] = (pack, forall(var, Lolli(body, enc)))
    # tilde(hat(t)) == t at t := pack var
    hat_pack = exists_hat(var, body, S.TyApp(pack, TyVar(var)), enc)
    tilde_hat = exists_tilde(var, body, hat_pack)
    lhs = S.ty_lam(var, tilde_hat)
    rhs = S.ty_lam(var, S.TyApp(pack, TyVar(var)))
    b.beta_laws.append(("tilde_hat", lhs, rhs))
    # hat(tilde(s)) == s, at s := id
    tilde_id = exists_tilde(var, body, S.id_at(enc))
    hat_tilde = exists_hat(var, body, tilde_id, enc)
    b.schema_laws.append(("hat_tilde", S.InternalEq(
        Lolli(enc, enc), hat_tilde, S.id_at(enc))))
    x, a, xp = fresh_many(["x", "a", "x'"], {var} | set(free_type_names(body)))
    b.schema_laws.append(("characterization", S.forall_tm_p(
        x, enc, S.exists_ty_p(a, S.exists_tm_p(
            xp, S.subst_type_in_type(body, var, TyVar(a)),
            S.InternalEq(enc, S.Var(x),
                         S.App(S.TyApp(pack, TyVar(a)), S.Var(xp))))))))
    return b


# ---------------------------------------------------------------------------
# Initial algebras, final coalgebras


def mu_fold(var: str, body: Type) -> Term:
    enc = mu_type(var, body)
    f, u = fresh_many(["f", "u"], set(free_type_names(body)) | {var})
    return S.ty_lam(var, S.lam_int(f, Lolli(body, TyVar(var)), S.lin_lam(
        u, enc, S.app(S.tyapp(S.Var(u), TyVar(var)), S.bang(S.Var(f))))))


def mu_in(var: str, body: Type) -> Term:
    enc = mu_type(var, body)
    fold = mu_fold(var, body)
    z, f = fresh_many(["z", "f"], set(free_type_names(body)) | {var})
    act = action_cov(body, var, enc, TyVar(var),
                     S.app(S.tyapp(fold, TyVar(var)), S.bang(S.Var(f))))
    return S.lin_lam(z, S.subst_type_in_type(body, var, enc), S.ty_lam(
        var, S.lam_int(f, Lolli(body, TyVar(var)),
                       S.App(S.Var(f), S.App(act, S.Var(z))))))


def encode_mu(var: str, body: Type) -> EncodingBundle:
    forbid(body, [var], False,
           "{!r} must occur only positively in " + print_type(body))
    enc = mu_type(var, body)
    fold = mu_fold(var, body)
    in_ = mu_in(var, body)
    body_at = lambda ty: S.subst_type_in_type(body, var, ty)
    b = EncodingBundle("mu", enc)
    b.combinators["fold"] = (fold, forall(var, arrow(
        Lolli(body, TyVar(var)), Lolli(enc, TyVar(var)))))
    b.combinators["into"] = (in_, Lolli(body_at(enc), enc))
    t, f, x = fresh_many(["t", "f", "x"], set(free_type_names(body)) | {var})
    vt = TyVar(t)
    fold_tf = S.app(S.tyapp(fold, vt), S.bang(S.Var(f)))
    under = lambda body_: S.ty_lam(t, S.lam_int(
        f, Lolli(body_at(vt), vt), S.lin_lam(x, body_at(enc), body_)))
    b.beta_laws.append(("fold_in_square",
                        under(S.App(fold_tf, S.App(in_, S.Var(x)))),
                        under(S.App(S.Var(f), S.App(action_cov(
                            body, var, enc, vt, fold_tf), S.Var(x))))))
    h, xn = fresh_many(["h", "x"], {t, f, var})
    b.schema_laws.append(("initiality", S.forall_ty_p(t, S.forall_tm_p(
        f, Lolli(body_at(vt), vt), S.forall_tm_p(
            h, Lolli(enc, vt), S.Implies(
                S.forall_tm_p(xn, body_at(enc), S.InternalEq(
                    vt, S.App(S.Var(h), S.App(in_, S.Var(xn))),
                    S.App(S.Var(f),
                          S.App(action_cov(body, var, enc, vt, S.Var(h)),
                                S.Var(xn))))),
                S.InternalEq(Lolli(enc, vt), S.Var(h),
                             S.app(S.tyapp(fold, vt), S.bang(S.Var(f))))))))))
    rn = "R"
    rv = RelVar(rn, enc, enc, Flavor.ADMREL)
    interp = R.interp_with(body, {var: rv})
    b.schema_laws.append(("induction", S.forall_rel_p(
        rn, enc, enc, Flavor.ADMREL, S.Implies(
            S.RelApp(R.lolli_rel(interp, rv), in_, in_),
            S.forall_tm_p(xn, enc, S.RelApp(rv, S.Var(xn), S.Var(xn)))))))
    return b


def nu_unfold(var: str, body: Type) -> Term:
    t, fb, x = fresh_many(["t", "f", "x"], set(free_type_names(body)) | {var})
    vt = TyVar(t)
    body_t = S.subst_type_in_type(body, var, vt)
    pack = _pack(var, Tensor(Bang(Lolli(TyVar(var), body)), TyVar(var)))
    return S.ty_lam(t, S.lin_lam(fb, Bang(Lolli(vt, body_t)), S.lin_lam(
        x, vt, S.App(S.TyApp(pack, vt),
                     S.tensor_pair(S.Var(fb), S.Var(x))))))


def nu_out(var: str, body: Type) -> tuple[Term, Term]:
    """Returns (out, r): the observation map and its polymorphic worker."""
    enc = nu_type(var, body)
    unfold = nu_unfold(var, body)
    body_nu = S.subst_type_in_type(body, var, enc)
    t, y, w, z, f, x = fresh_many(["t", "y", "w", "z", "f", "x"],
                                  set(free_type_names(body)) | {var})
    vt = TyVar(t)
    body_t = S.subst_type_in_type(body, var, vt)
    carrier_t = Tensor(Bang(Lolli(vt, body_t)), vt)
    act = action_cov(body, var, vt, enc,
                     S.app(S.tyapp(unfold, vt), S.bang(S.Var(f))))
    r = S.ty_lam(t, S.lin_lam(y, carrier_t, S.let_tensor(
        w, z, Bang(Lolli(vt, body_t)), vt, S.Var(y),
        S.let_bang(f, Lolli(vt, body_t), S.Var(w),
                   S.App(act, S.App(S.Var(f), S.Var(z)))))))
    out = S.lin_lam(x, enc, S.App(S.TyApp(S.Var(x), body_nu), r))
    return out, r


def encode_nu(var: str, body: Type) -> EncodingBundle:
    forbid(body, [var], False,
           "{!r} must occur only positively in " + print_type(body))
    enc = nu_type(var, body)
    unfold = nu_unfold(var, body)
    out, r = nu_out(var, body)
    body_at = lambda ty: S.subst_type_in_type(body, var, ty)
    b = EncodingBundle("nu", enc)
    t, f, x = fresh_many(["t", "f", "x"], set(free_type_names(body)) | {var})
    vt = TyVar(t)
    b.combinators["unfold"] = (unfold, forall(t, Lolli(
        Bang(Lolli(vt, body_at(vt))), Lolli(vt, enc))))
    b.combinators["out"] = (out, Lolli(enc, body_at(enc)))
    b.combinators["observe"] = (
        r, forall(t, Lolli(Tensor(Bang(Lolli(vt, body_at(vt))), vt),
                           body_at(enc))))
    unfold_tf = S.app(S.tyapp(unfold, vt), S.bang(S.Var(f)))
    under = lambda body_: S.ty_lam(t, S.lam_int(
        f, Lolli(vt, body_at(vt)), S.lin_lam(x, vt, body_)))
    b.beta_laws.append(("out_unfold_square",
                        under(S.App(out, S.App(unfold_tf, S.Var(x)))),
                        under(S.App(action_cov(body, var, vt, enc, unfold_tf),
                                    S.App(S.Var(f), S.Var(x))))))
    h, xn, yn = fresh_many(["h", "x", "y"], {t, f, var})
    b.schema_laws.append(("finality", S.forall_ty_p(t, S.forall_tm_p(
        f, Lolli(vt, body_at(vt)), S.forall_tm_p(
            h, Lolli(vt, enc), S.Implies(
                S.forall_tm_p(xn, vt, S.InternalEq(
                    body_at(enc), S.App(out, S.App(S.Var(h), S.Var(xn))),
                    S.App(action_cov(body, var, vt, enc, S.Var(h)),
                          S.App(S.Var(f), S.Var(xn))))),
                S.InternalEq(Lolli(vt, enc), S.Var(h), unfold_tf)))))))
    rn = "R"
    for name, flavor in (("coinduction", Flavor.ADMREL),
                         ("general_coinduction", Flavor.REL)):
        rv = RelVar(rn, enc, enc, flavor)
        interp = R.interp_with(body, {var: rv})
        b.schema_laws.append((name, S.forall_rel_p(
            rn, enc, enc, flavor, S.Implies(
                S.RelApp(R.lolli_rel(rv, interp), out, out),
                S.forall_tm_p(xn, enc, S.forall_tm_p(yn, enc, S.Implies(
                    S.RelApp(rv, S.Var(xn), S.Var(yn)),
                    S.InternalEq(enc, S.Var(xn), S.Var(yn)))))))))
    return b


# ---------------------------------------------------------------------------
# General recursive types


@dataclass
class RecParts:
    """What both recursive-type generators build from rec var. body."""
    neg_params: list[str]     # padded to the length of pos_params
    pos_params: list[str]
    swap: dict[str, Type]     # each parameter to its partner
    split_body: Type          # over neg_var, pos_var
    neg_var: str
    pos_var: str
    omega_body: Type          # the inner least fixed point, open in neg_var
    a: str                    # the companion's variable
    phi: Type                 # the companion's body, open in a
    tau_prime: Type           # nu a. phi
    tau: Type
    in_: Term                 # s(tau', tau) -o tau
    out: Term                 # tau' -o s(tau, tau'), parameters swapped
    bundle: EncodingBundle    # into and outof, closed over the parameters


def _rec_parts(name: str, var: str, body: Type, neg_params: list[str],
               pos_params: list[str]) -> RecParts:
    """Split var by variance and build the two fixed points.  The i-th
    negative and positive parameters swap roles in the companion type; a
    shorter vector is padded with fresh vacuous variables."""
    neg_params, pos_params = list(neg_params), list(pos_params)
    avoid = set(free_type_names(body)) | set(neg_params) | set(pos_params)
    while len(neg_params) < len(pos_params):
        neg_params.append(fresh(pos_params[len(neg_params)] + "n", avoid))
        avoid.add(neg_params[-1])
    while len(pos_params) < len(neg_params):
        pos_params.append(fresh(neg_params[len(pos_params)] + "p", avoid))
        avoid.add(pos_params[-1])
    only = "parameter {!r} must occur only "
    forbid(body, neg_params, True, only + "negatively")
    forbid(body, pos_params, False, only + "positively")
    swap: dict[str, Type] = {}
    for nn, pp_ in zip(neg_params, pos_params):
        swap[nn] = TyVar(pp_)
        swap[pp_] = TyVar(nn)
    st = split_occurrences(body, var)
    s4, n, p = st.split, st.neg_var, st.pos_var
    omega = mu_type(p, s4)                # free: n (+ parameters)
    a = fresh("a", set(free_type_names(body)) | {n, p})
    phi = S.subst_types(s4, {**swap, p: TyVar(a),
                             n: S.subst_type_in_type(omega, n, TyVar(a))})
    tau_p = nu_type(a, phi)
    tau = S.subst_type_in_type(omega, n, tau_p)
    forbid(tau, neg_params, True, "{!r} occurs {} in the result")
    forbid(tau_p, neg_params, False, "{!r} occurs {} in the companion")
    forbid(tau, pos_params, False, "{!r} occurs {} in the result")
    forbid(tau_p, pos_params, True, "{!r} occurs {} in the companion")
    in_ = mu_in(p, S.subst_type_in_type(s4, n, tau_p))
    out, _ = nu_out(a, phi)
    params = neg_params + pos_params
    b = EncodingBundle(name, tau)
    b.combinators["into"] = (S.ty_lams(params, in_), S.foralls(
        params, Lolli(S.subst_types(s4, {n: tau_p, p: tau}), tau)))
    b.combinators["outof"] = (S.ty_lams(params, out), S.foralls(
        params, Lolli(tau_p, S.subst_types(s4, {**swap, n: tau, p: tau_p}))))
    return RecParts(neg_params, pos_params, swap, s4, n, p, omega, a, phi,
                    tau_p, tau, in_, out, b)


def _subset(r1: S.Relation, r2: S.Relation, d1: Type, d2: Type, x: str,
            y: str) -> S.Proposition:
    """r1 is included in r2, both between d1 and d2."""
    return S.forall_tm_p(x, d1, S.forall_tm_p(y, d2, S.Implies(
        S.RelApp(r1, S.Var(x), S.Var(y)), S.RelApp(r2, S.Var(x), S.Var(y)))))


def encode_rec(var: str, body: Type) -> EncodingBundle:
    """Solve rec var. body for mixed-variance bodies.

    Produces the recursive type, candidate isomorphism terms i and i_inv
    (mutually inverse only under parametricity), and the dialgebra
    mediators k, k_prime.
    """
    if S.contains_const(body):
        from .functor import NotInductivelyConstructed
        raise NotInductivelyConstructed(
            "recursive solving needs an inductively constructed body")
    parts = _rec_parts("rec", var, body, [], [])
    s4, n, p = parts.split_body, parts.neg_var, parts.pos_var
    tau, tau_p, in_, out = parts.tau, parts.tau_prime, parts.in_, parts.out
    s4_at = lambda nn, pp: S.subst_types(s4, {n: nn, p: pp})

    mu_bundle_body = S.subst_type_in_type(s4, n, tau_p)  # open in p
    fold = mu_fold(p, mu_bundle_body)
    a, phi = parts.a, parts.phi
    unfold = nu_unfold(a, phi)

    # in_inv : tau -o s(tau', tau) via fold at the shifted algebra
    psi_in = action_cov(mu_bundle_body, p, s4_at(tau_p, tau), tau, in_)
    in_inv = S.app(S.tyapp(fold, s4_at(tau_p, tau)), S.bang(psi_in))
    # out_inv : s(tau, tau') -o tau' via unfold at the shifted coalgebra
    phi_out = action_cov(phi, a, tau_p, s4_at(tau, tau_p), out)
    out_inv = S.app(S.tyapp(unfold, s4_at(tau, tau_p)), S.bang(phi_out))

    u, v_ = fresh_many(["u", "v"], {n, p, a})
    # j : tau -o tau'   (fixed point of out_inv . s(u,u) . in_inv)
    j_ty = Lolli(tau, tau_p)
    j = S.App(S.TyApp(S.Y(), j_ty), S.bang(S.lam_int(
        u, j_ty, S.compose(out_inv, S.compose(
            apply_action(s4, n, p, (tau_p, tau), (tau, tau_p),
                         S.Var(u), S.Var(u)),
            in_inv, tau), tau))))
    # j_inv : tau' -o tau
    ji_ty = Lolli(tau_p, tau)
    j_inv = S.App(S.TyApp(S.Y(), ji_ty), S.bang(S.lam_int(
        v_, ji_ty, S.compose(in_, S.compose(
            apply_action(s4, n, p, (tau, tau_p), (tau_p, tau),
                         S.Var(v_), S.Var(v_)),
            out, tau_p), tau_p))))

    i = S.compose(in_, apply_action(s4, n, p, (tau, tau_p), (tau, tau),
                                    j_inv, S.id_at(tau)), s4_at(tau, tau))
    i_inv = S.compose(apply_action(s4, n, p, (tau_p, tau), (tau, tau),
                                   j, S.id_at(tau)), in_inv, tau)

    # dialgebra mediators
    w, w2, tn, tn2 = fresh_many(["w", "w'", "t", "t'"],
                                set(free_type_names(tau)) | {n, p, a, u, v_})
    vw, vw2 = TyVar(w), TyVar(w2)
    omega_w2 = S.subst_type_in_type(parts.omega_body, n, vw2)
    fold_w2 = mu_fold(p, S.subst_type_in_type(s4, n, vw2))
    a_map = S.app(S.tyapp(fold_w2, vw), S.bang(S.Var(tn)))  # omega(w') -o w
    coalg = S.compose(
        apply_action(s4, n, p, (vw, omega_w2), (vw2, vw2), a_map,
                     S.id_at(vw2)),
        S.Var(tn2), vw2)
    h_p = S.app(S.tyapp(unfold, vw2), S.bang(coalg))        # w' -o tau'
    omega_h = action_contra(parts.omega_body, n, h_p, tau_p, vw2)
    arg1 = Lolli(s4_at(vw2, vw), vw)
    arg2 = Lolli(vw2, s4_at(vw, vw2))
    under = lambda body_: S.ty_lam(w, S.ty_lam(w2, S.lam_int(
        tn, arg1, S.lam_int(tn2, arg2, body_))))
    over = lambda ty: S.foralls([w, w2], arrow(arg1, arrow(arg2, ty)))

    b = parts.bundle
    sigma_rec = S.subst_type_in_type(body, var, tau)  # == s(tau, tau)
    b.combinators["iso"] = (i, Lolli(sigma_rec, tau))
    b.combinators["iso_inv"] = (i_inv, Lolli(tau, sigma_rec))
    b.combinators["mediate"] = (under(S.compose(a_map, omega_h, tau)),
                                over(Lolli(tau, vw)))
    b.combinators["mediate_inv"] = (under(S.compose(j_inv, h_p, vw2)),
                                    over(Lolli(vw2, tau)))
    b.schema_laws.append(("iso_section", S.InternalEq(
        Lolli(tau, tau), S.compose(i, i_inv, tau), S.id_at(tau))))
    b.schema_laws.append(("iso_retraction", S.InternalEq(
        Lolli(sigma_rec, sigma_rec), S.compose(i_inv, i, sigma_rec),
        S.id_at(sigma_rec))))
    rm, rp_ = "Rm", "Rp"
    rv_m = RelVar(rm, tau, tau, Flavor.REL)
    rv_p = RelVar(rp_, tau, tau, Flavor.ADMREL)
    interp1 = R.interp_with(s4, {n: rv_p, p: rv_m})
    interp2 = R.interp_with(s4, {n: rv_m, p: rv_p})
    b.schema_laws.append(("mixed_induction_coinduction", S.forall_rel_p(
        rm, tau, tau, Flavor.REL, S.forall_rel_p(
            rp_, tau, tau, Flavor.ADMREL, S.Implies(
                S.And(S.RelApp(R.lolli_rel(rv_m, interp1), i_inv, i_inv),
                      S.RelApp(R.lolli_rel(interp2, rv_p), i, i)),
                S.And(_subset(rv_m, R.eq_rel(tau), tau, tau, "x", "y"),
                      _subset(R.eq_rel(tau), rv_p, tau, tau, "x", "y")))))))
    return b


def encode_rec_params(neg_params: list[str], pos_params: list[str],
                      var: str, body: Type) -> EncodingBundle:
    """Recursive types with parameters.

    neg_params/pos_params are the paired split halves of the conceptual
    parameters; the i-th pair swaps roles in the companion type.  A
    shorter vector is padded with fresh vacuous variables so one-sided
    parameters can be passed alone.  The rec variable is split
    internally, as in encode_rec.
    """
    parts = _rec_parts("rec_params", var, body, neg_params, pos_params)
    neg_params, pos_params = parts.neg_params, parts.pos_params
    s4, n, p = parts.split_body, parts.neg_var, parts.pos_var
    tau, tau_p = parts.tau, parts.tau_prime
    params = neg_params + pos_params

    # the parameterized mixed rule, with premises phrased through in/out
    omp, omp2, omm, omm2 = [], [], [], []
    avoid = set(params) | {n, p, var}
    for nm in pos_params:
        omp.append(fresh(nm + "1", avoid)); avoid.add(omp[-1])
        omp2.append(fresh(nm + "2", avoid)); avoid.add(omp2[-1])
    for nm in neg_params:
        omm.append(fresh(nm + "1", avoid)); avoid.add(omm[-1])
        omm2.append(fresh(nm + "2", avoid)); avoid.add(omm2[-1])
    rps = [fresh("Rp" + nm, avoid) for nm in pos_params]
    avoid |= set(rps)
    rms = [fresh("Rm" + nm, avoid) for nm in neg_params]
    avoid |= set(rms)
    sp, sm, xn, yn = fresh_many(["Sp", "Sm", "x", "y"], avoid)
    # the left family instantiates negative slots at omp, positive at omm
    rp_vars = [RelVar(rn2, TyVar(o1), TyVar(o2), Flavor.ADMREL)
               for rn2, o1, o2 in zip(rps, omp, omp2)]
    rm_vars = [RelVar(rn2, TyVar(o1), TyVar(o2), Flavor.ADMREL)
               for rn2, o1, o2 in zip(rms, omm, omm2)]
    left = {**{nm: TyVar(o) for nm, o in zip(neg_params, omp)},
            **{nm: TyVar(o) for nm, o in zip(pos_params, omm)}}
    right = {**{nm: TyVar(o) for nm, o in zip(neg_params, omp2)},
             **{nm: TyVar(o) for nm, o in zip(pos_params, omm2)}}
    t_l, t_r = S.subst_types(tau, left), S.subst_types(tau, right)
    tp_l, tp_r = S.subst_types(tau_p, left), S.subst_types(tau_p, right)
    sm_var = RelVar(sm, t_l, t_r, Flavor.REL)
    sp_var = RelVar(sp, tp_l, tp_r, Flavor.ADMREL)
    rel_for = {**{nm: r for nm, r in zip(neg_params, rp_vars)},
               **{nm: r for nm, r in zip(pos_params, rm_vars)}}

    in_l, out_l = [S.subst_types(t, left) for t in (parts.in_, parts.out)]
    in_r, out_r = [S.subst_types(t, right) for t in (parts.in_, parts.out)]
    premise_in = S.RelApp(R.lolli_rel(R.interp_with(
        s4, {**rel_for, n: sp_var, p: sm_var}), sm_var), in_l, in_r)
    # out's codomain swaps the parameter slots
    out_cod = S.subst_types(s4, {**parts.swap, n: tau, p: tau_p})
    premise_out = S.RelApp(R.lolli_rel(sp_var, R.interp_with(
        out_cod, {**rel_for, n: sm_var, p: sp_var})), out_l, out_r)
    concl = S.And(
        _subset(sm_var, R.interp_with(tau, rel_for), t_l, t_r, xn, yn),
        _subset(R.interp_with(tau_p, rel_for), sp_var, tp_l, tp_r, xn, yn))
    prop = S.Implies(S.And(premise_in, premise_out), concl)
    prop = S.forall_rel_p(sm, t_l, t_r, Flavor.REL, prop)
    prop = S.forall_rel_p(sp, tp_l, tp_r, Flavor.ADMREL, prop)
    for rn2, o1, o2 in reversed(list(zip(rms, omm, omm2))):
        prop = S.forall_rel_p(rn2, TyVar(o1), TyVar(o2), Flavor.ADMREL, prop)
    for rn2, o1, o2 in reversed(list(zip(rps, omp, omp2))):
        prop = S.forall_rel_p(rn2, TyVar(o1), TyVar(o2), Flavor.ADMREL, prop)
    for o in reversed(omp + omp2 + omm + omm2):
        prop = S.forall_ty_p(o, prop)
    b = parts.bundle
    b.schema_laws.append(("parameterized_mixed_rule", R.prop_beta(prop)))
    return b


# ---------------------------------------------------------------------------
# Declarations and serialization


def bundle_decls(b: EncodingBundle, prefix: str | None = None,
                 exclude: set[str] | None = None) -> list[tuple[str, P.Decl]]:
    """The bundle's file as (name, declaration) pairs: its type, a term
    per combinator, an `equal` directive per beta law and a `prop`
    directive per schema law, each closed over the parameters it
    mentions, so each is checked in an empty context."""
    prefix = prefix if prefix is not None else b.name
    params, here = free_type_names(b.defined_type), S.Span(0, 0)
    mentioned = lambda *nodes: [v for v in params if any(
        v in free_type_names(x) for x in nodes)]

    out: list[tuple[str, P.Decl]] = [(f"{prefix}_t", P.TypeDecl(
        f"{prefix}_t", tuple(params), b.defined_type, here))]
    for name, (term, ty) in b.combinators.items():
        if name not in (exclude or ()):
            ps = mentioned(term, ty)
            out.append((name, P.TermDecl(f"{prefix}_{name}", S.foralls(ps, ty),
                                         S.ty_lams(ps, term), here)))
    for name, lhs, rhs in b.beta_laws:
        ps = mentioned(lhs, rhs)
        out.append((name, P.Directive(
            "equal", (S.ty_lams(ps, lhs), S.ty_lams(ps, rhs)), here)))
    for name, prop in b.schema_laws:
        for v in reversed(mentioned(prop)):
            prop = S.forall_ty_p(v, prop)
        out.append((name, P.Directive("prop", (prop,), here)))
    return out


def bundle_to_source(b: EncodingBundle, prefix: str | None = None,
                     exclude: set[str] | None = None) -> str:
    """Print `bundle_decls`; a schema law is a `# schema` comment."""
    lines = [f"# bundle: {b.name}"]
    for name, d in bundle_decls(b, prefix, exclude):
        if isinstance(d, P.TypeDecl):
            lines.append(f"type {' '.join((d.name, *d.params))} = "
                         f"{print_type(d.body, sugar=True)}")
        elif isinstance(d, P.TermDecl):
            lines.append(f"term {d.name} : {print_type(d.claimed, sugar=True)}"
                         f" = {print_term(d.body, sugar=True)}")
        elif d.name == "equal":
            lines += [f"# law: {name}", "#equal " + " == ".join(
                print_term(t, sugar=True) for t in d.payload)]
        else:
            lines.append(f"# schema {name}: "
                         f"{print_prop(d.payload[0], sugar=True)}")
    return "\n".join(lines) + "\n"


# The default catalog: instantiations shipped as .pilly files.


def catalog() -> dict[str, EncodingBundle]:
    n = nat_type()
    one = void_type()
    out = {
        "iso_self_unit": encode_iso_self(Unit()),
        "iso_self_nat": encode_iso_self(n),
        "tensor": encode_tensor(n, Unit()),
        "unit": encode_unit(),
        "sum": encode_sum(n, Unit()),
        "product": encode_product(n, Unit()),
        "nat": encode_nat(),
        "exists": encode_exists("a", Tensor(TyVar("a"), n)),
        "mu": encode_mu("a", sum_type(one, TyVar("a"))),
        "nu": encode_nu("a", Tensor(n, TyVar("a"))),
        "rec_lazy_list": encode_rec("a", sum_type(one, Tensor(n, TyVar("a")))),
        "rec_mixed": encode_rec("a", Lolli(TyVar("a"), TyVar("a"))),
        "rec_params": encode_rec_params([], ["b1"], "b",
                                        Tensor(TyVar("b1"), TyVar("b"))),
    }
    return out
