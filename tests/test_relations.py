"""Definable relations: constructions, the relational interpretation,
admissibility derivations, the closure operator and schema generators."""

import random
import re

import pytest

from conftest import gen_type
from pilly import encodings as E
from pilly import relations as RL
from pilly import syntax as S
from pilly.parser import Signature, parse_prop, parse_term, parse_type
from pilly.pretty import pp
from pilly.relations import (Derivation, FormationError, PurityError,
                             RelJudgement, arrow_rel, bang_rel, check_prop,
                             check_relation, closure_phi, derive_admissible,
                             eq_rel, graph_rel, identity_extension_instance,
                             interp_with, lolli_rel, lrl_statement,
                             parametricity_schema_instance, prop_beta,
                             reindex, tensor_rel, type_rel_interp, unfold,
                             unit_rel)
from pilly.syntax import (Flavor, Lolli, RelContext, RelVar, TermContext,
                          Tensor, TyConst, TyVar, Unit)
from pilly.typecheck import TypeCheckError

XI = ("s", "t")
THETA = RelContext(entries={
    "R": (TyVar("s"), TyVar("t"), Flavor.REL),
    "Sa": (TyVar("s"), TyVar("t"), Flavor.ADMREL),
})
RAW = RelVar("R", TyVar("s"), TyVar("t"), Flavor.REL)
ADM = RelVar("Sa", TyVar("s"), TyVar("t"), Flavor.ADMREL)
EQ_S, EQ_T = eq_rel(TyVar("s")), eq_rel(TyVar("t"))


def wf(rel):
    return check_relation(XI, {}, THETA, rel)


def unfold_all(n):
    """`n` with every fold unfolded to the end.  Each binder is opened at
    a fresh name, so every fold's arguments are closed when it unfolds,
    and closed again after; the result is not beta-normalized."""
    avoid = S.all_free_names(n)
    if isinstance(n, S.TypeRel):
        r = S.TypeRel(n.hints, n.body, tuple(map(unfold_all, n.args)))
        return r if isinstance(r.body, TyConst) else unfold_all(unfold(r))
    if isinstance(n, S.RelApp):
        return S.RelApp(unfold_all(n.rel), n.lhs, n.rhs)
    if isinstance(n, (S.Implies, S.And, S.Or)):
        return type(n)(unfold_all(n.left), unfold_all(n.right))
    if isinstance(n, S.Compr):
        x, y, body = S.open_compr(n, avoid)
        return S.compr(x, n.tyx, y, n.tyy, unfold_all(body))
    if isinstance(n, (S.ForallTy, S.ExistsTy)):
        a = S.fresh(n.hint, avoid)
        close = S.forall_ty_p if isinstance(n, S.ForallTy) else S.exists_ty_p
        return close(a, unfold_all(S.instantiate_ty(n.body, TyVar(a))))
    if isinstance(n, (S.ForallTm, S.ExistsTm)):
        z = S.fresh(n.hint, avoid)
        close = S.forall_tm_p if isinstance(n, S.ForallTm) else S.exists_tm_p
        return close(z, n.ty,
                     unfold_all(S.instantiate_tm(n.body, S.Var(z))))
    if isinstance(n, (S.ForallRel, S.ExistsRel)):
        rn = S.fresh(n.hint, avoid)
        close = (S.forall_rel_p if isinstance(n, S.ForallRel)
                 else S.exists_rel_p)
        opened = S.instantiate_rel(n.body,
                                   RelVar(rn, n.dom, n.cod, n.flavor))
        return close(rn, n.dom, n.cod, n.flavor, unfold_all(opened))
    return n


def unfolded(n):
    return prop_beta(unfold_all(n))


def structural(ty, rel_for):
    """The interpretation unfolded at every layer as it is built, each
    unmapped variable at equality: the reference for the folds."""
    if isinstance(ty, TyVar):
        return rel_for[ty.name] if ty.name in rel_for else eq_rel(ty)
    if isinstance(ty, Unit):
        return unit_rel()
    if isinstance(ty, Lolli):
        return lolli_rel(structural(ty.dom, rel_for),
                         structural(ty.cod, rel_for))
    if isinstance(ty, Tensor):
        return tensor_rel(structural(ty.left, rel_for),
                          structural(ty.right, rel_for))
    if isinstance(ty, S.Bang):
        return bang_rel(structural(ty.body, rel_for))
    assert isinstance(ty, S.Forall)
    used = set(S.free_type_names(ty)) | set(rel_for)
    for r in rel_for.values():
        used |= S.all_free_names(r)
    a, b, rn = S.fresh_many([ty.hint, ty.hint + "'", "R"], used)
    inner = structural(S.instantiate_ty(ty.body, TyVar(a)), {
        **rel_for, a: RelVar(rn, TyVar(a), TyVar(b), Flavor.ADMREL)})
    return RL.forall_rel(a, b, rn, inner)


def judge(rel, gamma=None):
    return RelJudgement(XI, gamma or {}, THETA, rel)


class TestConstructions:
    def test_graph_of_identity_is_equality(self):
        assert graph_rel(S.id_at(Unit()), Unit(), Unit()) == eq_rel(Unit())

    def test_graph_well_formed(self):
        g = graph_rel(parse_term("fn x:s. x"), TyVar("s"), TyVar("s"))
        assert wf(g) == (TyVar("s"), TyVar("s"))

    def test_identity_reindex_collapses(self):
        rho = eq_rel(TyVar("s"))
        r = reindex(rho, S.id_at(TyVar("s")), S.id_at(TyVar("s")),
                    TyVar("s"), TyVar("s"))
        assert r == rho

    def test_composite_reindexings_compose(self):
        f = parse_term("fn x:s. x")
        g = parse_term("fn y:t. y")
        inner = reindex(ADM, f, g, TyVar("s"), TyVar("t"))
        twice = reindex(inner, f, g, TyVar("s"), TyVar("t"))
        comp = reindex(ADM, S.compose(f, f, TyVar("s")),
                       S.compose(g, g, TyVar("t")), TyVar("s"), TyVar("t"))
        assert twice == comp

    def test_lolli_signature(self):
        r = lolli_rel(eq_rel(TyVar("s")), eq_rel(TyVar("t")))
        assert wf(r) == (parse_type("s -o t"), parse_type("s -o t"))

    def test_tensor_expansion_shape(self):
        r = tensor_rel(RAW, RAW)
        dom, cod = wf(r)
        assert dom == Tensor(TyVar("s"), TyVar("s"))
        body = pp(r)
        # the displayed comprehension quantifies two fresh types, an
        # admissible relation, and two eliminator functions
        assert "all" in body and "AdmRel" in body and "let" in body

    def test_unit_rel_matches_display(self):
        r = unit_rel()
        assert wf(r) == (Unit(), Unit())
        assert "let <> =" in pp(r)

    def test_bang_statement_emits(self):
        # the promotion lemma statement: related values have related boxes
        r = bang_rel(RAW)
        x, y = S.Var("x"), S.Var("y")
        stmt = S.forall_tm_p("x", TyVar("s"), S.forall_tm_p(
            "y", TyVar("t"), S.Implies(
                S.RelApp(RAW, x, y),
                S.RelApp(r, S.bang(x), S.bang(y)))))
        check_prop(XI, {}, THETA, prop_beta(stmt))

    def test_arrow_uses_boxed_application(self):
        r = arrow_rel(RAW, ADM)
        assert "!x" in pp(r)


class TestTypeRelInterp:
    def test_variable_slot(self):
        assert type_rel_interp(TyVar("a"), [RAW]) == RAW

    def test_unit_is_unit_rel(self):
        assert type_rel_interp(Unit(), []) == unit_rel()

    def test_arrow_unfolds_to_lolli(self):
        got = type_rel_interp(parse_type("a -o a"), [RAW])
        assert got == lolli_rel(RAW, RAW)

    def test_forall_unfolds_to_quantified(self):
        got = type_rel_interp(parse_type("all b. b"), [])
        s = pp(got)
        assert s.startswith("(t:all b. b, u:all b")
        assert "AdmRel" in s

    def test_opaque_constant_stays(self):
        got = type_rel_interp(TyConst("lists", (TyVar("a"),)), [RAW])
        assert isinstance(got, S.TypeRel)

    def test_interp_with_interprets_unmapped_variables_by_equality(self):
        ty = parse_type("b * a -o b")
        folded = interp_with(ty, {"a": RAW})
        assert folded == S.type_rel(["b", "a"], ty, [eq_rel(TyVar("b")), RAW])
        assert unfolded(folded) == \
            unfolded(type_rel_interp(ty, [eq_rel(TyVar("b")), RAW]))

    def test_interp_with_folds(self):
        assert interp_with(TyVar("a"), {"a": RAW}) == RAW
        assert interp_with(TyVar("a"), {}) == eq_rel(TyVar("a"))
        # a closed type folds to ty[]: identity extension is not assumed
        assert interp_with(Unit(), {}) == S.TypeRel((), Unit(), ())
        assert pp(interp_with(parse_type("all b. b -o b"), {})) == \
            "(all b. b -o b)[]"

    def test_one_step_leaves_components_folded(self):
        got = type_rel_interp(parse_type("(a -o a) * a"), [RAW])
        fold = S.type_rel(["a"], parse_type("a -o a"), [RAW])
        assert got == tensor_rel(fold, RAW)
        assert unfold(fold) == lolli_rel(RAW, RAW)
        assert unfold(S.type_rel(["a"], parse_type("(a -o a) * a"),
                                 [RAW])) == got

    def test_arity_mismatch(self):
        with pytest.raises(FormationError):
            type_rel_interp(parse_type("a -o b"), [RAW])

    def test_substitution_homomorphism(self):
        # interpret(body[inner/a]) == interpret(body) with the slot for a
        # interpreted by interpret(inner)
        rng = random.Random(61)
        checked = 0
        while checked < 60:
            body = gen_type(rng, ["a", "b"], 4)
            inner = gen_type(rng, ["b"], 2)
            if "a" not in S.free_type_names(body):
                continue
            checked += 1
            substituted = S.subst_type_in_type(body, "a", inner)
            inner_rel = type_rel_interp(
                inner, [RAW for _ in S.free_type_names(inner)])
            direct = type_rel_interp(
                substituted, [RAW for _ in S.free_type_names(substituted)])
            table = {"a": inner_rel, "b": RAW}
            composed = type_rel_interp(
                body, [table[n] for n in S.free_type_names(body)])
            assert unfolded(direct) == unfolded(composed)


def _derivable(rel, gamma=None) -> bool:
    return derive_admissible(judge(rel, gamma)) is not None


class TestAdmissibility:
    def test_equality_derivable(self):
        d = derive_admissible(judge(eq_rel(TyVar("s"))))
        assert isinstance(d, Derivation)

    def test_graph_derivable(self):
        g = graph_rel(parse_term("fn x:s. x"), TyVar("s"), TyVar("s"))
        assert _derivable(g)

    def test_admissible_variable(self):
        assert _derivable(ADM)

    def test_raw_variable_not_derivable(self):
        assert not _derivable(RAW)

    def test_closure_properties(self):
        assert _derivable(reindex(ADM, parse_term("fn x:s. x"),
                                  parse_term("fn y:t. y"),
                                  TyVar("s"), TyVar("t")))
        assert _derivable(lolli_rel(RAW, ADM))
        assert not _derivable(lolli_rel(ADM, RAW))
        assert _derivable(arrow_rel(RAW, ADM))
        assert _derivable(tensor_rel(RAW, RAW))
        assert _derivable(bang_rel(RAW))
        assert _derivable(unit_rel())
        assert _derivable(closure_phi(RAW))

    def test_interpretation_with_admissible_arguments(self):
        rel = S.type_rel(["a"], TyConst("lists", (TyVar("a"),)), [ADM])
        assert _derivable(rel)
        raw = S.type_rel(["a"], TyConst("lists", (TyVar("a"),)), [RAW])
        assert not _derivable(raw)

    @pytest.mark.parametrize("construction, ty, args, derivable", [
        (lolli_rel, "a -o b", (RAW, ADM), True),
        (lolli_rel, "a -o b", (ADM, ADM), True),
        (lolli_rel, "a -o b", (EQ_S, ADM), True),
        (lolli_rel, "a -o b", (RAW, EQ_T), True),
        (lolli_rel, "a -o b", (ADM, RAW), False),
        (arrow_rel, "!a -o b", (RAW, ADM), True),
        (arrow_rel, "!a -o b", (EQ_S, ADM), True),
        (arrow_rel, "!a -o b", (ADM, RAW), False),
        (tensor_rel, "a * b", (RAW, RAW), True),
        (tensor_rel, "a * b", (RAW, ADM), True),
        (tensor_rel, "a * b", (ADM, ADM), True),
        (tensor_rel, "a * b", (EQ_S, RAW), True),
        (bang_rel, "!a", (RAW,), True),
        (bang_rel, "!a", (ADM,), True),
        (bang_rel, "!a", (EQ_S,), True),
        (unit_rel, "I", (), True),
        (lambda r: r, "a", (RAW,), False),
    ])
    def test_fold_derives_as_its_construction(self, construction, ty, args,
                                              derivable):
        """Criterion 8's constructions, each also written as a fold
        ty[args]: both spellings get the same verdict, and a fold's
        derivation is its unfolding's."""
        ty = parse_type(ty)
        fold = S.type_rel(S.free_type_names(ty), ty, args)
        rel = construction(*args)
        assert _derivable(rel) is derivable
        assert _derivable(fold) is derivable
        if derivable:
            d = derive_admissible(judge(fold))
            assert d.rule == "type-interpretation"
            assert d.children == [derive_admissible(judge(rel))]

    def test_conjunction_and_top(self):
        both = S.compr("x", TyVar("s"), "y", TyVar("t"), S.And(
            S.RelApp(ADM, S.Var("x"), S.Var("y")),
            S.RelApp(ADM, S.Var("x"), S.Var("y"))))
        assert _derivable(both)
        top = S.compr("x", TyVar("s"), "y", TyVar("t"), S.Top())
        assert _derivable(top)

    def test_swapped_arguments(self):
        sw = S.compr("x", TyVar("t"), "y", TyVar("s"),
                     S.RelApp(ADM, S.Var("y"), S.Var("x")))
        assert _derivable(sw)

    def test_negative_shapes(self):
        bad = [
            RAW,
            lolli_rel(ADM, RAW),
            arrow_rel(ADM, RAW),
            S.compr("x", TyVar("s"), "y", TyVar("t"),
                    S.Or(S.Top(), S.RelApp(ADM, S.Var("x"), S.Var("y")))),
            S.compr("x", TyVar("s"), "y", TyVar("t"),
                    S.exists_tm_p("z", Unit(),
                                  S.RelApp(ADM, S.Var("x"), S.Var("y")))),
        ]
        for rel in bad:
            assert not _derivable(rel)

    def test_phi_is_smallest_statement_emitted(self):
        # containment half that is pure formation: rho implies Phi(rho)
        phi = closure_phi(RAW)
        stmt = S.forall_tm_p("x", TyVar("s"), S.forall_tm_p(
            "y", TyVar("t"), S.Implies(
                S.RelApp(RAW, S.Var("x"), S.Var("y")),
                S.RelApp(phi, S.Var("x"), S.Var("y")))))
        check_prop(XI, {}, THETA, prop_beta(stmt))

    def test_derivation_renders(self):
        d = derive_admissible(judge(closure_phi(RAW)))
        text = d.render()
        assert "forall-type" in text and "reindex" in text


class TestSchemas:
    def test_identity_extension_variable(self):
        p = identity_extension_instance(TyVar("a"))
        check_prop((), {}, RelContext(), p)

    def test_identity_extension_tensor(self):
        p = identity_extension_instance(parse_type("a * a"))
        check_prop((), {}, RelContext(), p)

    def test_identity_extension_quantified_case(self):
        p = identity_extension_instance(parse_type("all b. a -o b"))
        check_prop((), {}, RelContext(), p)

    def test_parametricity_well_formed(self):
        p = parametricity_schema_instance("b", parse_type("(b -> b) -> b"))
        check_prop((), {}, RelContext(), p)

    def test_parametricity_instance_at_y_is_axiom(self):
        schema = parametricity_schema_instance("b",
                                               parse_type("(b -> b) -> b"))
        assert isinstance(schema, S.ForallTm)
        instantiated = prop_beta(S.instantiate_tm(schema.body, S.Y()))
        assert instantiated == lrl_statement(S.Y())

    def test_lrl_identity(self):
        p = lrl_statement(parse_term("/\\a. fn x:a. x"))
        check_prop((), {}, RelContext(), p)

    def test_lrl_successor(self):
        succ = E.encode_nat().combinators["succ"][0]
        p = lrl_statement(succ)
        check_prop((), {}, RelContext(), p)

    def test_lrl_open_term(self):
        ctx = TermContext(("a",), {"f": parse_type("a -o a")},
                          {"x": TyVar("a")})
        p = lrl_statement(parse_term("f x"), ctx)
        check_prop((), {}, RelContext(), p)

    def test_lrl_rejects_constants(self):
        t = S.lin_lam("x", TyConst("c0"), S.Var("x"))
        with pytest.raises(PurityError):
            lrl_statement(t)


class TestFormation:
    def test_relapp_argument_types_checked(self):
        bad = S.RelApp(RAW, S.Star(), S.Star())
        with pytest.raises(FormationError):
            check_prop(XI, {}, THETA, bad)

    def test_unbound_relation_variable(self):
        with pytest.raises(FormationError):
            check_relation((), {}, RelContext(),
                           RelVar("missing", Unit(), Unit(), Flavor.REL))

    @pytest.mark.parametrize("prop, expected", [
        pytest.param(
            "all a. all Q : Rel(a, I). all b. all x:a. all y:I. Q(x, y)",
            None, id="bound-relation-under-a-later-type-binder"),
        pytest.param(
            "all a. all Q : Rel(a, I). all b. all x:b. all y:I. Q(x, y)",
            (FormationError, "domain/codomain a applied to a term of type b"),
            id="bound-relation-under-a-later-type-binder-misapplied"),
        pytest.param(
            "(all R : Rel(I, I). R(<>, <>)) /\\ (all x:s. all y:t. R(x, y))",
            None, id="theta-relation-shadowed-then-used-outside"),
        pytest.param(
            "(all R : Rel(I, I). R(<>, <>)) /\\ R(<>, <>)",
            (FormationError, "domain/codomain s applied to a term of type I"),
            id="theta-relation-outside-the-shadow-keeps-its-types"),
        pytest.param(
            "all x:s. all y:t. all R : Rel(I, I). R(x, y)",
            (FormationError, "domain/codomain I applied to a term of type s"),
            id="theta-relation-shadowed-at-its-own-types"),
        pytest.param(
            "all a. all x:a. x =_{I} x",
            (FormationError, "equality at I applied to a term of type a"),
            id="equality-at-the-wrong-type-names-the-binder"),
        pytest.param(
            "all z:s. all w:t. ((x:s, y:t). x =_{s} z)(z, w)",
            None, id="comprehension-uses-an-outer-term"),
        pytest.param(
            "all z:t. all w:t. ((x:s, y:t). x =_{s} z)(w, w)",
            (FormationError, "equality at s applied to a term of type t"),
            id="comprehension-uses-an-outer-term-at-the-wrong-type"),
        pytest.param(
            "all z:s. ((x:I, y:I). T)(<>, <>) /\\ z =_{s} z",
            None, id="comprehension-binders-end-with-it"),
        pytest.param(
            "all a. all Q : Rel(a, a). (all b. T) /\\ (all x:a. Q(x, x))",
            None, id="type-binders-end-with-their-scope"),
        pytest.param(
            "all Q : Rel(s, t). all f:s -o s. all g:t -o t. "
            "(c -o c)[Q](f, g)",
            None, id="type-relation-of-a-bound-relation"),
        pytest.param(
            S.forall_ty_p("b", S.forall_rel_p(
                "Q", TyVar("s"), TyVar("t"), Flavor.ADMREL, S.forall_tm_p(
                    "f", Lolli(TyVar("s"), TyVar("b")), S.forall_tm_p(
                        "g", Lolli(TyVar("t"), TyVar("b")), S.RelApp(
                            S.type_rel(["c"], Lolli(TyVar("c"), TyVar("b")),
                                       [RelVar("Q", TyVar("s"), TyVar("t"))]),
                            S.Var("f"), S.Var("g")))))),
            None, id="type-relation-body-under-an-outer-type-binder"),
        pytest.param(
            "ex a. ex Q : AdmRel(a, a). ex x:a. Q(x, x) \\/ F",
            None, id="existentials"),
        pytest.param(
            S.ForallTm("x", Unit(), S.InternalEq(Unit(), S.Var("x"),
                                                 S.Star())),
            (TypeCheckError, "variable 'x' is not in scope"),
            id="free-term-name-not-captured-by-a-binder"),
        pytest.param(
            S.ForallTy("a", S.ForallTm("y", TyVar("a"), S.Top())),
            (TypeCheckError, "type variable 'a' is not in scope"),
            id="free-type-name-not-captured-by-a-binder"),
        pytest.param(
            S.ForallTy("a", S.ForallTm("x", S.TyBound(1), S.Top())),
            (TypeCheckError, "dangling type index"),
            id="dangling-type-index"),
        pytest.param(
            S.ForallTm("x", Unit(), S.InternalEq(Unit(), S.Bound(1),
                                                 S.Star())),
            (TypeCheckError, "dangling bound variable"),
            id="dangling-term-index"),
        pytest.param(
            S.ForallRel("Q", Unit(), Unit(), Flavor.REL,
                        S.RelApp(S.RelBound(1), S.Star(), S.Star())),
            (FormationError, "not a relation"),
            id="dangling-relation-index"),
    ])
    def test_formation_rules(self, prop, expected):
        sig = Signature(rels={n: (d, c, fl, None)
                              for n, (d, c, fl) in THETA.entries.items()})
        p = parse_prop(prop, sig) if isinstance(prop, str) else prop
        if expected is None:
            check_prop(XI, {}, THETA, p)
            return
        exc, message = expected
        with pytest.raises(exc, match=re.escape(message)):
            check_prop(XI, {}, THETA, p)

    def test_formation_opens_no_binder(self, monkeypatch):
        """Every catalog schema law is checked on the binder stack: with
        each way of opening a binder, and the per-term `infer_type`,
        made to fail, all of them still pass."""
        laws = [p for b in E.catalog().values() for _, p in b.schema_laws]

        def opened(*args, **kwargs):
            raise AssertionError("formation checking opened a binder")

        for mod, name in ((RL, "instantiate_tm"), (S, "instantiate_rel"),
                          (S, "open_compr"), (RL, "infer_type"),
                          (RL, "fresh"), (S, "fresh_many")):
            monkeypatch.setattr(mod, name, opened)
        for p in laws:
            check_prop((), {}, RelContext(), p)

    def test_flavor_never_promoted(self):
        # a Rel-flavored variable stays underivable even when a same-name
        # AdmRel exists in another judgement
        assert not _derivable(RAW)
        assert _derivable(ADM)


class TestSchemaRelationship:
    def test_parametricity_is_the_unfolded_quantified_interpretation(self):
        # instantiating the schema's value quantifier reproduces the
        # self-relatedness statement produced through the interpretation
        sigma = parse_type("b -o b")
        schema = parametricity_schema_instance("b", sigma)
        ident = parse_term("/\\c. fn x:c. x")
        inst = prop_beta(S.instantiate_tm(schema.body, ident))
        assert inst == lrl_statement(ident)


class TestPropBeta:
    def test_normal_forms_are_returned_as_they_are(self):
        """The beta-normal form of every catalog schema law comes back
        from prop_beta as the same object.  Most laws keep their redexes
        as stated; the one built through prop_beta is its own normal
        form."""
        laws = {(k, n): p for k, b in E.catalog().items()
                for n, p in b.schema_laws}
        for p in laws.values():
            nf = prop_beta(p)
            assert prop_beta(nf) is nf
        rule = laws["rec_params", "parameterized_mixed_rule"]
        assert prop_beta(rule) is rule

    def test_unfolding_keeps_untouched_siblings(self):
        eq = eq_rel(TyVar("s"))
        side = S.forall_tm_p("z", TyVar("s"), S.RelApp(
            RAW, S.Var("z"), S.Var("z")))
        inner = S.And(side, S.RelApp(eq, S.Var("u"), S.Var("v")))
        p = S.Implies(side, S.forall_ty_p("a", inner))
        got = prop_beta(p)
        assert got.left is side and got.right.body.left is side
        unfolded = got.right.body.right
        assert isinstance(unfolded, S.InternalEq)
        assert unfolded == prop_beta(S.instantiate_tm(
            eq.body, S.Var("u"), S.Var("v")))
        assert prop_beta(got) is got


def _laws():
    return {(k, n): p for k, b in E.catalog().items()
            for n, p in b.schema_laws}


class TestFoldedLaws:
    def test_laws_match_the_structural_interpretation(self, monkeypatch):
        """Each catalog law, every fold unfolded to the end, is the law
        built with every interpretation unfolded as it is built."""
        folded = _laws()
        monkeypatch.setattr(RL, "interp_with", structural)
        full = _laws()
        assert len(folded) == 22
        assert any(isinstance(n, S.TypeRel)
                   for p in folded.values() for n in S.subnodes(p))
        for key, p in folded.items():
            assert unfolded(p) == prop_beta(full[key]), key

    def test_unfolded_laws_are_well_formed(self):
        for key, p in _laws().items():
            check_prop((), {}, RelContext(), unfolded(p))

    def test_laws_round_trip_with_their_folds(self):
        for key, p in _laws().items():
            for sugar in (False, True):
                back = parse_prop(pp(p, sugar=sugar), Signature())
                assert S.alpha_eq(back, p), (key, sugar)
                check_prop((), {}, RelContext(), back)

    def test_catalog_normalizes_few_terms(self, monkeypatch):
        """A work-count guard: building the catalog's laws normalizes at
        most 600 terms from this module (4,338 when every interpretation
        was unfolded as it was built)."""
        calls, normalize = [], RL.normalize

        def counted(*args):
            calls.append(args)
            return normalize(*args)

        monkeypatch.setattr(RL, "normalize", counted)
        E.catalog()
        assert 0 < len(calls) <= 600
