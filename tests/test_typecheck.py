"""The dual-context discipline: golden judgements, designated failures,
structural properties and the substitution rules."""

import random

import pytest

from conftest import TypedGen, gen_well_typed, scramble
from pilly import syntax as S
from pilly.parser import parse_term, parse_type
from pilly.pretty import pp, print_type
from pilly.syntax import TermContext, TyVar, Unit
from pilly.typecheck import (LINEAR_IN_BANG, LINEAR_REUSED, LINEAR_UNUSED,
                             MISMATCH, NOT_A_FORALL, NOT_A_FUNCTION, UNBOUND,
                             CONTEXT_ILL_FORMED, SubstitutionLemmaFailure,
                             TypeCheckError, check_substitution_lemma,
                             check_type, infer_type, kind_check)

EMPTY = TermContext()


def ctx(xi=(), gamma=None, delta=None):
    return TermContext(tuple(xi), dict(gamma or {}), dict(delta or {}))


class TestKindCheck:
    def test_variable_in_scope(self):
        kind_check(("a",), parse_type("a -o a"))

    def test_fixed_point_type_is_closed(self):
        kind_check((), parse_type("all a. !(!a -o a) -o a"))

    def test_unbound(self):
        with pytest.raises(TypeCheckError) as e:
            kind_check((), parse_type("a * I"))
        assert e.value.kind == UNBOUND


class TestGoldenInference:
    def test_fixed_point_combinator(self):
        assert infer_type(EMPTY, S.Y()).ty == \
            parse_type("all a. !(!a -o a) -o a")

    def test_polymorphic_identity(self):
        assert infer_type(EMPTY, parse_term("/\\a. fn x:a. x")).ty == \
            parse_type("all a. a -o a")

    def test_bang_of_intuitionistic_variable(self):
        r = infer_type(ctx(["s"], gamma={"x": TyVar("s")}), parse_term("!x"))
        assert r.ty == parse_type("!s")

    def test_star(self):
        check_type(EMPTY, S.Star(), Unit())

    def test_intuitionistic_lambda_sugar(self):
        check_type(ctx(["s"]), parse_term("lam x:s. x"), parse_type("s -> s"))

    def test_elaboration_fills_annotations(self):
        r = infer_type(EMPTY, parse_term("fn p:I * I. let x (*) y = p in "
                                         "let <> = x in y"))
        let = r.term.body
        assert let.tyx == Unit() and let.tyy == Unit()


NEGATIVE_CASES = [
    ("x (*) x", ctx(["s"], delta={"x": TyVar("s")}), LINEAR_REUSED),
    ("fn f:s -o s -o I. f x x", ctx(["s"], delta={"x": TyVar("s")}),
     LINEAR_REUSED),
    ("!x", ctx(["s"], delta={"x": TyVar("s")}), LINEAR_IN_BANG),
    ("!(x (*) <>)", ctx(["s"], delta={"x": TyVar("s")}), LINEAR_IN_BANG),
    ("<>", ctx(["s"], delta={"x": TyVar("s")}), LINEAR_UNUSED),
    ("fn x:s. <>", ctx(["s"]), LINEAR_UNUSED),
    ("let x (*) y = p in x", ctx(["s"], delta={"p": S.Tensor(TyVar("s"),
                                                             TyVar("s"))}),
     LINEAR_UNUSED),
    ("y", EMPTY, UNBOUND),
    ("fn x:q. x", EMPTY, UNBOUND),
    ("<> <>", EMPTY, NOT_A_FUNCTION),
    ("<> [I]", EMPTY, NOT_A_FORALL),
    ("(fn x:I. x) Y", EMPTY, MISMATCH),
]


class TestNegative:
    @pytest.mark.parametrize("src,c,kind", NEGATIVE_CASES,
                             ids=[k + str(i) for i, (_, _, k)
                                  in enumerate(NEGATIVE_CASES)])
    def test_designated_error(self, src, c, kind):
        with pytest.raises(TypeCheckError) as e:
            infer_type(c, parse_term(src))
        assert e.value.kind == kind

    def test_linear_in_bang_is_located(self):
        src = "fn x:I. !x"
        with pytest.raises(TypeCheckError) as e:
            infer_type(EMPTY, parse_term(src))
        assert e.value.kind == LINEAR_IN_BANG
        assert e.value.span == S.Span(src.index("!"), len(src))

    def test_messages_name_binders_by_hint(self):
        named = [
            ("fn x:I. fn y:I -o I -o I. y x x", EMPTY,
             "linear variable(s) x consumed twice"),
            ("/\\a. fn x:a. (fn y:I. y) x", EMPTY,
             "argument has type a, expected I"),
            ("/\\a. fn x:a. fn y:a. let <> = x in y", EMPTY,
             "let <> scrutinee has type a, expected I"),
            ("/\\a. fn x:a. f x",
             ctx(["a"], gamma={"f": parse_type("a -o I")}),
             "argument has type a1, expected a"),
        ]
        cases = [(src, c, None) for src, c, _ in NEGATIVE_CASES] + named
        for src, c, message in cases:
            with pytest.raises(TypeCheckError) as e:
                infer_type(c, parse_term(src))
            assert "#" not in str(e.value), src
            if message is not None:
                assert e.value.message == message
            for ty in (e.value.expected, e.value.found):
                if ty is not None:
                    print_type(ty)

    def test_pattern_annotation_mismatch(self):
        c = ctx(["s"], delta={"p": S.Tensor(TyVar("s"), Unit())})
        with pytest.raises(TypeCheckError) as e:
            infer_type(c, parse_term("let x (*) y : I * I = p in "
                                     "let <> = y in x"))
        assert e.value.kind == MISMATCH

    def test_check_type_mismatch_carries_both(self):
        with pytest.raises(TypeCheckError) as e:
            check_type(EMPTY, S.Star(), parse_type("I -o I"))
        assert e.value.kind == MISMATCH
        assert e.value.expected == parse_type("I -o I")
        assert e.value.found == Unit()

    def test_ill_formed_context(self):
        with pytest.raises(TypeCheckError) as e:
            infer_type(TermContext((), {"x": Unit()}, {"x": Unit()}),
                       S.Star())
        assert e.value.kind == CONTEXT_ILL_FORMED

    def test_dangling_type_index_is_rejected(self):
        """An annotation or a context type whose type index names no
        binder is ill kinded, with the annotated node's span."""
        at = S.Span(3, 9)
        poly_id = S.TyLam("a", S.LinLam("x", S.TyBound(0), S.Bound(0)))
        cases = [
            (EMPTY, S.LinLam("x", S.TyBound(5), S.Bound(0), at), UNBOUND),
            (EMPTY, S.TyLam("a", S.LinLam("x", S.TyBound(1), S.Bound(0),
                                          at)), UNBOUND),
            (EMPTY, S.TyApp(poly_id, S.TyBound(3), at), UNBOUND),
            (ctx(gamma={"f": S.TyBound(1)}), S.Var("f"), CONTEXT_ILL_FORMED),
        ]
        for c, t, kind in cases:
            with pytest.raises(TypeCheckError) as e:
                infer_type(c, t)
            assert e.value.kind == kind
            assert "dangling type index" in e.value.message
            if kind == UNBOUND:
                assert e.value.span == at
        # an index that names a binder in scope is fine
        assert infer_type(EMPTY, poly_id).ty == parse_type("all a. a -o a")

    def test_deep_types_do_not_recurse(self):
        """Kind checking and free-name queries fill their caches with an
        explicit stack, so a 3000-deep type is no problem."""
        deep = TyVar("a")
        for _ in range(3000):
            deep = S.Bang(deep)
        kind_check(("a",), deep)
        with pytest.raises(TypeCheckError) as e:
            kind_check((), deep)
        assert e.value.kind == UNBOUND
        assert S.free_type_names(deep) == ["a"]
        assert S.all_free_names(deep) == {"a"}
        body = S.TyBound(0)
        for _ in range(3000):
            body = S.Bang(body)
        assert S.free_type_names(body) == [] and not S.all_free_names(body)
        ty = infer_type(EMPTY, S.TyLam("a", S.LinLam("x", body, S.Bound(0)))).ty
        assert ty.body.dom is body and ty.body.cod is body
        with pytest.raises(TypeCheckError):
            infer_type(EMPTY, S.LinLam("x", body, S.Bound(0)))


class TestStructuralProperties:
    def test_uniqueness_across_renamings(self):
        rng, hints = random.Random(31), random.Random(131)
        for _ in range(150):
            c, t, _ = gen_well_typed(rng, 4)
            a = infer_type(c, t).ty
            b = infer_type(c, scramble(t, hints)).ty
            assert a == b

    def test_gamma_weakening_invisible(self):
        rng = random.Random(32)
        for _ in range(100):
            c, t, ty = gen_well_typed(rng, 4)
            widened = TermContext(c.xi, {**c.gamma, "fresh_w": Unit()},
                                  dict(c.delta))
            assert infer_type(widened, t).ty == ty

    def test_delta_weakening_rejected(self):
        rng = random.Random(33)
        for _ in range(100):
            c, t, _ = gen_well_typed(rng, 4)
            widened = TermContext(c.xi, dict(c.gamma),
                                  {**c.delta, "fresh_w": Unit()})
            with pytest.raises(TypeCheckError) as e:
                infer_type(widened, t)
            assert e.value.kind == LINEAR_UNUSED


class TestSubstitutionLemmas:
    def test_linear_example(self):
        c = ctx(["s"], delta={"x": Unit()})
        check_substitution_lemma("linear", c, parse_term("x"), "x", S.Star())

    def test_intuitionistic_example(self):
        c = ctx(["s"], gamma={"x": Unit()})
        check_substitution_lemma("intuitionistic", c, parse_term("!x"), "x",
                                 S.Star())

    def test_type_example(self):
        c = ctx(["a"], delta={"x": TyVar("a")})
        check_substitution_lemma("type", c, parse_term("x"), "a", None,
                                 rep_ty=Unit())

    @pytest.mark.parametrize("which", ["linear", "intuitionistic", "type"])
    def test_fuzz(self, which):
        rng = random.Random(hash(which) % 1000)
        for _ in range(60):
            _run_lemma_instance(rng, which)


def _run_lemma_instance(rng, which):
    g = TypedGen(rng)
    xi = ["s"]
    if which == "linear":
        u, sigma = g.gen(xi, {}, {}, 3)
        c = ctx(xi, gamma={"gv": Unit()}, delta={"lx": sigma})
        t, _ = g.gen(xi, dict(c.gamma), dict(c.delta), 3)
        check_substitution_lemma("linear", c, t, "lx", u,
                                 ctx_u=ctx(xi, gamma={"gv": Unit()}))
    elif which == "intuitionistic":
        u, sigma = g.gen(xi, {}, {}, 3)
        c = ctx(xi, gamma={"gx": sigma})
        t, _ = g.gen(xi, dict(c.gamma), {}, 3)
        check_substitution_lemma("intuitionistic", c, t, "gx", u)
    else:
        c = ctx(["s", "b"], delta={"lx": TyVar("b")})
        t, _ = g.gen(["s", "b"], {}, dict(c.delta), 3)
        rep = g.type_(["s"], 2)
        check_substitution_lemma("type", c, t, "b", None, rep_ty=rep)


class TestInferenceCache:
    """A closed term's inferred type is cached on its node by the
    `infer_type` that first types it, and read back wherever it recurs."""

    def test_second_inference_reuses_type_and_elaboration(self):
        t = parse_term("/\\a. fn p:a * I. let x (*) y = p in let <> = y in x")
        first = infer_type(EMPTY, t)
        second = infer_type(EMPTY, t)
        assert second.ty == first.ty == parse_type("all a. a * I -o a")
        assert first.term is not t and second.term is first.term

    def test_hit_outside_its_type_scope_raises_as_uncached(self):
        src = "fn x:b. x"
        cached = parse_term(src)
        infer_type(ctx(["b"]), cached)
        assert cached._ty is not None
        errors = []
        for t in (cached, parse_term(src)):
            with pytest.raises(TypeCheckError) as e:
                infer_type(EMPTY, t)
            errors.append((e.value.kind, e.value.message, e.value.span))
        assert errors[0] == errors[1] and errors[0][0] == UNBOUND

    def test_term_reading_a_variable_is_not_cached(self):
        t = parse_term("fn y:I. f y")
        infer_type(ctx(gamma={"f": parse_type("I -o I")}), t)
        assert t._ty is None and t.body._ty is None

    @pytest.mark.parametrize("src,c", [("(fn x:I. x) Y", EMPTY),
                                       ("<>", ctx(delta={"x": Unit()}))])
    def test_ill_typed_term_is_not_cached(self, src, c):
        t = parse_term(src)
        with pytest.raises(TypeCheckError):
            infer_type(c, t)
        assert t._ty is None

    def test_rebuild_drops_the_cached_type(self):
        t = parse_term("fn x:I. x")
        infer_type(EMPTY, t)
        assert t._ty is not None
        assert S.rebuild(t, {})._ty is None

    def test_elaboration_copies_only_to_fill_an_annotation(self):
        t = parse_term("fn p:!I. let !x = p in x")
        elab = infer_type(EMPTY, t).term
        assert elab is not t and t.body.ty is None
        assert elab.body.ty == Unit()
        assert infer_type(EMPTY, elab).term is elab


class TestLinearSoundness:
    def test_every_linear_variable_is_consumed(self):
        rng = random.Random(34)
        for _ in range(150):
            c, t, _ = gen_well_typed(rng, 4)
            infer_type(c, t)
            for name in c.delta:
                narrowed = TermContext(c.xi, dict(c.gamma),
                                       {n: ty for n, ty in c.delta.items()
                                        if n != name})
                with pytest.raises(TypeCheckError) as e:
                    infer_type(narrowed, t)
                assert e.value.kind == UNBOUND
