"""The equational theory: single steps, normalization, unrolling, and the
three-valued equality procedure."""

import random

import pytest

from conftest import gen_well_typed
from pilly import syntax as S
from pilly.parser import parse_term, parse_type
from pilly.pretty import pp
from pilly.rewrite import (Equal, FuelExhausted, NoYRedex, NotEqual,
                           RewriteConfig, Unknown, equal, normalize, step,
                           unroll_y)
from pilly.syntax import TermContext, TyVar, Unit
from pilly.typecheck import TypeCheckError, infer_type

CFG = RewriteConfig()


def norm(src, **kw):
    return normalize(parse_term(src), RewriteConfig(**kw) if kw else CFG)


# Every hoisting position with every let-form, under an outer `fn z:I.`
# that the let's scrutinee and body and the parent's other child all use,
# so a wrong shift or cutoff renames a variable.
_LETS = ("let <> = h z in f z", "let x (*) y = h z in x y z",
         "let !x = h z in x z")
_HOISTS = [
    ("({L}) (g z)", ["let <> = h z in f z (g z)",
                     "let x (*) y = h z in x y z (g z)",
                     "let !x = h z in x z (g z)"]),
    ("(g z) ({L})", ["let <> = h z in g z (f z)",
                     "let x (*) y = h z in g z (x y z)",
                     "let !x = h z in g z (x z)"]),
    ("({L}) [I]", ["let <> = h z in f z [I]",
                   "let x (*) y = h z in x y z [I]",
                   "let !x = h z in x z [I]"]),
    ("({L}) (*) (g z)", ["let <> = h z in f z (*) g z",
                         "let x (*) y = h z in x y z (*) g z",
                         "let !x = h z in x z (*) g z"]),
    ("(g z) (*) ({L})", ["let <> = h z in g z (*) f z",
                         "let x (*) y = h z in g z (*) x y z",
                         "let !x = h z in g z (*) x z"]),
    ("let <> = {L} in g z", [
        "let <> = h z in let <> = f z in g z",
        "let x (*) y = h z in let <> = x y z in g z",
        "let !x = h z in let <> = x z in g z"]),
    ("let a (*) b = {L} in g a b z", [
        "let <> = h z in let a (*) b = f z in g a b z",
        "let x (*) y = h z in let a (*) b = x y z in g a b z",
        "let !x = h z in let a (*) b = x z in g a b z"]),
    ("let !a = {L} in g a z", [
        "let <> = h z in let !a = f z in g a z",
        "let x (*) y = h z in let !a = x y z in g a z",
        "let !x = h z in let !a = x z in g a z"]),
]


class TestStep:
    @pytest.mark.parametrize("src,want", [
        (shape.format(L=let), want) for shape, wants in _HOISTS
        for let, want in zip(_LETS, wants)])
    def test_commuting_conversion_table(self, src, want):
        got = step(parse_term("fn z:I. " + src))
        assert got == parse_term("fn z:I. " + want)
        assert pp(got) == "fn z:I. " + want

    @pytest.mark.parametrize("src,want", [
        (shape.format(L=let), shape.format(L=contractum))
        for shape, _ in _HOISTS
        for let, contractum in (("let <> = <> in f z", "f z"),
                                ("let x (*) y = (h z) (*) z in x y z",
                                 "h z z z"),
                                ("let !x = !(h z) in x z", "h z z"))])
    def test_redex_let_contracts_in_place(self, src, want):
        # in one step, the term that hoisting the let and then
        # contracting it gives
        got = step(parse_term("fn z:I. " + src))
        assert got == parse_term("fn z:I. " + want)

    def test_beta_term(self):
        t = parse_term("(fn x:I. x) <>")
        assert step(t) == S.Star()

    def test_beta_star(self):
        t = parse_term("let <> = <> in y")
        assert step(t) == S.Var("y")

    def test_beta_tensor(self):
        t = parse_term("let x (*) y = (a (*) b) in y (*) x")
        assert step(t) == parse_term("b (*) a")

    def test_beta_bang(self):
        t = parse_term("let !x = !u in x (*) x")
        assert step(t) == parse_term("u (*) u")

    def test_beta_type(self):
        t = parse_term("(/\\a. fn x:a. x) [I]")
        assert step(t) == parse_term("fn x:I. x")

    def test_commuting_conversion_hoists_from_argument(self):
        t = parse_term("f (let <> = s in u)")
        assert step(t) == parse_term("let <> = s in f u")

    def test_commuting_conversion_hoists_from_scrutinee(self):
        t = parse_term("let !x = (let <> = s in u) in x")
        assert step(t) == parse_term("let <> = s in let !x = u in x")

    def test_normal_form_returns_none(self):
        assert step(parse_term("fn x:I. x")) is None
        assert step(S.Y()) is None

    def test_determinism(self):
        rng = random.Random(41)
        for _ in range(200):
            _, t, _ = gen_well_typed(rng, 4)
            assert step(t) == step(t)


class TestEta:
    def test_eta_term(self):
        assert norm("fn x:s. f x") == parse_term("f")

    def test_eta_term_blocked_when_var_occurs(self):
        t = parse_term("fn x:s. f x x")
        assert normalize(t, CFG) == t

    def test_eta_type(self):
        t = S.ty_lam("a", S.TyApp(S.Var("f"), TyVar("a")))
        assert normalize(t, CFG) == S.Var("f")

    def test_eta_star(self):
        assert norm("let <> = t in <>") == S.Var("t")

    def test_eta_tensor(self):
        assert norm("let x (*) y = t in x (*) y") == S.Var("t")

    def test_eta_bang(self):
        assert norm("let !x = t in !x") == S.Var("t")

    def test_eta_off(self):
        t = parse_term("fn x:s. f x")
        assert normalize(t, RewriteConfig(eta=False)) == t


class TestNormalize:
    def test_unit_iso_replay(self):
        # bwd(fwd x) rewrites to x through the displayed chain
        idp = "(/\\a. fn y:a. y)"
        f = f"(fn x:I. let <> = x in {idp})"
        g = "(fn t:all a. a -o a. t [I] <>)"
        got = normalize(parse_term(f"fn x:I. {g} ({f} x)"), CFG)
        assert got == parse_term("fn x:I. x")

    def test_idempotent(self):
        rng = random.Random(42)
        for _ in range(150):
            _, t, _ = gen_well_typed(rng, 4)
            once = normalize(t, CFG)
            assert normalize(once, CFG) == once

    def test_fuel_exhaustion_carries_term(self):
        big = parse_term("(fn x:I. x) ((fn x:I. x) ((fn x:I. x) <>))")
        with pytest.raises(FuelExhausted) as e:
            normalize(big, RewriteConfig(fuel=1))
        assert e.value.term is not None

    def test_y_not_unrolled(self):
        t = parse_term("Y [I] !(lam q:I. q)")
        assert normalize(t, CFG) == t

    def test_derived_lambda_beta(self):
        # (lam x:s. t) !u  -->*  t[u/x]
        got = norm("(lam x:s. x (*) x) !u")
        assert got == parse_term("u (*) u")


class TestSubjectReduction:
    def test_every_step_preserves_the_type(self):
        rng = random.Random(43)
        for _ in range(150):
            ctx, t, ty = gen_well_typed(rng, 4)
            for _ in range(60):
                nxt = step(t)
                if nxt is None:
                    break
                t = nxt
                assert infer_type(ctx, t).ty == ty


class TestUnrollY:
    def test_one_unrolling(self):
        f = "(lam q:I -o I. q)"
        t = parse_term(f"Y [I -o I] !{f}")
        got = unroll_y(t)
        assert got == parse_term(f"{f} !(Y [I -o I] !{f})")

    def test_bottom_map_unrolls(self):
        zero_ty = "all zz. zz"
        om = parse_term(f"Y [s -o {zero_ty}] !(lam w:s -o {zero_ty}. w)")
        got = unroll_y(om)
        assert isinstance(got, S.App)

    def test_no_redex(self):
        with pytest.raises(NoYRedex):
            unroll_y(parse_term("fn x:I. x"))


class TestEqual:
    def test_reflexive(self):
        t = parse_term("fn x:I. x")
        assert isinstance(equal(t, t, CFG), Equal)

    def test_distinct_normal_forms(self):
        r = equal(parse_term("fn x:I. x"), parse_term("fn x:I. let <> = x in <> (*) <>"),
                  CFG)
        assert isinstance(r, NotEqual)

    def test_type_mismatch_reported(self):
        with pytest.raises(TypeCheckError):
            equal(S.Star(), S.Y(), CFG, ctx=TermContext())

    def test_unknown_on_fixed_points(self):
        om = parse_term("Y [I] !(lam q:I. q)")
        r = equal(om, S.Star(), CFG)
        assert isinstance(r, Unknown) and r.reason == "yBudget"

    def test_unknown_fuel(self):
        loop = parse_term("(fn x:I. x) ((fn x:I. x) <>)")
        r = equal(loop, S.Star(), RewriteConfig(fuel=1))
        assert isinstance(r, Unknown) and r.reason == "fuel"

    def test_unknown_fuel_while_unrolling(self):
        om = parse_term("Y [I] !(lam x:I. x)")
        r = equal(om, S.Star(), RewriteConfig(fuel=1, y_unroll=1))
        assert isinstance(r, Unknown) and r.reason == "fuel"

    def test_collapsing_unrolled_form_already_equal(self):
        # when the unrolled body beta-collapses, no budget is needed
        f = "(lam q:I -o I. q)"
        once = parse_term(f"{f} !(Y [I -o I] !{f})")
        zero = parse_term(f"Y [I -o I] !{f}")
        assert isinstance(equal(zero, once, RewriteConfig()), Equal)

    def test_unrolling_budget_aligns(self):
        # eta off keeps the unrolled form distinct, so alignment needs budget
        f = "(lam q:I -o I. fn x:I. q x)"
        once = parse_term(f"fn x:I. (Y [I -o I] !{f}) x")
        zero = parse_term(f"Y [I -o I] !{f}")
        cfg0 = RewriteConfig(y_unroll=0, eta=False)
        cfg1 = RewriteConfig(y_unroll=1, eta=False)
        assert isinstance(equal(zero, once, cfg0), Unknown)
        assert isinstance(equal(zero, once, cfg1), Equal)

    def test_let_annotations_do_not_separate(self):
        for lhs, rhs in [("fn p:!I. let !x = p in x",
                          "fn p:!I. let !x : I = p in x"),
                         ("fn p:I * I. let x (*) y = p in let <> = x in y",
                          "fn p:I * I. let x (*) y : I * I = p in "
                          "let <> = x in y")]:
            assert isinstance(equal(parse_term(lhs), parse_term(rhs), CFG,
                                    TermContext()), Equal)

    def test_equal_is_witnessed(self):
        r = equal(parse_term("(fn x:I. x) <>"), S.Star(), CFG)
        assert isinstance(r, Equal)
        assert r.witness == S.Star()


class TestUnrollPreservesTyping:
    def test_unrolled_bottom_map_keeps_its_type(self):
        from pilly import encodings as E
        ctx = TermContext(("s",))
        t = E.bottom_map(TyVar("s"))
        ty = infer_type(ctx, t).ty
        u = unroll_y(t)
        assert infer_type(ctx, u).ty == ty
        assert infer_type(ctx, unroll_y(u)).ty == ty

    def test_unrolled_rec_mediator_keeps_its_type(self):
        from pilly import encodings as E
        b = E.encode_rec("a", parse_type("a -o a"))
        j, ty = b.combinators["iso"]
        got = infer_type(TermContext(), unroll_y(j)).ty
        assert got == ty


# --- the resuming normalizer against its specification, the `step` loop


def step_loop(t, eta=True):
    """(normal form, steps taken, term one step before it) by `step`."""
    n, prev = 0, None
    while True:
        nxt = step(t, eta)
        if nxt is None:
            return t, n, prev
        prev, t, n = t, nxt, n + 1


def assert_like_step_loop(t, eta=True):
    nf, n, prev = step_loop(t, eta)
    assert normalize(t, RewriteConfig(fuel=max(n, 1), eta=eta)) == nf
    if n >= 2:
        with pytest.raises(FuelExhausted) as e:
            normalize(t, RewriteConfig(fuel=n - 1, eta=eta))
        assert e.value.term == prev and e.value.steps == n - 1
    return n


def _eta_blocked_by(inner):
    """fn x:I. f !(... inner ...) x, with inner three or more levels below
    the binder; inner mentions x, and contracting it drops x."""
    return S.LinLam("x", Unit(), S.App(S.App(S.Var("f"), S.BangIntro(inner)),
                                       S.Bound(0)))


def _ty_eta_blocked_by(inner):
    return S.TyLam("a", S.TyApp(S.App(S.Var("f"), S.BangIntro(inner)),
                                S.TyBound(0)))


# let !y = !x in z: the let ! discards x
_DROP_X = S.LetBang("y", None, S.BangIntro(S.Bound(0)), S.Var("z"))
# (/\b. fn w:I. w) [a]: the type beta discards a
_DROP_A = S.TyApp(S.TyLam("b", S.LinLam("w", Unit(), S.Bound(0))),
                  S.TyBound(0))

# (term, normal form, steps): each first contracts a redex below a node
# that then becomes an eta redex; two levels below, only the grandparent's
# own test sees it, three or more below only an eta-shaped binder's
ETA_EXPOSED = [
    (parse_term("let !y = t in !((fn w:I. w) y)"), "t", 2),
    (parse_term("fn x:I. f ((fn w:I. w) x)"), "f", 2),
    (parse_term("let x (*) y = t in ((fn w:I. w) x) (*) y"), "t", 2),
    (_eta_blocked_by(_DROP_X), "f !z", 2),
    (_eta_blocked_by(S.TensorPair(S.Star(), _DROP_X)), "f !(<> (*) z)", 2),
    (_eta_blocked_by(S.BangIntro(S.BangIntro(_DROP_X))), "f !!!z", 2),
    (_ty_eta_blocked_by(_DROP_A), "f !(fn w:I. w)", 2),
    (_ty_eta_blocked_by(S.BangIntro(S.App(S.Var("g"), _DROP_A))),
     "f !!(g (fn w:I. w))", 2),
    (_ty_eta_blocked_by(S.App(S.Var("g"), S.BangIntro(
        S.TyApp(S.TyLam("c", S.Star()), S.TyBound(0))))), "f !(g !<>)", 2),
    # nested binders: the type beta exposes the outer one, whose eta
    # step leaves the inner one to be exposed by the let ! beta
    (S.TyLam("a", S.TyApp(_eta_blocked_by(S.TyApp(S.TyLam("c", _DROP_X),
                                                  S.TyBound(0))),
                          S.TyBound(0))), "f !z", 4),
]


def _stick_lets(t, rng):
    """t with about 40% of its let scrutinees replaced by context variables:
    those lets are stuck and get hoisted, among lets contracted in place."""
    changes = {name: _stick_lets(getattr(t, name), rng)
               for name, sort, *_ in S.CHILDREN.get(type(t), ())
               if sort is S.Term}
    if isinstance(t, (S.LetStar, S.LetTensor, S.LetBang)) \
            and rng.random() < 0.4:
        changes["scrut"] = S.Var(rng.choice(["gi", "gj", "dx", "dy"]))
    return S.rebuild(t, changes) if changes else t


class TestResumingNormalizer:
    @pytest.mark.parametrize("eta", [True, False])
    def test_fuzz_corpus_matches_step_loop(self, eta):
        rng, stick = random.Random(44), random.Random(45)
        steps = stuck_steps = 0
        for _ in range(200):
            _, t, _ = gen_well_typed(rng, rng.choice([3, 4, 5, 6]))
            steps += assert_like_step_loop(t, eta)
            stuck_steps += assert_like_step_loop(_stick_lets(t, stick), eta)
        assert steps > 500 and stuck_steps > 500

    def test_catalog_laws_match_step_loop(self):
        from pilly import encodings as E
        for b in E.catalog().values():
            for _, lhs, rhs in b.beta_laws:
                assert_like_step_loop(lhs)
                assert_like_step_loop(rhs)

    @pytest.mark.parametrize("k, steps", [(0, 0), (1, 6), (2, 10), (7, 35),
                                          (20, 100), (60, 300)])
    def test_numerals_match_step_loop(self, k, steps):
        from pilly import encodings as E
        assert assert_like_step_loop(E.numeral(k)) == steps

    @pytest.mark.parametrize("t, want, steps", ETA_EXPOSED)
    def test_deep_contraction_exposes_an_eta_redex(self, t, want, steps):
        assert step_loop(t)[:2] == (parse_term(want), steps)
        assert_like_step_loop(t)

    def test_eta_stays_blocked_while_the_variable_is_used(self):
        t = _eta_blocked_by(S.TensorPair(S.Bound(0), _DROP_X))
        nf = step_loop(t)[0]
        assert nf == _eta_blocked_by(S.TensorPair(S.Bound(0), S.Var("z")))
        assert_like_step_loop(t)

    def test_prop_beta_fuel_cut_propagates_as_unknown(self, monkeypatch,
                                                      tmp_path, capsys):
        """A term prop_beta cannot normalize within its fuel raises the
        cut, carrying the term after the last step, and `#schema`
        reports it as unknown rather than passing the term on as normal."""
        from pilly import encodings as E
        from pilly import relations
        from pilly.cli import main
        monkeypatch.setattr(relations, "_NF_CFG", RewriteConfig(fuel=7))
        t = E.numeral(5)
        want = t
        for _ in range(7):
            want = step(want)
        ty = infer_type(TermContext(), t).ty
        with pytest.raises(FuelExhausted) as cut:
            relations.prop_beta(S.InternalEq(ty, t, t))
        assert cut.value.term == want
        f = tmp_path / "cut.pilly"
        f.write_text(f"term n5 = {pp(t)}\n#schema lrl n5\n")
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("[unknown] #schema ")
        assert out[-1].endswith("-- fuel exhausted under a binder")
