"""Variance analysis and the synthesized functorial actions."""

import random

import pytest

from conftest import gen_type
from pilly import syntax as S
from pilly.functor import (NotInductivelyConstructed, Polarity,
                           PolarityViolation, action_cov, apply_action,
                           check_functor_laws, m_declared_type, polarity,
                           split_occurrences, synthesize_m, variance)
from pilly.parser import parse_type
from pilly.pretty import pp
from pilly.rewrite import Equal, RewriteConfig, equal
from pilly.syntax import Bang, Lolli, TermContext, Tensor, TyConst, TyVar, Unit
from pilly.typecheck import infer_type

CATALOG = ["b", "!b", "b * b", "a -o b", "all g. b * g"]


def occurrences_oracle(ty, name):
    """Independent per-occurrence enumeration: collect the parity of
    arrow-domain crossings on the path to each occurrence; an occurrence
    inside a constant's arguments counts as both."""
    signs = []

    def walk(t, flips, both=False):
        if isinstance(t, TyVar):
            if t.name == name:
                signs.extend([True, False] if both else [flips % 2 == 0])
        elif isinstance(t, Lolli):
            walk(t.dom, flips + 1, both)
            walk(t.cod, flips, both)
        elif isinstance(t, Tensor):
            walk(t.left, flips, both)
            walk(t.right, flips, both)
        elif isinstance(t, (Bang, S.Forall)):
            walk(t.body, flips, both)
        elif isinstance(t, TyConst):
            for a in t.args:
                walk(a, flips, True)

    walk(ty, 0)
    return Polarity(any(signs), any(not s for s in signs))


def gen_type_with_consts(rng, xi, depth):
    """Random types over xi whose nodes include constants applied to up
    to two arguments."""
    if depth <= 0 or rng.random() < 0.2:
        return TyVar(rng.choice(xi)) if rng.random() < 0.6 else Unit()
    sub = lambda: gen_type_with_consts(rng, xi, depth - 1)
    k = rng.randrange(5)
    if k == 0:
        return Lolli(sub(), sub())
    if k == 1:
        return Tensor(sub(), sub())
    if k == 2:
        return Bang(sub())
    if k == 3:
        return TyConst("c", tuple(sub() for _ in range(rng.randrange(3))))
    a = f"t{rng.randrange(1000)}"
    return S.forall(a, gen_type_with_consts(rng, xi + [a], depth - 1))


class TestPolarity:
    def test_variable_itself_positive(self):
        assert polarity(parse_type("a"), "a") == Polarity(True, False)

    def test_arrow_domain_flips(self):
        assert polarity(parse_type("a -o b"), "a") == Polarity(False, True)

    def test_double_flip(self):
        assert polarity(parse_type("(a -o I) -o I"), "a") == \
            Polarity(True, False)

    def test_constant_arguments_count_both(self):
        ty = TyConst("opaque", (TyVar("a"),))
        assert polarity(ty, "a") == Polarity(True, True)

    def test_fuzz_against_oracle(self):
        rng = random.Random(51)
        for _ in range(300):
            ty = gen_type(rng, ["a", "b"], 4)
            assert polarity(ty, "a") == occurrences_oracle(ty, "a")

    def test_variance_fuzz_against_oracle_with_constants(self):
        rng = random.Random(54)
        for _ in range(300):
            ty = gen_type_with_consts(rng, ["a", "b", "c"], 4)
            got = variance(ty)
            assert list(got) == S.free_type_names(ty)
            assert got == {n: occurrences_oracle(ty, n) for n in got}
            assert polarity(ty, "z") == Polarity(False, False)

    def test_deep_chain_does_not_recurse(self):
        ty = TyVar("a")
        for _ in range(5000):
            ty = Lolli(ty, TyVar("b"))
        assert polarity(ty, "a") == Polarity(True, False)
        assert variance(ty) == {"a": Polarity(True, False),
                                "b": Polarity(True, True)}


class TestSplit:
    def test_simple(self):
        st = split_occurrences(parse_type("a -o a"), "a")
        assert st.split == Lolli(TyVar(st.neg_var), TyVar(st.pos_var))

    def test_absent_variable(self):
        st = split_occurrences(parse_type("b"), "a")
        assert st.split == TyVar("b")

    def test_mixed(self):
        st = split_occurrences(parse_type("!(a -o a) -o a"), "a")
        n, p = st.neg_var, st.pos_var
        assert st.split == parse_type(f"!({p} -o {n}) -o {p}")

    def test_resubstitution_fuzz(self):
        rng = random.Random(52)
        for _ in range(300):
            ty = gen_type(rng, ["a", "b"], 4)
            st = split_occurrences(ty, "a")
            assert st.resubstituted("a") == ty


class TestSynthesis:
    @pytest.mark.parametrize("src", CATALOG)
    def test_action_typechecks_at_declared_type(self, src):
        ty = parse_type(src)
        m = synthesize_m(ty, "a", "b")
        assert infer_type(TermContext(), m).ty == m_declared_type(ty, "a", "b")

    def test_polarity_violation(self):
        with pytest.raises(PolarityViolation):
            synthesize_m(parse_type("b -o b"), "a", "b")
        with pytest.raises(PolarityViolation):
            synthesize_m(parse_type("a"), "a", "b")

    def test_constant_rejected(self):
        with pytest.raises(NotInductivelyConstructed):
            synthesize_m(TyConst("opaque", (TyVar("b"),)), "a", "b")

    def test_constant_without_the_variables_gets_identity(self):
        ty = Lolli(TyConst("c0"), TyVar("b"))
        m = synthesize_m(ty, "a", "b")
        assert infer_type(TermContext(), m).ty == m_declared_type(ty, "a", "b")

    def test_fuzzed_separated_types(self):
        rng = random.Random(53)
        produced = 0
        while produced < 40:
            raw = gen_type(rng, ["a", "b"], 4)
            pa, pb = polarity(raw, "a"), polarity(raw, "b")
            if pa.positive or pb.negative:
                continue
            produced += 1
            m = synthesize_m(raw, "a", "b")
            assert infer_type(TermContext(), m).ty == \
                m_declared_type(raw, "a", "b")


class TestAction:
    def test_plain_variable_is_identity(self):
        ctx = TermContext(("s", "t"))
        act = apply_action(TyVar("b"), "a", "b", (Unit(), Unit()),
                           (TyVar("s"), TyVar("s")),
                           S.id_at(Unit()), S.id_at(TyVar("s")))
        r = equal(act, S.id_at(TyVar("s")), RewriteConfig(), ctx=ctx)
        assert isinstance(r, Equal)

    def test_tensor_identity_closes_via_eta(self):
        ctx = TermContext(("s",))
        ty = parse_type("b * b")
        act = apply_action(ty, "a", "b", (Unit(), Unit()),
                           (TyVar("s"), TyVar("s")),
                           S.id_at(Unit()), S.id_at(TyVar("s")))
        want = S.id_at(parse_type("s * s"))
        assert isinstance(equal(act, want, RewriteConfig(), ctx=ctx), Equal)

    def test_covariant_bang_action_type(self):
        ctx = TermContext(("s", "t"), gamma={"g": parse_type("s -o t")})
        act = action_cov(Bang(TyVar("b")), "b", TyVar("s"), TyVar("t"),
                         S.Var("g"))
        assert infer_type(ctx, act).ty == parse_type("!s -o !t")


class TestLaws:
    @pytest.mark.parametrize("src", CATALOG)
    def test_identity_law(self, src):
        ident, _ = check_functor_laws(parse_type(src), "a", "b")
        assert isinstance(ident, Equal)

    def test_composition_unknowns_within_budget(self):
        results = [check_functor_laws(parse_type(src), "a", "b")[1]
                   for src in CATALOG]
        unknowns = [r for r in results if not isinstance(r, Equal)]
        assert len(unknowns) <= 1


class TestInferredAction:
    def test_types_read_off_arguments(self):
        from pilly.functor import apply_action_inferred
        ctx = TermContext(("s", "t"), gamma={"g": parse_type("s -o t")})
        act = apply_action_inferred(parse_type("!b"), "a", "b",
                                    S.id_at(Unit()), S.Var("g"), ctx)
        assert infer_type(ctx, act).ty == parse_type("!s -o !t")
