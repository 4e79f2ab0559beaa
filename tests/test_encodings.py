"""Datatype encodings: combinators typecheck closed, the rewriting halves
of the correctness proofs replay, and the schema statements are
well-formed."""

import pytest

from pilly import encodings as E
from pilly import relations as RL
from pilly import syntax as S
from pilly.parser import parse_file, parse_type
from pilly.pretty import pp
from pilly.rewrite import Equal, RewriteConfig, equal
from pilly.syntax import Lolli, RelContext, TermContext, Tensor, TyVar, Unit
from pilly.typecheck import TypeCheckError, check_type, infer_type

CFG = RewriteConfig()
EMPTY = TermContext()


def assert_bundle_ok(b: E.EncodingBundle, xi=()):
    ctx = TermContext(xi=tuple(xi))
    for name, (term, ty) in b.combinators.items():
        res = check_type(ctx, term, ty)
        assert res.ty == ty, name
    for name, lhs, rhs in b.beta_laws:
        r = equal(lhs, rhs, CFG, ctx=ctx)
        assert isinstance(r, Equal), (b.name, name, type(r).__name__)
    for name, prop in b.schema_laws:
        RL.check_prop(tuple(xi), {}, RelContext(), prop)


class TestIsoSelf:
    @pytest.mark.parametrize("ty", [Unit(), parse_type("all a. a"),
                                    E.nat_type()],
                             ids=["unit", "void", "nat"])
    def test_bundle(self, ty):
        assert_bundle_ok(E.encode_iso_self(ty))

    def test_law_is_beta_only(self):
        b = E.encode_iso_self(Unit())
        _, lhs, rhs = b.beta_laws[0]
        assert isinstance(equal(lhs, rhs, RewriteConfig(eta=False)), Equal)


class TestTensorAndUnit:
    def test_tensor_at_nat_unit(self):
        assert_bundle_ok(E.encode_tensor(E.nat_type(), Unit()))

    def test_tensor_open_types(self):
        assert_bundle_ok(E.encode_tensor(TyVar("s"), TyVar("t")), xi=("s", "t"))

    def test_unit(self):
        assert_bundle_ok(E.encode_unit())


class TestZeroOne:
    def test_initial(self):
        assert_bundle_ok(E.encode_zero())

    def test_terminal(self):
        assert_bundle_ok(E.encode_one())

    def test_initial_map_at_void(self):
        z = E.void_type()
        t = E.initial_map(z)
        assert infer_type(EMPTY, t).ty == Lolli(z, z)

    def test_bottom_map_typechecks(self):
        t = E.bottom_map(TyVar("s"))
        got = infer_type(TermContext(("s",)), t).ty
        assert got == Lolli(TyVar("s"), E.void_type())


class TestSum:
    def test_bundle(self):
        assert_bundle_ok(E.encode_sum(E.nat_type(), Unit()))

    def test_injection_type(self):
        s, t = TyVar("s"), TyVar("t")
        b = E.encode_sum(s, t)
        inl, ty = b.combinators["inl"]
        assert ty == Lolli(s, E.sum_type(s, t))
        check_type(TermContext(("s", "t")), inl, ty)


class TestProduct:
    def test_bundle(self):
        assert_bundle_ok(E.encode_product(E.nat_type(), Unit()))

    def test_projection_type(self):
        b = E.encode_product(TyVar("s"), TyVar("t"))
        _, ty = b.combinators["proj1"]
        assert ty == Lolli(E.product_type(TyVar("s"), TyVar("t")), TyVar("s"))


class TestNat:
    def test_bundle(self):
        assert_bundle_ok(E.encode_nat())

    def test_numeral_two(self):
        assert infer_type(EMPTY, E.numeral(2)).ty == E.nat_type()

    def test_iter_on_numerals(self):
        b = E.encode_nat()
        it, _ = b.combinators["iter"]
        succ, _ = b.combinators["succ"]
        # iterating successor from zero over the numeral 2 yields 2
        applied = S.app(S.tyapp(it, E.nat_type()),
                        b.combinators["zero"][0], S.bang(succ), E.numeral(2))
        assert isinstance(equal(applied, E.numeral(2), CFG, ctx=EMPTY), Equal)


class TestExists:
    def test_bundle(self):
        assert_bundle_ok(E.encode_exists("a", Tensor(TyVar("a"),
                                                     E.nat_type())))

    def test_pack_type(self):
        body = Tensor(TyVar("a"), Unit())
        b = E.encode_exists("a", body)
        pack, ty = b.combinators["pack"]
        assert ty == S.forall("a", Lolli(body, E.exists_type("a", body)))

    def test_hat_tilde_on_concrete_instance(self):
        body = Tensor(TyVar("a"), Unit())
        enc = E.exists_type("a", body)
        # hat of a concrete component map lands at the packaged type
        t = E.exists_hat("a", body, S.TyApp(E._pack("a", body), TyVar("a")),
                         enc)
        assert infer_type(EMPTY, t).ty == Lolli(enc, enc)


class TestMu:
    def test_catalog_instance(self):
        one = E.void_type()
        assert_bundle_ok(E.encode_mu("a", E.sum_type(one, TyVar("a"))))

    def test_degenerate_variable_body(self):
        assert_bundle_ok(E.encode_mu("a", TyVar("a")))

    def test_polarity_violation(self):
        with pytest.raises(E.PolarityViolation):
            E.encode_mu("a", Lolli(TyVar("a"), TyVar("a")))


class TestNu:
    def test_stream_instance(self):
        assert_bundle_ok(E.encode_nu("a", Tensor(E.nat_type(), TyVar("a"))))

    def test_polarity_violation(self):
        with pytest.raises(E.PolarityViolation):
            E.encode_nu("a", Lolli(TyVar("a"), Unit()))


class TestRec:
    def test_lazy_list_instance(self):
        body = E.sum_type(E.void_type(), Tensor(E.nat_type(), TyVar("a")))
        assert_bundle_ok(E.encode_rec("a", body))

    def test_mixed_variance_instance(self):
        assert_bundle_ok(E.encode_rec("a", Lolli(TyVar("a"), TyVar("a"))))

    def test_degenerate(self):
        assert_bundle_ok(E.encode_rec("a", TyVar("a")))

    def test_mediator_types_as_documented(self):
        b = E.encode_rec("a", Lolli(TyVar("a"), TyVar("a")))
        rec = b.defined_type
        _, kty = b.combinators["mediate"]
        assert isinstance(kty, S.Forall)
        _, kpty = b.combinators["mediate_inv"]
        assert isinstance(kpty, S.Forall)
        # k : all w, w'. (s(w',w) -o w) -> (w' -o s(w,w')) -> rec -o w
        got = pp(kty)
        assert "-o" in got and got.startswith("all ")

    def test_constant_rejected(self):
        from pilly.functor import NotInductivelyConstructed
        with pytest.raises(NotInductivelyConstructed):
            E.encode_rec("a", S.TyConst("lists", (TyVar("a"),)))


class TestRecParams:
    def test_catalog_instance_and_polarity_swap(self):
        b = E.encode_rec_params([], ["b1"], "b",
                                Tensor(TyVar("b1"), TyVar("b")))
        from pilly.functor import polarity
        tau = b.defined_type
        p = polarity(tau, "b1")
        assert p.positive and not p.negative
        # the companion's parameter slot swaps: its outof codomain mentions
        # the swapped variable only negatively
        _, out_ty = b.combinators["outof"]
        assert_bundle_ok(b)

    def test_no_params_matches_plain_rec(self):
        body = Lolli(TyVar("a"), TyVar("a"))
        with_params = E.encode_rec_params([], [], "a", body)
        plain = E.encode_rec("a", body)
        assert with_params.defined_type == plain.defined_type

    def test_mixed_parameter_rejected(self):
        with pytest.raises(E.PolarityViolation):
            E.encode_rec_params(["c"], [], "a",
                                Tensor(Lolli(TyVar("c"), TyVar("c")),
                                       TyVar("a")))


class TestSerialization:
    def test_bundle_source_parses_and_rechecks(self):
        b = E.encode_sum(E.nat_type(), Unit())
        src = E.bundle_to_source(b)
        parsed, diags = parse_file(src)
        assert not diags
        names = [d.name for d in parsed.decls if hasattr(d, "name")]
        assert f"{b.name}_t" in names

    def test_catalog_complete(self):
        cat = E.catalog()
        for key in ("iso_self_unit", "tensor", "unit", "sum", "product",
                    "nat", "exists", "mu", "nu", "rec_lazy_list",
                    "rec_mixed", "rec_params"):
            assert key in cat


class TestRecAgreesWithMu:
    def test_strictly_positive_body_reduces_to_inductive_encoding(self):
        one = E.void_type()
        body = E.sum_type(one, TyVar("a"))
        rec = E.encode_rec("a", body)
        assert rec.defined_type == E.mu_type("a", body)


class TestCatalogFreshness:
    def test_shipped_files_match_generators(self):
        import pathlib
        cat = pathlib.Path(__file__).parent.parent / "src" / "pilly" / "catalog"
        n, one = E.nat_type(), E.void_type()
        expected = {
            "iso_self.pilly": [("iso_unit", E.encode_iso_self(Unit())),
                               ("iso_nat", E.encode_iso_self(n))],
            "tensor.pilly": [("tensor", E.encode_tensor(n, Unit()))],
            "unit.pilly": [("unit", E.encode_unit())],
            "sum.pilly": [("sum", E.encode_sum(n, Unit()))],
            "product.pilly": [("product", E.encode_product(n, Unit()))],
            "nat.pilly": [("nat", E.encode_nat())],
            "exists.pilly": [("exists",
                              E.encode_exists("a", S.Tensor(TyVar("a"), n)))],
            "mu.pilly": [("mu", E.encode_mu("a", E.sum_type(one, TyVar("a"))))],
            "nu.pilly": [("nu", E.encode_nu("a", S.Tensor(n, TyVar("a"))))],
            "rec.pilly": [
                ("rec_ll", E.encode_rec("a", E.sum_type(
                    one, S.Tensor(n, TyVar("a"))))),
                ("rec_mx", E.encode_rec("a", S.Lolli(TyVar("a"),
                                                     TyVar("a")))),
                ("rec_par", E.encode_rec_params([], ["b1"], "b",
                                                S.Tensor(TyVar("b1"),
                                                         TyVar("b"))))],
        }
        # the heavyweight recursive-type witnesses stay out of the files;
        # the acceptance suite typechecks them from the bundles directly
        rec_excl = {"mediate", "mediate_inv", "iso", "iso_inv"}
        for fname, bundles in expected.items():
            excl = rec_excl if fname == "rec.pilly" else set()
            text = "\n".join(E.bundle_to_source(b, prefix, exclude=excl)
                             for prefix, b in bundles)
            assert (cat / fname).read_text() == text, fname


class TestVerifyBundle:
    def test_catalog_bundles_verify(self):
        for key, b in E.catalog().items():
            assert E.verify_bundle(b, CFG).ok, key

    def test_ill_typed_combinator_is_reported(self):
        b = E.encode_unit()
        name, (term, _) = next(iter(b.combinators.items()))
        b.combinators[name] = (term, Unit())
        rep = E.verify_bundle(b, CFG)
        assert rep.combinators[name] is False and not rep.ok

    def test_crash_in_typechecker_propagates(self, monkeypatch):
        from pilly.cli import main

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(E, "check_type", boom)
        with pytest.raises(RuntimeError):
            E.verify_bundle(E.encode_unit(), CFG)
        assert main(["encode", "unit"]) == 3

    def test_crash_in_schema_check_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(E.R, "check_prop", boom)
        with pytest.raises(RuntimeError):
            E.verify_bundle(E.encode_nat(), CFG)
