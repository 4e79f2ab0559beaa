"""Batch command-line driver.

Commands: check, normalize, equal, encode, admissible, schema.
`check` elaborates its files one after another, running their directives.
`normalize`, `equal`, `admissible` and `schema` elaborate their file
without its directives and run one directive built from their arguments,
so each prints the line that directive prints under `check`.
Global flags: --fuel N, --y-unroll N, --json, --strict, --config PATH.
Exit codes: 0 ok, 1 directive failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import encodings as E
from . import parser as P
from . import relations as RL
from . import syntax as S
from .pretty import print_prop, print_term, print_type
from .rewrite import (Equal, FuelExhausted, NotEqual, RewriteConfig, Unknown,
                      equal, normalize)
from .relations import RelJudgement, derive_admissible
from .syntax import RelContext, TermContext
from .typecheck import TypeCheckError, infer_type, kind_check


@dataclass
class ReportEntry:
    target: str
    kind: str
    status: str  # ok | error | unknown
    message: str = ""
    seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps({"target": self.target, "kind": self.kind,
                           "status": self.status, "message": self.message,
                           "seconds": round(self.seconds, 6)})

    def render(self) -> str:
        mark = {"ok": "ok", "error": "FAIL", "unknown": "unknown"}[self.status]
        msg = f" -- {self.message}" if self.message else ""
        return f"[{mark}] {self.kind} {self.target}{msg}"


@dataclass
class RunReport:
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def exit_code(self, strict: bool) -> int:
        if any(e.status == "error" for e in self.entries):
            return 1
        if strict and any(e.status == "unknown" for e in self.entries):
            return 1
        return 0


@dataclass
class Config:
    fuel: int = 10000
    y_unroll: int = 0
    strict: bool = False
    json_out: bool = False
    catalog: str | None = None

    def rewrite(self) -> RewriteConfig:
        return RewriteConfig(fuel=self.fuel, y_unroll=self.y_unroll)


def load_config_file(path: Path) -> dict:
    """pilly.toml-style key/value text: ints, booleans and bare strings."""
    out: dict = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        val = val.strip("\"'")
        if val.lower() in ("true", "false"):
            out[key] = val.lower() == "true"
        elif val.lstrip("-").isdigit():
            out[key] = int(val)
        else:
            out[key] = val
    return out


def _setting(file_cfg: dict, key: str, default):
    """The config file's `key`, which must have the type of `default`."""
    val = file_cfg.get(key, default)
    if type(val) is not type(default):
        want = "true or false" if type(default) is bool else "an integer"
        raise ValueError(f"{key} must be {want}, got {val!r}")
    return val


# ---------------------------------------------------------------------------
# File elaboration


def _locate(text: str, e: Exception) -> str:
    span = getattr(e, "span", None)
    if span is None:
        return str(e)
    line = text.count("\n", 0, span.start) + 1
    col = span.start - (text.rfind("\n", 0, span.start) + 1) + 1
    return f"{line}:{col}: {e}"


@dataclass
class Elaborated:
    sig: P.Signature
    term_types: dict[str, S.Type] = field(default_factory=dict)
    inlined: dict[str, S.Term] = field(default_factory=dict)
    rel_defs: dict[str, S.Relation] = field(default_factory=dict)
    theta: RelContext = field(default_factory=RelContext)

    def ctx(self) -> TermContext:
        return TermContext(xi=(), gamma=dict(self.term_types), delta={})

    def inline(self, t: S.Term) -> S.Term:
        return S.subst_terms(t, self.inlined)


def elaborate_file(text: str, target: str, cfg: Config,
                   report: RunReport, run_directives: bool = True
                   ) -> Elaborated | None:
    src, diags = P.parse_file(text)
    for d in diags:
        report.add(ReportEntry(target, "parse", "error", d.render(text)))
    if diags:
        return None
    elab = Elaborated(src.signature)
    for decl in src.decls:
        t0 = time.perf_counter()
        try:
            if isinstance(decl, P.TypeDecl):
                kind_check(decl.params, decl.body)
                report.add(ReportEntry(f"{target}:{decl.name}", "type", "ok",
                                       seconds=time.perf_counter() - t0))
            elif isinstance(decl, P.TermDecl):
                res = infer_type(elab.ctx(), decl.body)
                if decl.claimed is not None and res.ty != decl.claimed:
                    report.add(ReportEntry(
                        f"{target}:{decl.name}", "term", "error",
                        f"declared type {print_type(decl.claimed)} but "
                        f"inferred {print_type(res.ty)}",
                        time.perf_counter() - t0))
                    continue
                elab.term_types[decl.name] = res.ty
                elab.inlined[decl.name] = elab.inline(res.term)
                report.add(ReportEntry(
                    f"{target}:{decl.name}", "term", "ok",
                    f": {print_type(res.ty)}", time.perf_counter() - t0))
            elif isinstance(decl, P.RelDecl):
                if decl.body is None:
                    kind_check((), decl.dom)
                    kind_check((), decl.cod)
                    elab.theta.entries[decl.name] = (decl.dom, decl.cod,
                                                     decl.flavor)
                else:
                    RL.check_relation((), elab.term_types, elab.theta,
                                      decl.body)
                    elab.rel_defs[decl.name] = decl.body
                report.add(ReportEntry(f"{target}:{decl.name}", "rel", "ok",
                                       seconds=time.perf_counter() - t0))
            elif isinstance(decl, P.Directive) and run_directives:
                run_directive(decl, elab, target, cfg, report)
        except (TypeCheckError, RL.FormationError, P.ParseError) as e:
            name = getattr(decl, "name", type(decl).__name__)
            report.add(ReportEntry(f"{target}:{name}", "decl", "error",
                                   _locate(text, e),
                                   time.perf_counter() - t0))
    return elab


_DIRECTIVE_ERRORS = (TypeCheckError, RL.FormationError, RL.PurityError,
                     P.ParseError, ValueError)


def _directive_entry(target: str, name: str, t0: float, status: str,
                     message: str = "") -> ReportEntry:
    return ReportEntry(f"{target}:#{name}", f"#{name}", status, message,
                       time.perf_counter() - t0)


def run_directive(d: P.Directive, elab: Elaborated, target: str, cfg: Config,
                  report: RunReport) -> None:
    t0 = time.perf_counter()

    def done(status: str, message: str = "") -> None:
        report.add(_directive_entry(target, d.name, t0, status, message))

    try:
        if d.name == "check":
            (term,) = d.payload
            res = infer_type(elab.ctx(), term)
            done("ok", f"{print_term(term)} : {print_type(res.ty)}")
        elif d.name == "normalize":
            (term,) = d.payload
            infer_type(elab.ctx(), term)
            try:
                nf = normalize(elab.inline(term), cfg.rewrite())
                done("ok", print_term(nf))
            except FuelExhausted as e:
                done("unknown",
                     f"fuel exhausted at {print_term(e.term)[:200]}")
        elif d.name == "equal":
            lhs, rhs = d.payload
            r = equal(elab.inline(lhs), elab.inline(rhs), cfg.rewrite(),
                      ctx=TermContext())
            if isinstance(r, Equal):
                done("ok")
            elif isinstance(r, NotEqual):
                done("error", f"distinct normal forms: "
                     f"{print_term(r.lhs_nf)} vs {print_term(r.rhs_nf)}")
            else:
                done("unknown", r.reason)
        elif d.name == "admissible":
            (name,) = d.payload
            rel = elab.rel_defs.get(name)
            if rel is None:
                if name not in elab.theta.entries:
                    done("error", f"no relation named {name!r}")
                    return
                dom, cod, flavor = elab.theta.entries[name]
                rel = S.RelVar(name, dom, cod, flavor)
            j = RelJudgement((), dict(elab.term_types), elab.theta, rel)
            deriv = derive_admissible(j)
            if deriv is None:
                done("error", "NotDerivable")
            else:
                done("ok", "\n" + deriv.render(1))
        elif d.name == "schema":
            kind, payload = d.payload
            prop = build_schema(kind, payload, elab)
            done("ok", print_prop(prop))
        else:
            done("error", f"unknown directive {d.name!r}")
    except _DIRECTIVE_ERRORS as e:
        done("error", str(e))


def build_schema(kind: str, payload, elab: Elaborated) -> S.Proposition:
    if kind == "identity-extension":
        prop = RL.identity_extension_instance(payload)
    elif kind == "parametricity":
        if not isinstance(payload, S.Forall):
            raise RL.FormationError(
                "parametricity instances need a quantified type")
        avoid = S.free_type_names(payload)
        var, body = S.open_forall(payload, avoid)
        prop = RL.parametricity_schema_instance(var, body)
    elif kind == "lrl":
        prop = RL.lrl_statement(elab.inline(payload))
    else:
        raise RL.FormationError(f"unknown schema kind {kind!r}")
    RL.check_prop((), {}, RelContext(), prop)
    return prop


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args, cfg: Config) -> RunReport:
    report = RunReport()
    files = list(args.files)
    if not files:
        # no arguments: fall back to the configured or shipped catalog
        root = Path(cfg.catalog) if cfg.catalog else \
            Path(__file__).parent / "catalog"
        files = sorted(str(p) for p in root.glob("*.pilly"))
        if not files:
            report.add(ReportEntry(str(root), "check", "error",
                                   "no .pilly files found"))
            return report
    texts = [(f, Path(f).read_text()) for f in files]
    for f, text in texts:
        elaborate_file(text, f, cfg, report)
    return report


def _file_directive(path: str | None, name: str, cfg: Config,
                    payload: Callable[[Elaborated], tuple]) -> RunReport:
    """Elaborate `path` without its directives, then run the directive
    `#name` whose payload `payload` builds from the command's arguments.
    With no path the directive runs against an empty file."""
    report = RunReport()
    target = path or "<args>"
    elab = Elaborated(P.Signature()) if path is None else \
        elaborate_file(Path(path).read_text(), path, cfg, RunReport(),
                       run_directives=False)
    t0 = time.perf_counter()
    if elab is None:
        problem = "file did not parse"
    else:
        try:
            d = P.Directive(name, payload(elab), S.Span(0, 0))
        except _DIRECTIVE_ERRORS as e:
            problem = str(e)
        else:
            run_directive(d, elab, target, cfg, report)
            return report
    report.add(_directive_entry(target, name, t0, "error", problem))
    return report


def cmd_normalize(args, cfg: Config) -> RunReport:
    return _file_directive(args.file, "normalize", cfg,
                           lambda elab: (S.Var(args.name),))


def cmd_equal(args, cfg: Config) -> RunReport:
    def sides(elab: Elaborated) -> tuple:
        lhs = P.parse_term(args.lhs, elab.sig)
        rhs = P.parse_term(args.rhs, elab.sig)
        for t in (lhs, rhs):  # `#equal` itself does not typecheck
            infer_type(elab.ctx(), t)
        return lhs, rhs

    return _file_directive(args.file, "equal", cfg, sides)


def _encode_bundle(kind: str, type_args: list[str]) -> E.EncodingBundle:
    tys = [P.parse_encode_type(s) for s in type_args]
    if kind == "iso-self":
        return E.encode_iso_self(tys[0])
    if kind == "tensor":
        return E.encode_tensor(tys[0], tys[1])
    if kind == "unit":
        return E.encode_unit()
    if kind == "zero":
        return E.encode_zero()
    if kind == "one":
        return E.encode_one()
    if kind == "sum":
        return E.encode_sum(tys[0], tys[1])
    if kind == "product":
        return E.encode_product(tys[0], tys[1])
    if kind == "nat":
        return E.encode_nat()
    if kind == "exists":
        return E.encode_exists("a", tys[0])
    if kind == "mu":
        return E.encode_mu("a", tys[0])
    if kind == "nu":
        return E.encode_nu("a", tys[0])
    if kind == "rec":
        return E.encode_rec("a", tys[0])
    if kind == "rec-params":
        body = tys[0]
        neg, pos = [], []
        for v in S.free_type_names(body):
            if v == "a":
                continue
            pol = E.polarity(body, v)
            if pol.negative and pol.positive:
                raise ValueError(f"parameter {v!r} has mixed variance")
            (neg if pol.negative else pos).append(v)
        return E.encode_rec_params(neg, pos, "a", body)
    raise ValueError(f"unknown encoding kind {kind!r}")


def cmd_encode(args, cfg: Config) -> RunReport:
    report = RunReport()
    t0 = time.perf_counter()
    label = " ".join([args.kind] + args.types)
    try:
        bundle = _encode_bundle(args.kind, args.types)
        rep = E.verify_bundle(bundle, cfg.rewrite())
        bad = ([k for k, v in rep.combinators.items() if not v]
               + [k for k, v in rep.beta.items() if not isinstance(v, Equal)]
               + [k for k, v in rep.schemas.items() if not v])
        unknowns = [k for k, v in rep.beta.items() if isinstance(v, Unknown)]
        if rep.ok:
            status, msg = "ok", f"{len(bundle.combinators)} combinator(s), " \
                f"{len(bundle.beta_laws)} law(s), " \
                f"{len(bundle.schema_laws)} schema(s)"
        elif bad == unknowns and bad:
            status, msg = "unknown", f"undecided laws: {', '.join(unknowns)}"
        else:
            status, msg = "error", f"failed: {', '.join(bad)}"
        if args.emit_bundle:
            Path(args.emit_bundle).write_text(E.bundle_to_source(bundle))
            msg += f"; wrote {args.emit_bundle}"
        report.add(ReportEntry(label, "encode", status, msg,
                               time.perf_counter() - t0))
    except (E.PolarityViolation, ValueError, P.ParseError, IndexError) as e:
        report.add(ReportEntry(label, "encode", "error", str(e),
                               time.perf_counter() - t0))
    return report


def cmd_admissible(args, cfg: Config) -> RunReport:
    return _file_directive(args.file, "admissible", cfg,
                           lambda elab: (args.name,))


def cmd_schema(args, cfg: Config) -> RunReport:
    parse = P.parse_term if args.kind == "lrl" else P.parse_type
    return _file_directive(args.file, "schema", cfg, lambda elab: (
        args.kind, parse(args.target, elab.sig)))


# ---------------------------------------------------------------------------
# Entry point


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pilly",
        description="check, normalize and reason about .pilly files")
    ap.add_argument("--fuel", type=int, default=None)
    ap.add_argument("--y-unroll", type=int, default=None)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--strict", action="store_true",
                    help="treat unknown outcomes as failures")
    ap.add_argument("--config", type=str, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="typecheck files and run directives")
    c.add_argument("files", nargs="*",
                   help="defaults to the configured or shipped catalog")

    n = sub.add_parser("normalize", help="normalize a declared term")
    n.add_argument("file")
    n.add_argument("name")

    e = sub.add_parser("equal", help="decide equality of two expressions")
    e.add_argument("file")
    e.add_argument("lhs")
    e.add_argument("rhs")

    en = sub.add_parser("encode", help="generate and verify an encoding")
    en.add_argument("kind")
    en.add_argument("types", nargs="*")
    en.add_argument("--emit-bundle", type=str, default=None)

    ad = sub.add_parser("admissible", help="derive admissibility")
    ad.add_argument("file")
    ad.add_argument("name")

    sc = sub.add_parser("schema", help="emit a schema instance")
    sc.add_argument("kind",
                    choices=["identity-extension", "parametricity", "lrl"])
    sc.add_argument("target")
    sc.add_argument("--file", type=str, default=None)
    return ap


_COMMANDS = {
    "check": cmd_check,
    "normalize": cmd_normalize,
    "equal": cmd_equal,
    "encode": cmd_encode,
    "admissible": cmd_admissible,
    "schema": cmd_schema,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    cfg = Config()
    config_path = Path(args.config) if args.config else Path("pilly.toml")
    try:
        if config_path.exists():
            file_cfg = load_config_file(config_path)
            cfg.fuel = _setting(file_cfg, "fuel", cfg.fuel)
            cfg.y_unroll = _setting(file_cfg, "y_unroll", cfg.y_unroll)
            cfg.strict = _setting(file_cfg, "strict", cfg.strict)
            cfg.catalog = file_cfg.get("catalog", cfg.catalog)
        if args.fuel is not None:
            cfg.fuel = args.fuel
        if args.y_unroll is not None:
            cfg.y_unroll = args.y_unroll
        cfg.rewrite()  # rejects a budget out of range
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.strict:
        cfg.strict = True
    cfg.json_out = args.json
    try:
        report = _COMMANDS[args.command](args, cfg)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    for entry in report.entries:
        print(entry.to_json() if cfg.json_out else entry.render())
    return report.exit_code(cfg.strict)


if __name__ == "__main__":
    sys.exit(main())
