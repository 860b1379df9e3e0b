"""Batch front end: parse instance files, run verification sweeps and
homology computations, emit structured JSON reports.

Instance file format (hand-writable, one section per header line):

    PI            optional;  lines: ``rank N`` / ``omega q1 q2 ...`` /
                  ``maslov m1 m2 ...`` (defaults: trivial group)
    TVARS         optional;  one line of formal-variable degrees
    BASIS         generator names, whitespace separated
    DEGREES       integer degrees, one per generator
    UNIT          optional;  the unit generator's name
    MU k          structure constants of the arity-k operation, one per
                  line: ``in1 in2 ... -> coeff * out, coeff * out`` with
                  coefficients in the scalar grammar (``MU 0`` lines start
                  directly with ``->``)

The report document records the command, cap, seed, engine version,
per-check pass/fail with witnesses, Betti tables, and wall-clock timings.
Exit codes: 0 all checks pass, 1 a check failed or a computation error
occurred, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .scalars import (
    Cap,
    Context,
    FormalVarSpec,
    PiGroup,
    ScalarParseError,
    parse_scalar,
    scalar_to_str,
)
from .graded import Element, GradedModule, lemma_sign_suite
from .ainfty import (
    AInfty,
    BUILTIN_NAMES,
    ainfty_residual,
    builtin_algebras,
    unit_check,
)
from .complexes import Variant, dsquare_sweep, t_lemma_check
from .homology import Truncation, homology, naive_oracle
from .openclosed import (
    axiom_suite,
    chain_map_residual,
    exterior_geometry,
    extended_P,
    structure_terms,
    theorem5_toy,
    toy_zero_energy,
)


class InstanceParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

_SECTION_HEADS = ("PI", "TVARS", "BASIS", "DEGREES", "UNIT", "MU")
_PI_FIELDS = ("rank", "omega", "maslov")


def _split_sections(text: str):
    sections = []
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if head[0] in _SECTION_HEADS:
            current = (head[0], tuple(head[1:]), [], i)
            sections.append(current)
            continue
        if current is None:
            raise InstanceParseError(f"content before any section: {raw!r}",
                                     line=i)
        current[2].append((i, line))
    return sections


def _parse_element_expr(module: GradedModule, text: str, line: int) -> Element:
    out = Element.zero(module)
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            coeff_text, _, gen = chunk.rpartition("*")
            gen = gen.strip()
        else:
            coeff_text, gen = "1", chunk
        if gen not in module.basis:
            raise InstanceParseError(f"unknown generator {gen!r}", line=line)
        try:
            s = parse_scalar(module.ctx, coeff_text.strip())
        except ScalarParseError as exc:
            raise InstanceParseError(str(exc), line=line) from exc
        out = out + Element(module, {gen: s})
    return out


def _ints(tokens, line: int) -> list[int]:
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise InstanceParseError(
            f"expected integers, got {' '.join(tokens)!r}", line=line) from None


def parse_instance(path: str) -> AInfty:
    """Parse an algebra-definition file; raises InstanceParseError with line
    information, or ValueError naming the violated structural invariant."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from None
    sections = _split_sections(text)
    pi = PiGroup(0, (), ())
    tvars = FormalVarSpec(())
    basis = None
    degrees = None
    unit = unit_line = None
    mu_sections = []
    pi_fields = {}
    pi_line = None
    for head, args, lines, head_line in sections:
        if head == "PI":
            pi_line = head_line
            for ln, line in lines:
                parts = line.split()
                if parts[0] not in _PI_FIELDS:
                    raise InstanceParseError(
                        f"unknown PI field {parts[0]!r}", line=ln)
                pi_fields[parts[0]] = parts[1:]
        elif head == "TVARS":
            degs = []
            for ln, line in lines:
                degs.extend(_ints(line.split(), ln))
            tvars = FormalVarSpec(tuple(degs))
        elif head == "BASIS":
            basis_line = head_line
            basis = tuple(x for _, line in lines for x in line.split())
        elif head == "DEGREES":
            degrees = tuple(d for ln, line in lines
                            for d in _ints(line.split(), ln))
        elif head == "UNIT":
            names = [(ln, x) for ln, line in lines for x in line.split()]
            if len(names) != 1:
                raise InstanceParseError(
                    "UNIT needs exactly one generator name",
                    line=names[1][0] if names else head_line)
            unit_line, unit = names[0]
        elif head == "MU":
            if len(args) != 1:
                raise InstanceParseError("MU needs an arity argument",
                                         line=head_line)
            k = _ints(args, head_line)[0]
            if k < 0:
                raise InstanceParseError(f"negative arity {k}", line=head_line)
            mu_sections.append((k, lines))
    if pi_fields:
        try:
            rank = int(" ".join(pi_fields.get("rank", ["0"])))
            omega = tuple(Fraction(x) for x in pi_fields.get("omega", []))
            maslov = tuple(int(x) for x in pi_fields.get("maslov", []))
            pi = PiGroup(rank, omega, maslov)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(f"bad PI section: {exc}",
                                     line=pi_line) from None
    if basis is None or degrees is None:
        raise InstanceParseError("BASIS and DEGREES sections are required")
    ctx = Context(pi, tvars)
    try:
        module = GradedModule(path.rsplit("/", 1)[-1], basis, degrees, ctx)
    except ValueError as exc:
        raise InstanceParseError(str(exc), line=basis_line) from None
    if unit is not None and unit not in basis:
        raise InstanceParseError(f"unknown unit generator {unit!r}",
                                 line=unit_line)
    ops: dict[tuple, Element] = {}
    for k, lines in mu_sections:
        for ln, line in lines:
            if "->" not in line:
                raise InstanceParseError("expected 'inputs -> outputs'",
                                         line=ln)
            left, right = line.split("->", 1)
            inputs = tuple(left.split())
            if len(inputs) != k:
                raise InstanceParseError(
                    f"arity-{k} line has {len(inputs)} inputs", line=ln)
            for g in inputs:
                if g not in basis:
                    raise InstanceParseError(f"unknown generator {g!r}",
                                             line=ln)
            el = _parse_element_expr(module, right, ln)
            ops[inputs] = ops.get(inputs, Element.zero(module)) + el
    return AInfty(module, ops, unit=unit)


def serialize_instance(A: AInfty) -> str:
    """Inverse of parse_instance, up to whitespace."""
    ctx = A.module.ctx
    out = []
    if ctx.pi.rank:
        out.append("PI")
        out.append(f"rank {ctx.pi.rank}")
        out.append("omega " + " ".join(str(q) for q in ctx.pi.omega))
        out.append("maslov " + " ".join(str(m) for m in ctx.pi.maslov))
    if ctx.tvars.count:
        out.append("TVARS")
        out.append(" ".join(str(d) for d in ctx.tvars.degrees))
    out.append("BASIS")
    out.append(" ".join(A.module.basis))
    out.append("DEGREES")
    out.append(" ".join(str(d) for d in A.module.degrees))
    if A.unit is not None:
        out.append("UNIT")
        out.append(A.unit)
    k = None
    for tup in sorted(A.ops, key=lambda t: (len(t), t)):
        if len(tup) != k:
            k = len(tup)
            out.append(f"MU {k}")
        rhs = ", ".join(f"{scalar_to_str(s)} * {g}"
                        for g, s in sorted(A.ops[tup].items()))
        out.append(" ".join(tup) + " -> " + rhs)
    return "\n".join(out) + "\n"


def load_algebra(name_or_path: str) -> AInfty:
    if name_or_path in BUILTIN_NAMES:
        return builtin_algebras(name_or_path)
    return parse_instance(name_or_path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cap(args) -> Cap:
    return Cap(energy=Fraction(args.energy), weight=args.weight,
               var_total=args.vars)


def _variants(args):
    if args.variant == "all":
        return list(Variant)
    return [Variant(args.variant)]


def _report_base(args, command):
    return {
        "command": command,
        "version": __version__,
        "cap": {"energy": str(args.energy), "weight": args.weight,
                "var_total": args.vars} if hasattr(args, "energy") else None,
        "seed": getattr(args, "seed", None),
        "checks": [],
        "timings": {},
    }


def _add_check(report, name, ok, witnesses=None):
    report["checks"].append({
        "name": name,
        "ok": bool(ok),
        "witnesses": witnesses or [],
    })


def cmd_check_ainfty(args, report):
    A = load_algebra(args.instance)
    rep = ainfty_residual(A, _cap(args))
    _add_check(report, "structure_relations", rep.ok, rep.failures[:5])
    if A.unit is not None:
        u = unit_check(A)
        _add_check(report, "strict_unit", u.ok, u.failures[:5])


def cmd_dsquare(args, report):
    A = load_algebra(args.instance)
    for v in _variants(args):
        rep = dsquare_sweep(A, v, _cap(args))
        _add_check(report, f"dsquare:{v.value}", rep.ok, rep.failures[:5])


def cmd_t_lemma(args, report):
    A = load_algebra(args.instance)
    rep = t_lemma_check(A, _cap(args), args.trials, seed=args.seed)
    _add_check(report, "intertwining", rep.ok, rep.failures[:5])


def cmd_homology(args, report):
    A = load_algebra(args.instance)
    trunc = Truncation(_cap(args), args.dmin, args.dmax)
    report["betti"] = {}
    for v in _variants(args):
        h = homology(A, v, trunc)
        entry = h.summary()
        if args.oracle:
            o = naive_oracle(A, v, trunc)
            agree = (h.betti == o.betti and h.dims == o.dims
                     and h.ranks == o.ranks)
            entry["oracle_betti"] = {str(d): b
                                     for d, b in sorted(o.betti.items())}
            _add_check(report, f"oracle:{v.value}", agree)
        report["betti"][v.value] = entry


def cmd_expand_structure(args, report):
    k, l = args.k, args.l
    terms = [{"kind": "interior-differential"}]
    for j, k2, J in structure_terms(k, l):
        terms.append({"kind": "composite", "rotation": j,
                      "q_boundary_inputs": k2, "q_interior_inputs": len(J)})
    if k == 0:
        terms.append({"kind": "sphere"})
    declared = k * (k + 1) * 2 ** l + 1 + (1 if k == 0 else 0)
    report["terms"] = terms
    report["count"] = len(terms)
    report["declared_count"] = declared
    _add_check(report, "term_enumeration", True)


def cmd_verify_theorems(args, report):
    cap = _cap(args)
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        p, Q, sphere = toy_zero_energy(geom, A)
        for v in (Variant.HOCHSCHILD, Variant.NORMALIZED_HOCHSCHILD,
                  Variant.CONNES):
            rep = chain_map_residual(p, A, v, cap, Q=Q)
            _add_check(report, f"chain-map:n={n}:{v.value}", rep.ok,
                       rep.failures[:3])
        rep = chain_map_residual(p, A, Variant.REDUCED_CONNES, cap, Q=Q,
                                 quotient_zeta=sphere.zeta)
        _add_check(report, f"chain-map:n={n}:reduced+quotient", rep.ok,
                   rep.failures[:3])
        A5, p5, sphere5 = theorem5_toy(n)
        P = extended_P(p5, sphere5)
        rep = chain_map_residual(P, A5, Variant.EXTENDED_CONNES, cap,
                                 sphere=sphere5)
        _add_check(report, f"extended:n={n}", rep.ok, rep.failures[:3])


def cmd_axioms(args, report):
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        p, Q, sphere = toy_zero_energy(geom, A)
        res = axiom_suite(p, A, geom=geom, zeta=sphere.zeta)
        for name, entry in res.items():
            if name == "ok":
                continue
            _add_check(report, f"axiom:n={n}:{name}", entry["ok"],
                       entry["failures"][:3])


def cmd_sign_lemmas(args, report):
    for n in (0, 1):
        rep = lemma_sign_suite(args.k, n, trials=args.trials, seed=args.seed)
        _add_check(report, f"sign-lemmas:n={n}", rep.ok, rep.failures[:5])
        report.setdefault("counts", {})[f"n={n}"] = rep.checked


COMMANDS = {
    "check-ainfty": cmd_check_ainfty,
    "dsquare": cmd_dsquare,
    "t-lemma": cmd_t_lemma,
    "homology": cmd_homology,
    "expand-structure": cmd_expand_structure,
    "verify-theorems": cmd_verify_theorems,
    "axioms": cmd_axioms,
    "sign-lemmas": cmd_sign_lemmas,
}


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``, so that a
    count cannot silently check nothing."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochcyc",
        description="Exact verification and homology for curved tensor-"
                    "coalgebra chain complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--energy", default="4",
                       help="energy cap (rational, default 4)")
        p.add_argument("--weight", type=int, default=4,
                       help="weight cap (default 4)")
        p.add_argument("--vars", type=int, default=6,
                       help="total formal-variable exponent cap (default 6)")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the JSON report to this path")

    p = sub.add_parser("check-ainfty", help="structure relations and unit")
    p.add_argument("instance")
    add_cap(p); add_common(p)

    p = sub.add_parser("dsquare", help="d-squared sweep over a variant")
    p.add_argument("instance")
    p.add_argument("--variant", default="all",
                   choices=["all"] + [v.value for v in Variant])
    add_cap(p); add_common(p)

    p = sub.add_parser("t-lemma", help="intertwining of d with 1 - t")
    p.add_argument("instance")
    p.add_argument("--trials", type=_at_least(1), default=200)
    add_cap(p); add_common(p)

    p = sub.add_parser("homology", help="Betti numbers on a truncation")
    p.add_argument("instance")
    p.add_argument("--variant", default="all",
                   choices=["all"] + [v.value for v in Variant])
    p.add_argument("--dmin", type=int, default=-2)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the independent oracle")
    add_cap(p); add_common(p)

    p = sub.add_parser("expand-structure",
                       help="enumerate structure-equation terms")
    p.add_argument("--k", type=_at_least(0), required=True)
    p.add_argument("--l", type=_at_least(0), required=True)
    add_common(p)

    p = sub.add_parser("verify-theorems",
                       help="chain-map theorems on the toy instances")
    add_cap(p); add_common(p)

    p = sub.add_parser("axioms", help="axiom suite on the toy instance")
    add_common(p)

    p = sub.add_parser("sign-lemmas", help="rotation/splitting sign identities")
    p.add_argument("--k", type=_at_least(0), default=6)
    p.add_argument("--trials", type=_at_least(0), default=100)
    add_common(p)

    return parser


def run(args) -> tuple[dict, int]:
    report = _report_base(args, args.command)
    start = time.perf_counter()
    try:
        COMMANDS[args.command](args, report)
        code = 0 if all(c["ok"] for c in report["checks"]) else 1
    except InstanceParseError as exc:
        report["error"] = str(exc)
        code = 2
    except ValueError as exc:
        report["error"] = str(exc)
        code = 1
    report["timings"]["total_s"] = round(time.perf_counter() - start, 3)
    return report, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a malformed cap or degree window is a usage error
        if hasattr(args, "energy"):
            cap = _cap(args)
            if hasattr(args, "dmin"):
                Truncation(cap, args.dmin, args.dmax)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))
    # open the report file first, so an unwritable path is a usage error
    # before any work is done
    out = contextlib.nullcontext()
    if getattr(args, "output", None):
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write {args.output}: {exc.strerror}")
    with out as fh:
        report, code = run(args)
        doc = json.dumps(report, indent=2, default=str)
        if fh is not None:
            fh.write(doc + "\n")
    print(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
