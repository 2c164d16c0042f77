"""Batch front door: build instances, run verifications, emit reports.

Exit codes: 0 = all verdicts pass; 1 = a verification failed (witness in the
report); 2 = inconclusive (window/order exhaustion); 3 = usage, config or
input-file error (one "error: ..." line on stderr); 4 = internal error (an
unexpected exception; its traceback is on stderr).  JSON is the canonical
output; csv and text are projections.  The same configuration and seed
always produce a byte-identical report when --no-timestamp is set.
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
import sys
import traceback

from . import __version__
from .embedding import cyclic_characters, embed_group_algebra, realize_algorithm
from .groups import GroupFormatError, MatrixGroupOps, TableGroup
from .instances import canonical_json, load_instance
from .matrices import Mat
from .repdim import (
    NoNontrivialBoundError,
    OmegaInputs,
    corollary_bound,
    omega_bound,
    repdim_table,
)
from .running_example import (
    SQUARE_LENGTH_NOTE,
    build_orthogonal_family,
    build_running_sep_family,
    build_unitriangular_sets,
    running_border_p0,
    verify_column_agreement,
)
from .scalars import GaussRational
from .sepfun import SepFunction, SepFunctionError
from .sepverify import verify_separating, verify_separating_border
from .split import SplitError
from .su import (
    C_INTEGRALITY_NOTE,
    SuConstructionError,
    kvn_certificate,
    su_assemble,
    su_build,
    su_c_value,
    su_eps2_check,
    su_s_matrix,
    su_y_lattice,
)
from .tpp import InstanceError, TppInstance, verify_tpp, verify_tpp_series

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

# Errors that reject an instance file or a construction: nothing was verified,
# so they exit as usage errors, never as a failed verification.
_INPUT_ERRORS = (InstanceError, GroupFormatError, SplitError, SuConstructionError,
                 SepFunctionError)

_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "no_bound": EXIT_FAIL,
                 "inconclusive": EXIT_INCONCLUSIVE}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    """Config error detected inside a driver; mapped to the usage exit code."""


# Flags that steer a run; each subcommand registers only those its driver reads.
_RUN_FLAGS = {
    "seed": {"type": int, "default": 0},
    "order": {"type": int, "default": None},
    "mode": {"choices": ["auto", "exhaustive", "sampled"], "default": "auto"},
    "sample-budget": {"type": int, "default": 10 ** 4},
}


def _flags(p, *run_flags):
    """The named run flags, and the output flags that every subcommand takes."""
    for name in run_flags:
        p.add_argument(f"--{name}", **_RUN_FLAGS[name])
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-reproducible reports")


def build_parser() -> _Parser:
    parser = _Parser(prog="tppverify")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("repdim", help="representation dimension table and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _flags(p)

    p = sub.add_parser("omega", help="exponent bound calculators")
    p.add_argument("--size-x", type=float)
    p.add_argument("--size-y", type=float)
    p.add_argument("--size-z", type=float)
    p.add_argument("--dsum", type=float)
    p.add_argument("--dmax", type=float)
    p.add_argument("--logs", action="store_true", help="inputs are natural logs")
    p.add_argument("--log-s-xyz", type=float, help="log base s of |X||Y||Z| (degree form)")
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    _flags(p)

    p = sub.add_parser("tpp-verify", help="verify the TPP on an instance file")
    p.add_argument("--instance", required=True)
    _flags(p, "seed", "order", "mode", "sample-budget")

    p = sub.add_parser("sep-verify", help="verify separating functions on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--sepfile", required=True)
    _flags(p, "seed", "order", "sample-budget")

    p = sub.add_parser("embed-demo", help="finite-group embedding + verified multiply")
    p.add_argument("--group-order", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    _flags(p, "seed")

    p = sub.add_parser("running-example", help="unitriangular/orthogonal construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--border", action="store_true")
    # read without --border only; None marks it unset (_run_running_example)
    p.add_argument("--y-count", type=int)
    p.add_argument("--set-cap", type=int, default=64)
    _flags(p, "seed", "sample-budget")

    p = sub.add_parser("su-construct", help="build the split-form construction data")
    p.add_argument("--n", type=int, required=True)
    _flags(p)

    p = sub.add_parser("su-verify", help="identity checks for the split-form construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--pairs", type=int, default=100)
    _flags(p, "seed")

    p = sub.add_parser("split-assemble", help="end-to-end split assembly + verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--y-cap", type=int, default=128)
    p.add_argument("--t", type=int, default=None,
                   help="force the reparametrization exponent")
    p.add_argument("--emit-instance", default=None,
                   help="write the assembled X', Y', Z' as a family instance file")
    _flags(p, "seed", "order", "sample-budget")

    return parser


# ---------------------------------------------------------------------------
# Subcommand drivers: each returns (verdict, details, deviations, tables)
# ---------------------------------------------------------------------------

def _run_repdim(args):
    rows = repdim_table(args.n, args.s)
    ok = all(r["binom_check"] for r in rows)
    for r in rows:
        if r["bound_s_pow"] is not None and r["max_dim"] > r["bound_s_pow"]:
            ok = False
    return ("pass" if ok else "fail"), {"rows": rows}, [], rows


def _run_omega(args):
    details = {}
    deviations = []
    verdict = "pass"
    ran = False
    try:
        if args.dsum is not None:
            ran = True
            inputs = OmegaInputs(args.size_x, args.size_y, args.size_z,
                                 args.dsum, args.dmax, as_logs=args.logs)
            details["omega_bound"] = omega_bound(inputs)
        if args.log_s_xyz is not None:
            ran = True
            details["corollary_bound"] = corollary_bound(args.log_s_xyz, args.s, args.n)
    except NoNontrivialBoundError as exc:
        return "no_bound", {"error": str(exc)}, [], None
    if not ran:
        raise UsageError("omega: give either --dsum/--dmax/--size-* or --log-s-xyz/--s/--n")
    if "omega_bound" in details and "corollary_bound" in details:
        details["cross_agreement"] = abs(details["omega_bound"] - details["corollary_bound"])
    return verdict, details, deviations, None


def _sample_budget(args) -> int:
    """--sample-budget: a sampled run with no samples would pass without
    checking anything, so it must be at least 1."""
    if args.sample_budget < 1:
        raise UsageError(f"--sample-budget must be at least 1 (got {args.sample_budget})")
    return args.sample_budget


def _family_order(args, inst) -> int:
    """--order (default 3), which only family instances read."""
    if inst.mode != "family" and args.order is not None:
        raise UsageError("--order is read only on family instances "
                         f"(this instance is {inst.mode})")
    return 3 if args.order is None else args.order


def _run_tpp_verify(args):
    budget = _sample_budget(args)
    inst = load_instance(args.instance)
    order = _family_order(args, inst)
    if inst.mode == "family":
        rep = verify_tpp_series(inst, order=order, mode=args.mode,
                                sample_budget=budget, seed=args.seed)
    else:
        rep = verify_tpp(inst, mode=args.mode, sample_budget=budget, seed=args.seed)
    return rep.verdict, {"report": rep.to_json(), "sizes": inst.sizes()}, [], None


def _run_sep_verify(args):
    budget = _sample_budget(args)
    inst = load_instance(args.instance)
    order = _family_order(args, inst)
    with open(args.sepfile, "r", encoding="utf-8") as fh:
        sep_obj = json.load(fh)
    family = {}
    for key, tree in _sep_family_json(sep_obj).items():
        try:
            ix, iz = (int(v) for v in key.split(","))
        except ValueError:
            raise SepFunctionError(f"family key {key!r} is not 'ix,iz'") from None
        family[(ix, iz)] = SepFunction.from_json(tree)
    if inst.mode == "family":
        rep = verify_separating_border(family, inst, order=order,
                                       sample_budget=budget, seed=args.seed)
    else:
        rep = verify_separating(family, inst)
    return rep.verdict, {"report": rep.to_json()}, [], None


def _sep_family_json(sep_obj) -> dict:
    """The sep file's non-empty "family" object; an empty one would pass vacuously."""
    family = sep_obj.get("family") if isinstance(sep_obj, dict) else None
    if not isinstance(family, dict):
        raise SepFunctionError('a sep file holds {"family": {"ix,iz": node, ...}}')
    if not family:
        raise SepFunctionError("the sep file's family is empty: nothing to verify")
    return family


def _run_embed_demo(args):
    # with no trial no entry of the realized algorithm is checked
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1 (got {args.trials})")
    n = args.group_order
    group = TableGroup.cyclic(n)
    inst = TppInstance(group, list(range(n)), [0], [0], "table")
    rng = random.Random(args.seed)
    a = Mat.from_rows([[GaussRational(rng.randint(-9, 9))] for _ in range(n)])
    b = Mat.from_rows([[GaussRational(rng.randint(-9, 9))]])
    _, embed_rep = embed_group_algebra(a, b, inst)
    field, reps = cyclic_characters(n)
    realize_rep = realize_algorithm(inst, reps, field, trials=args.trials, seed=args.seed)
    verdict = "pass" if (embed_rep.matched and embed_rep.residual_ok
                         and realize_rep.verdict == "pass") else "fail"
    details = {
        "embedding": {
            "matched": embed_rep.matched,
            "residual_support": embed_rep.residual_support_size,
            "residual_ok": embed_rep.residual_ok,
        },
        "realize": {
            "verdict": realize_rep.verdict,
            "trials": realize_rep.trials,
            "entries_checked": realize_rep.entries_checked,
        },
    }
    return verdict, details, [], None


def _run_running_example(args):
    # --border never reads --y-count, so it refuses one; the config echo
    # shows the default of an unset one in both modes
    if args.y_count is None:
        args.y_count = 4
    elif args.border:
        raise UsageError("running-example reads --y-count only without --border")
    budget = _sample_budget(args)
    if args.n < 2:
        raise UsageError(f"--n must be at least 2 (got {args.n})")
    # below 2 the orthogonal family cannot be built, and the border lattice
    # [-q/2, q/2] is the single point 0, which would pass vacuously
    if args.q < 2:
        raise UsageError(f"--q must be at least 2 (got {args.q})")
    # an empty set leaves nothing to verify
    if args.set_cap < 1:
        raise UsageError(f"--set-cap must be at least 1 (got {args.set_cap})")
    if args.y_count < 1 and not args.border:
        raise UsageError(f"--y-count must be at least 1 (got {args.y_count})")
    if args.border:
        p0, yfams, rep = running_border_p0(args.n, args.q, yfam_cap=args.set_cap,
                                           seed=args.seed,
                                           check_pairs=min(budget, 500))
        verdict = rep.contract.verdict if rep.contract else "pass"
        details = {
            "grid_size": rep.grid_size,
            "deg_r": rep.deg_r,
            "deg_p0_tracked": rep.deg_p0_tracked,
            "t_max": str(rep.t_max),
            "yfam_count": rep.yfam_count,
            "contract": rep.contract.to_json() if rep.contract else None,
        }
        return verdict, details, list(rep.deviations), None
    xq, zq, sampled = build_unitriangular_sets(args.n, args.q, cap=args.set_cap,
                                               seed=args.seed)
    fam = build_orthogonal_family(args.n, args.q, count=args.y_count, seed=args.seed)
    col_rep = verify_column_agreement(fam)
    ys = [m for _, m in fam.members]
    inst = TppInstance(MatrixGroupOps(args.n), xq, ys, zq, "exact")
    tpp = verify_tpp(inst, sample_budget=budget, seed=args.seed)
    # one separating polynomial, sampled at a diagonal point, where it is 1
    rng = random.Random(args.seed)
    x = xq[rng.randrange(len(xq))]
    z = zq[rng.randrange(len(zq))]
    sep = build_running_sep_family(args.n, args.q, x, z, fam.wq)
    y = ys[0]
    diag_val = sep.eval(x.matmul(y.transpose().matmul(y)).matmul(z))
    verdict = "pass" if (col_rep.verdict == "pass" and tpp.verdict == "pass"
                         and diag_val == 1) else "fail"
    details = {
        "sizes": {"X": len(xq), "Y": len(ys), "Z": len(zq),
                  "sampled": sampled},
        "wq_size": len(fam.wq),
        "wq_per_q2": len(fam.wq) / (args.q ** 2),
        "column_agreement": {"verdict": col_rep.verdict,
                             "pairs": col_rep.pairs_checked},
        "tpp": tpp.to_json(),
        "separating_sample": {"degree": sep.degree,
                              "diagonal_value": str(diag_val)},
    }
    return verdict, details, [SQUARE_LENGTH_NOTE], None


def _run_su_construct(args):
    constr = su_build(args.n)
    details = {
        "n": constr.n,
        "d0": [str(v) for v in constr.d0],
        "trace_dd2": str(constr.trace_dd2),
        "s_basis_count": len(constr.s_basis),
        "complex_dim": constr.complex_dim,
        "clear_constant": constr.clear_constant,
        "nominal_constant_2_nfact_sq": constr.nominal_constant,
        "identities": "D*QD=Q, det D=1, U*QU antidiagonal: all exact",
    }
    return "pass", details, [], None


def _run_su_verify(args):
    if args.q < 1:
        raise UsageError(f"--q must be at least 1 (got {args.q})")
    # no pair would check nothing and pass
    if args.pairs < 1:
        raise UsageError(f"--pairs must be at least 1 (got {args.pairs})")
    constr = su_build(args.n)
    rng = random.Random(args.seed)
    coords, _ = su_y_lattice(constr, args.q, cap=64, seed=args.seed)
    eps2_ok = True
    c_zero_iff = True
    nominal_integral_failures = 0
    pairs = 0
    for _ in range(args.pairs):
        ca = coords[rng.randrange(len(coords))]
        cb = coords[rng.randrange(len(coords))]
        a = su_s_matrix(constr, ca)
        b = su_s_matrix(constr, cb)
        crep = su_c_value(constr, a, b)
        pairs += 1
        if not crep.nominal_integral:
            nominal_integral_failures += 1
        if crep.is_zero != (ca == cb):
            c_zero_iff = False
        if pairs <= 5 and not su_eps2_check(constr, a, b).ok:
            eps2_ok = False
    kvn = kvn_certificate(constr)
    verdict = "pass" if (eps2_ok and c_zero_iff and kvn.verdict == "pass") else "fail"
    details = {
        "eps2_identity": eps2_ok,
        "c_zero_iff_equal": c_zero_iff,
        "c_pairs_checked": pairs,
        "nominal_constant_integral_failures": nominal_integral_failures,
        "kvn": kvn.to_json(),
    }
    return verdict, details, [C_INTEGRALITY_NOTE], None


def _run_split_assemble(args):
    budget = _sample_budget(args)
    if args.q < 2:
        raise UsageError(f"--q must be at least 2 (got {args.q})")
    rep = su_assemble(args.n, args.q, sample_budget=budget,
                      seed=args.seed, order=args.order, t=args.t,
                      y_cap=args.y_cap)
    if args.emit_instance:
        from .instances import save_instance

        save_instance(rep.instance, args.emit_instance)
    return rep.verdict, rep.to_json(), rep.deviations, None


_DRIVERS = {
    "repdim": _run_repdim,
    "omega": _run_omega,
    "tpp-verify": _run_tpp_verify,
    "sep-verify": _run_sep_verify,
    "embed-demo": _run_embed_demo,
    "running-example": _run_running_example,
    "su-construct": _run_su_construct,
    "su-verify": _run_su_verify,
    "split-assemble": _run_split_assemble,
}


def _project_csv(report, rows):
    if rows:
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for k in sorted(report):
        if k in ("details",):
            continue
        lines.append(f"{k},{json.dumps(report[k], sort_keys=True, default=str)}")
    return "\n".join(lines) + "\n"


def _project_text(report):
    lines = [f"tppverify {report['tool']['version']}  command={report['command']}  "
             f"verdict={report['verdict']}"]
    for k in ("deviations", "details"):
        if report.get(k):
            lines.append(f"{k}: {json.dumps(report[k], sort_keys=True, default=str)}")
    return "\n".join(lines) + "\n"


def _run(args) -> int:
    """Run one parsed command, write its report, return the verdict's exit code."""
    verdict, details, deviations, rows = _DRIVERS[args.subcommand](args)
    report = {
        "schema": 1,
        "tool": {"name": "tppverify", "version": __version__},
        "command": args.subcommand,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("output", "format")},
        "verdict": verdict,
        "deviations": deviations,
        "details": details,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.format == "json":
        text = canonical_json(report)
    elif args.format == "csv":
        text = _project_csv(report, rows)
    else:
        text = _project_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _VERDICT_EXIT.get(verdict, EXIT_PASS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (UsageError, FileNotFoundError, json.JSONDecodeError, *_INPUT_ERRORS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception:
        # a bug, not a verdict: exit 1 would claim a failed verification
        traceback.print_exc()
        sys.stderr.write("internal error: please report the traceback above\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
