"""One tppverify invocation of a benchmark workload, in its own process.

    python3 perfbench/child.py --workload su-sampled --seed 1 [--controls] [--trace]

The clock starts before tppverify is imported, so set-up includes what a
command-line user pays on every call.  Phase boundaries are spans around the
calls into verify_tpp_series and the border verifier; on the su workloads
these are taken on the real cli.main split-assemble path.  With --trace,
spans cover every layer and hot methods get counting wrappers; afterwards the
wrappers are removed and each layer's public functions are timed on this
run's own operands.  The last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402
from workloads import N, ORDER, Q_GL, WORKLOADS  # noqa: E402


def _instrument(tracer, kind, seen):
    """Spans around every layer entry point, counters on the hot methods."""
    from tppverify import cli, matrices, sepfun, series, scalars, su

    tracer.wrap_matmul(matrices.Mat)
    tracer.wrap_count(series.EpsLaurent, "__mul__", "series_mul")
    tracer.wrap_count(series.EpsLaurent, "__add__", "series_add")
    tracer.wrap_count(scalars.GaussRational, "__mul__", "gauss_mul")
    tracer.wrap_count(matrices, "mat_det", "det")
    tracer.wrap_count(sepfun, "mat_det", "det")
    tracer.wrap_count(sepfun.UniPoly, "eval_series", "eval_series")
    if kind == "gl":
        from tppverify import running_example

        tracer.wrap_capture(running_example, "mat_exp_trunc", seen, "exp_args")
        return
    tracer.wrap_capture(su, "mat_exp_trunc", seen, "exp_args")
    tracer.wrap_span(cli, "su_assemble", "su.assemble")
    tracer.wrap_span(su, "su_build", "su.build")
    tracer.wrap_span(su, "su_p0", "su.p0")
    tracer.wrap_span(su, "assemble_split", "split.assemble",
                     on_return=lambda args, kwargs, out: _watch_evals(tracer, out.sep_family))
    tracer.wrap_span(su, "audit_p0_invariance", "split.audit")


def _watch_evals(tracer, family):
    """Count p0 evaluations (and distinct arguments) and p_xz evaluations."""
    tracer.wrap_eval(_p0_of(family), "p0_evals", distinct=True)
    for fn in family.values():
        tracer.wrap_eval(fn, "pxz_evals")


def _p0_of(family):
    """p_xz = p0 * r_ab with t = 1, so p0 is the first factor of any p_xz."""
    return family[min(family)].children[0]


def run_su(spec, seed, tracer, seen):
    from tppverify import cli, su

    def keep(name):
        return lambda args, kwargs, result: seen.__setitem__(name, (args, result))

    tracer.wrap_span(su, "verify_tpp_series", "tpp.verify", on_return=keep("tpp"))
    tracer.wrap_span(su, "verify_separating_border", "sepverify.verify",
                     on_return=keep("sep"))
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = cli.main(spec["argv"] + ["--seed", str(spec.get("cli_seed", seed)),
                                      "--no-timestamp"])
    end = time.perf_counter()
    (inst, *_), tpp = seen["tpp"]
    (family, *_), sep = seen["sep"]
    seen["inst"] = inst
    seen["p0"] = _p0_of(family)
    seen["pxz"] = family[min(family)]
    return rc, buf.getvalue(), end, tpp, sep


def run_gl(spec, seed, tracer, seen):
    from tppverify.groups import MatrixGroupOps
    from tppverify.instances import canonical_json
    from tppverify.matrices import mat_to_series
    from tppverify.running_example import build_unitriangular_sets, running_border_p0
    from tppverify.sepverify import verify_indicator_border
    from tppverify.tpp import TppInstance, verify_tpp_series

    with tracer.span("running_example.p0"):
        p0, yfams, p0rep = running_border_p0(N, Q_GL, yfam_cap=spec["yfam_cap"],
                                             seed=seed, order=ORDER, check_pairs=0)
    if seen["traced"]:
        tracer.wrap_eval(p0, "p0_evals", distinct=True)
    xq, zq, _ = build_unitriangular_sets(N, Q_GL, cap=spec["xz_cap"], seed=seed)
    inst = TppInstance(MatrixGroupOps(N), [mat_to_series(x) for x in xq], yfams,
                       [mat_to_series(z) for z in zq], "family")
    with tracer.span("tpp.verify"):
        tpp = verify_tpp_series(inst, order=ORDER, mode="sampled",
                                sample_budget=spec["tpp_budget"], seed=seed)
    with tracer.span("sepverify.verify"):
        sep = verify_indicator_border(p0, yfams, sample_budget=spec["pairs"], seed=seed)
    verdicts = {tpp.verdict, sep.verdict}
    verdict = "fail" if "fail" in verdicts else (
        "inconclusive" if "inconclusive" in verdicts else "pass")
    report = {
        "verdict": verdict,
        "tpp": tpp.to_json(),
        "separating": sep.to_json(),
        "cardinalities": {"X": len(inst.x), "Y": len(inst.y), "Z": len(inst.z)},
        "p0": {"nodes": p0rep.grid_size, "deg_r": p0rep.deg_r,
               "deg_tracked": p0rep.deg_p0_tracked, "t_max": str(p0rep.t_max),
               "y_sampled": p0rep.sampled},
        "deviations": p0rep.deviations,
    }
    end = time.perf_counter()
    seen.update(inst=inst, p0=p0, pxz=None)
    rc = 0 if verdict == "pass" else 1
    return rc, canonical_json({"command": "gl-border", "seed": seed, "details": report}), end, tpp, sep


def _phase(span, checks, inconclusive, failed):
    return {"checks": checks, "seconds": span["end"] - span["start"],
            "inconclusive": inconclusive, "failed": failed}


def _layer_metrics(tracer, seen, kind, tpp):
    """Counts and self times from the traced run, then per-call timings."""
    sep_span = "sepverify.verify"
    tuples = max(tpp.tuples_checked, 1)
    out = {
        "scalars.gauss_mul_calls": tracer.total("gauss_mul"),
        "series.mul_calls": tracer.total("series_mul"),
        "series.add_calls": tracer.total("series_add"),
        "matrices.matmul_calls": tracer.total("matmul"),
        "matrices.det_calls": tracer.total("det"),
        "sepfun.eval_series_calls": tracer.total("eval_series"),
        "tpp.matmuls_per_tuple": tracer.within("tpp.verify", "matmul") / tuples,
        "sepfun.p0_evals": tracer.within(sep_span, "p0_evals"),
        "sepfun.p0_distinct_args": tracer.within(sep_span, "p0_evals_distinct"),
        "sepverify.product_matmuls": tracer.within(sep_span, "matmul_outside_eval"),
        "su.build_s": tracer.self_time("su.build"),
        "su.p0_s": tracer.self_time("su.p0"),
        "split.assemble_s": tracer.self_time("split.assemble"),
        "split.audit_s": tracer.self_time("split.audit"),
        "running_example.p0_s": tracer.self_time("running_example.p0"),
        "tpp.verify_self_s": tracer.self_time("tpp.verify"),
        "sepverify.verify_self_s": tracer.self_time(sep_span),
        "cli.overhead_s": (tracer.duration("cli.main") - tracer.duration("su.assemble")
                           if kind == "su" else 0.0),
    }
    tracer.uninstall()
    # imported only now, so that the timed functions are the unwrapped ones
    from layers import layer_timings
    from tppverify.matrices import mat_inv_series

    inst = seen["inst"]
    iy = _densest(inst.y)
    if kind == "su":
        # x' y^-1 is the TPP hot product; M = x' y^-1 y' z'^-1 a separation argument
        left, right = inst.x[_densest(inst.x)], inst.inv_element("y", iy)
        m = (left.matmul(right).matmul(inst.y[iy - 1])
             .matmul(inst.inv_element("z", _densest(inst.z))))
    else:
        # y_i^-1 y_j is both the indicator argument and the border product
        left, right = mat_inv_series(inst.y[iy]), inst.y[iy - 1]
        m = left.matmul(right)
    exp_args = max(seen["exp_args"], key=lambda args: sum(x != 0 for x in args[0].data))
    out.update(layer_timings(left, right, inst.y[iy], exp_args, m,
                             seen["p0"], seen["pxz"]))
    return out


def _densest(families):
    """Index of the family with the most stored series coefficients; the
    first members can be trivial (x' for coordinates 0 is I)."""
    return max(range(len(families)),
               key=lambda i: sum(len(s.coeffs) for s in families[i].data))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--controls", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    kind = spec["kind"]

    tracer = Tracer()
    seen = {"traced": args.trace}
    if args.trace:
        _instrument(tracer, kind, seen)
    runner = run_su if kind == "su" else run_gl
    rc, report, end, tpp, sep = runner(spec, args.seed, tracer, seen)

    from tppverify.scalars import QQ

    backend = type(QQ(0))
    result = {
        "rc": rc,
        "report": report,
        "setup_s": tracer.first("tpp.verify")["start"] - T0,
        "verdict_s": end - T0,
        "tpp": _phase(tracer.first("tpp.verify"), tpp.tuples_checked,
                      tpp.inconclusive_count, int(tpp.verdict == "fail")),
        "sep": _phase(tracer.first("sepverify.verify"), sep.checked,
                      len(sep.inconclusive), len(sep.failures)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "backend": f"{backend.__module__}.{backend.__qualname__}",
    }
    if args.trace:
        result["layers"] = _layer_metrics(tracer, seen, kind, tpp)
        result["layers"]["sepverify.inconclusive"] = len(sep.inconclusive)
        result["trace"] = tracer.to_json()
    else:
        tracer.uninstall()
    if args.controls:
        from controls import run_controls

        result["controls"] = run_controls(N, Q_GL, args.seed, seen["inst"], ORDER,
                                          seen["p0"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
