"""Workload definitions and the correctness gate applied to every run.

Each workload is one tppverify invocation, sized so that at least two fit in
a 40 s measurement on a 2-core machine with the Fraction backend.  The seed
is a benchmark argument; tppverify only sees the generated arguments.

The gate values below are stored with the benchmark: a run whose report
differs from them is a failed operation, never a slow one.
"""

N, Q_SU, Q_GL = 4, 2, 4
ORDER = 3

WORKLOADS = {
    # The ROADMAP/A9 shape (X=4, Y=81, Z=4): a 1.68M-tuple TPP space sampled
    # at a small budget, so products rarely recur and caches are bypassed.
    "su-sampled": {
        "kind": "su",
        "argv": ["split-assemble", "--n", str(N), "--q", str(Q_SU),
                 "--sample-budget", "400"],
        "expect": {
            "tpp_tuples": 400, "sep_checks": 400, "sampled": True,
            "cardinalities": {"X": 4, "Y": 81, "Z": 4},
        },
    },
    # Same construction with Y capped at 2: the whole 1024-tuple TPP space
    # and all 1024 separation tuples, which meet only 48 distinct products
    # M = x' y^-1 y' z'^-1.  split-assemble ignores --mode, so exhaustiveness
    # comes from a budget at least the tuple space.  An exhaustive run
    # samples nothing but the Y pair, and which pair the seed picks changes
    # the work by up to 1.7x (dense versus sparse coordinates), so the pair
    # is fixed by the CLI default seed 0 and every run does the same work.
    "su-exhaustive": {
        "kind": "su",
        "cli_seed": 0,
        "argv": ["split-assemble", "--n", str(N), "--q", str(Q_SU),
                 "--y-cap", "2", "--sample-budget", "1024"],
        "expect": {
            "tpp_tuples": 1024, "sep_checks": 1024, "sampled": False,
            "cardinalities": {"X": 4, "Y": 2, "Z": 4},
        },
    },
    # GL_4(R) running example in border form: real integer entries, the
    # 161-node indicator over lpm sums (cofactor determinants over series),
    # a sampled series TPP of unitriangular X_q, Z_q against exp(eps A) Y.
    "gl-border": {
        "kind": "gl",
        "yfam_cap": 64, "xz_cap": 8, "tpp_budget": 450, "pairs": 800,
        "expect": {
            "tpp_tuples": 450, "sep_checks": 800, "sampled": True,
            "cardinalities": {"X": 8, "Y": 64, "Z": 8},
        },
    },
}

# Values every report must carry, whatever the seed.
SU_P0 = {"nodes": 44, "deg_r": 43, "deg_tracked": 172}
SU_DEGREES = {"deg_p0": 172, "deg_r": 4, "deg_total": 176}
GL_P0 = {"nodes": 161, "deg_r": 160, "deg_tracked": 640}
# verify_indicator_border adds up to 8 equal pairs to a sampled pair budget.
GL_EXTRA_EQUAL_PAIRS = 8


def gate(workload: str, report: dict, seed: int) -> list:
    """Mismatches between a run's report and the stored values ([] = pass)."""
    spec = WORKLOADS[workload]
    exp = spec["expect"]
    bad = []

    def want(label, got, expected):
        if got != expected:
            bad.append(f"{label}: got {got!r}, expected {expected!r}")

    want("verdict", report.get("verdict"), "pass")
    tpp = report.get("tpp", {})
    sep = report.get("separating", {})
    want("tpp.verdict", tpp.get("verdict"), "pass")
    want("separating.verdict", sep.get("verdict"), "pass")
    want("tpp.tuples_checked", tpp.get("tuples_checked"), exp["tpp_tuples"])
    want("tpp.sampled", tpp.get("sampled"), exp["sampled"])
    want("separating.sampled", sep.get("sampled"), exp["sampled"])
    want("tpp.order_used", tpp.get("order_used"), ORDER)
    if exp["sampled"]:
        want("tpp.seed", tpp.get("seed"), seed)
        want("separating.seed", sep.get("seed"), seed)
    card = report.get("cardinalities", {})
    for key, value in exp["cardinalities"].items():
        want(f"cardinalities.{key}", card.get(key), value)
    p0 = report.get("p0", {})
    if spec["kind"] == "su":
        want("separating.checked", sep.get("checked"), exp["sep_checks"])
        want("separating.order_used", sep.get("order_used"), ORDER)
        for key, value in SU_P0.items():
            want(f"p0.{key}", p0.get(key), value)
        deg = {k: int(v) for k, v in report.get("degrees", {}).items()}
        for key, value in SU_DEGREES.items():
            want(f"degrees.{key}", deg.get(key), value)
        if deg.get("deg_total") != deg.get("deg_p0", 0) + deg.get("deg_r", 0):
            bad.append(f"degree ledger: deg_total != deg_p0 + deg_r in {deg}")
    else:
        checked = sep.get("checked", 0)
        if not exp["sep_checks"] < checked <= exp["sep_checks"] + GL_EXTRA_EQUAL_PAIRS:
            bad.append(f"separating.checked: got {checked}, expected "
                       f"{exp['sep_checks']} + 1..{GL_EXTRA_EQUAL_PAIRS} equal pairs")
        for key, value in GL_P0.items():
            want(f"p0.{key}", p0.get(key), value)
    return bad
