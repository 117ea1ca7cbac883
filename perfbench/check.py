"""Output checks for benchmark runs.

Each check returns a list of problems; an empty list means the output is
accepted. Reference CSVs in `reference/` were written by the program at
`workloads.DEFAULT_SEED` (see make_reference.py).

- bound: every rate cell within RATE_TOL_BITS of the reference, NA cells
  exactly where the reference has them, and the sandwich
  log2M_dt <= log2M_converse, log2M_header_ach <= log2M_header_conv,
  log2M_header_ach <= log2M_dt.
- simulate: at the reference seed, per-class errors and trials equal the
  reference; at any seed, the row invariants hold. dt_bound and pass are not
  pinned, only checked for consistency with each other and the exit code.
- tradeoff: every row within TRADEOFF_TOL of the closed-form expected rate
  and KL loss, the committed sample rows within TRADEOFF_TOL, and the per-n
  argmax at lambda = mu.
"""

from __future__ import annotations

import csv
import io
import math
import os
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

RATE_TOL_BITS = 1e-5
TRADEOFF_TOL = 1e-9
SANDWICH_SLACK_BITS = 1e-9
RATE_COLUMNS = (
    "log2M_dt",
    "log2M_converse",
    "log2M_header_ach",
    "log2M_header_conv",
    "log2M_normal_approx",
)
SANDWICH = (
    ("log2M_dt", "log2M_converse"),
    ("log2M_header_ach", "log2M_header_conv"),
    ("log2M_header_ach", "log2M_dt"),
)
# Inputs where the program is known to give wrong numbers; no reference is
# ever built there (small-eps Neyman-Pearson beta).
KNOWN_WRONG_EPS = 1e-9


def parse_csv(text: str) -> Tuple[List[str], List[Dict[str, str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.csv")


def load_reference(name: str) -> Tuple[List[str], List[Dict[str, str]]]:
    with open(reference_path(name)) as fh:
        return parse_csv(fh.read())


def _num(cell: str) -> Optional[float]:
    return None if cell == "NA" else float(cell)


# ---------------------------------------------------------------------- bound


def check_bound(name: str, text: str, ref=None) -> List[str]:
    ref_cols, ref_rows = ref if ref is not None else load_reference(name)
    cols, rows = parse_csv(text)
    if cols != ref_cols:
        return [f"columns {cols} != reference {ref_cols}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for key in ("n", "class", "lambda", "eps_target"):
            if row[key] != ref_row[key]:
                problems.append(f"row {i} {key}={row[key]} != reference {ref_row[key]}")
        for key in RATE_COLUMNS:
            got, want = row[key], ref_row[key]
            if (got == "NA") != (want == "NA"):
                problems.append(f"row {i} {key}={got}, reference {want} (NA moved)")
            elif got != "NA" and not abs(float(got) - float(want)) <= RATE_TOL_BITS:
                problems.append(f"row {i} {key}={got} off reference {want} by > {RATE_TOL_BITS}")
        for lo, hi in SANDWICH:
            a, b = _num(row[lo]), _num(row[hi])
            if a is not None and b is not None and a > b + SANDWICH_SLACK_BITS:
                problems.append(f"row {i} sandwich broken: {lo}={a} > {hi}={b}")
    return problems


# ------------------------------------------------------------------- simulate


def dt_violations(text: str) -> int:
    _, rows = parse_csv(text)
    return sum(1 for r in rows if r.get("pass") == "0")


def _simulate_expected(name: str) -> dict:
    """Per-class (k, lambda), trials and codebooks from the workload arguments."""
    argv = list(WORKLOADS[name].argv)
    classes = [argv[i + 1] for i, a in enumerate(argv) if a == "--class"]
    trials = int(argv[argv.index("--trials") + 1])
    codebooks = int(argv[argv.index("--codebooks") + 1])
    n = argv[argv.index("--n") + 1]
    out = []
    for spec in classes:
        fields = dict(part.split("=") for part in spec.split(","))
        out.append((n, fields["k"], float(fields["lambda"])))
    return {"classes": out, "trials": trials, "codebooks": codebooks}


def check_simulate(name: str, text: str, seed: int, exit_code: int, ref=None) -> List[str]:
    cols, rows = parse_csv(text)
    want = _simulate_expected(name)
    ref_cols, ref_rows = ref if ref is not None else load_reference(name)
    if cols != ref_cols:
        return [f"columns {cols} != reference {ref_cols}"]
    if len(rows) != len(want["classes"]):
        return [f"{len(rows)} rows for {len(want['classes'])} classes"]
    problems = []
    total = want["trials"] * want["codebooks"]
    for i, (row, (n, k, lam)) in enumerate(zip(rows, want["classes"])):
        if (row["n"], row["class"], row["k"]) != (n, str(i), k) or float(row["lambda"]) != lam:
            problems.append(f"row {i} labels {row['n']},{row['class']},{row['k']},{row['lambda']}")
        if row["codebooks"] != str(want["codebooks"]) or row["trials"] != str(total):
            problems.append(f"row {i} codebooks/trials {row['codebooks']}/{row['trials']}")
        errors = int(row["errors"])
        if not 0 <= errors <= total:
            problems.append(f"row {i} errors {errors} outside [0, {total}]")
            continue
        rate = errors / total
        se = math.sqrt(rate * (1.0 - rate) / total)
        if not math.isclose(float(row["error_rate"]), rate, rel_tol=1e-11, abs_tol=0.0):
            problems.append(f"row {i} error_rate {row['error_rate']} != {errors}/{total}")
        if not math.isclose(float(row["std_error"]), se, rel_tol=1e-11, abs_tol=0.0):
            problems.append(f"row {i} std_error {row['std_error']} != {se:.12g}")
        bound = float(row["dt_bound"])
        if not 0.0 < bound <= 1.0:
            problems.append(f"row {i} dt_bound {bound} outside (0, 1]")
        passed = rate <= bound + 3.0 * se
        if row["pass"] != ("1" if passed else "0"):
            problems.append(f"row {i} pass={row['pass']} disagrees with its dt_bound")
    if seed == DEFAULT_SEED:
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for key in ("errors", "trials"):
                if row[key] != ref_row[key]:
                    problems.append(f"row {i} {key}={row[key]} != reference {ref_row[key]}")
    want_exit = 4 if dt_violations(text) else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    return problems


# ------------------------------------------------------------------- tradeoff


def _bsc_capacity_dispersion(p: float) -> Tuple[float, float]:
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    return 1.0 - h, p * (1 - p) * math.log2((1 - p) / p) ** 2


def _tradeoff_params(name: str):
    argv = list(WORKLOADS[name].argv)
    start, stop, step = (int(v) for v in argv[argv.index("--n") + 1].split(":"))
    eps = [
        float(dict(part.split("=") for part in argv[i + 1].split(","))["eps"])
        for i, a in enumerate(argv)
        if a == "--class"
    ]
    mu = [float(v) for v in argv[argv.index("--mu") + 1].split(",")]
    return list(range(start, stop + 1, step)), float(argv[argv.index("--p") + 1]), eps, mu


def check_tradeoff(name: str, text: str, ref=None) -> List[str]:
    ref_cols, ref_rows = ref if ref is not None else load_reference(name)
    cols, rows = parse_csv(text)
    if cols != ref_cols:
        return [f"columns {cols} != reference {ref_cols}"]
    n_list, p, eps, mu = _tradeoff_params(name)
    cap, disp = _bsc_capacity_dispersion(p)
    q_inv = [-NormalDist().inv_cdf(e) for e in eps]
    lam_cols = [c for c in cols if c.startswith("lambda_")]
    problems: List[str] = []
    argmax_seen: Dict[str, List[Tuple[str, ...]]] = {}
    rows_per_n: Dict[str, int] = {}
    for i, row in enumerate(rows):
        if len(problems) > 20:
            break
        n = int(row["n"])
        lam = [float(row[c]) for c in lam_cols]
        rows_per_n[row["n"]] = rows_per_n.get(row["n"], 0) + 1
        if any(l == 0.0 for l, m in zip(lam, mu) if m > 0):
            want_rate = -math.inf
        else:
            want_rate = sum(
                m * (n * cap - math.sqrt(n * disp) * q + math.log2(l) - math.log2(m))
                for m, q, l in zip(mu, q_inv, lam)
                if m > 0
            ) / n
        got_rate = float(row["expected_rate"])
        if not (got_rate == want_rate or abs(got_rate - want_rate) <= TRADEOFF_TOL):
            problems.append(f"row {i} expected_rate {got_rate} != {want_rate:.12g}")
        if any(l == 0.0 for l, m in zip(lam, mu) if m > 0):
            want_kl = math.inf
        else:
            want_kl = sum(m * math.log2(m / l) for m, l in zip(mu, lam) if m > 0) / n
        got_kl = float(row["kl_loss"])
        if not (got_kl == want_kl or abs(got_kl - want_kl) <= TRADEOFF_TOL):
            problems.append(f"row {i} kl_loss {got_kl} != {want_kl:.12g}")
        if row["is_argmax"] == "1":
            argmax_seen.setdefault(row["n"], []).append(tuple(row[c] for c in lam_cols))
    if [int(n) for n in rows_per_n] != n_list:
        problems.append(f"blocklengths {list(rows_per_n)} != {n_list}")
    mu_cells = [f"{v:.12g}" for v in mu]
    for n in rows_per_n:
        if argmax_seen.get(n) != [tuple(mu_cells)]:
            problems.append(f"n={n}: argmax at {argmax_seen.get(n)}, expected lambda = mu {mu_cells}")
    by_key = {tuple(r[c] for c in ["n"] + lam_cols): r for r in rows}
    for ref_row in ref_rows:
        row = by_key.get(tuple(ref_row[c] for c in ["n"] + lam_cols))
        if row is None:
            problems.append(f"reference row {ref_row} missing")
            continue
        for key in ("expected_rate", "kl_loss"):
            a, b = float(row[key]), float(ref_row[key])
            if not (a == b or abs(a - b) <= TRADEOFF_TOL):
                problems.append(f"n={row['n']} {key}={a} != reference {b}")
        if row["is_argmax"] != ref_row["is_argmax"]:
            problems.append(f"n={row['n']} is_argmax differs from reference")
    return problems


# ----------------------------------------------------------------------- any


def check_output(name: str, text: str, seed: int, exit_code: int) -> List[str]:
    command = WORKLOADS[name].argv[0]
    if command == "simulate":
        return check_simulate(name, text, seed, exit_code)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if command == "bound":
        return check_bound(name, text)
    return check_tradeoff(name, text)


def sample_tradeoff_rows(text: str, stride: int = 101) -> str:
    """The CSV reduced to every stride-th data row plus every argmax row."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header, body = data[0], data[1:]
    keep = [ln for i, ln in enumerate(body) if i % stride == 0 or ln.endswith(",1")]
    return "\n".join(comments + [header] + keep) + "\n"


def reference_eps_ok(argv: Sequence[str]) -> bool:
    """False when any class target sits in the known-wrong small-eps range."""
    for i, a in enumerate(argv):
        if a == "--class":
            fields = dict(part.split("=") for part in argv[i + 1].split(","))
            if "eps" in fields and float(fields["eps"]) <= KNOWN_WRONG_EPS:
                return False
    return True
