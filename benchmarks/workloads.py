"""Seeded inputs and seed-independent output checks for each workload.

A workload is a list of jobs.  Each job is one `partible` CLI call
(`argv`), the number of operations it stands for, and what its output
must satisfy.  Inputs are generated here with the standard library only,
so they do not depend on the code under test; the checks use the public
API of `partible` (imported by the caller from the checkout's `src`).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = {
    "sweep": (
        "verify apery r<=5 p<=600 and delannoy_poly r<=3 p<=300 at three "
        "seeded z: term generation and per-cell summation mod p^e"
    ),
    "constants": (
        "constants --json for apery r<=16 over Q and delannoy_poly r<=6 over "
        "Q(z): adjoint images, Taylor shifts, audit, Q(z) normalisation"
    ),
    "analyze": (
        "279 profile/gamma/reduce/guess queries on 60 seeded operators of "
        "order 1-3; indicator constants capped at 13 digits (trial division)"
    ),
}

SEED_FREE = {"constants"}  # inputs that do not depend on the seed

SWEEP_APERY = (5, 600)  # (r_max, p_max)
SWEEP_DELANNOY = (3, 300)
CONSTANTS = (("apery", 16), ("delannoy_poly", 6))

N_OPERATORS = 60  # half built partible around a seeded center
SHAPES = tuple((order, D) for order in (1, 2, 3) for D in (1, 2, 3, 4))  # D = d + 1
MAX_DIGITS = 13  # trial-division root search: 30 digits hangs today
REDUCE_PER_OPERATOR = 2
MAX_REDUCE_DEGREE = 30
# (family, max_order, max_deg): fixed mix, so cost hardly depends on the seed
GUESS_MIX = (
    ("apery", 2, 3), ("apery", 2, 4), ("apery", 3, 3), ("apery", 2, 3),
    ("delannoy", 2, 1), ("delannoy", 2, 2), ("delannoy", 3, 1), ("delannoy", 2, 1),
    ("random", 1, 2), ("random", 2, 2), ("random", 2, 3), ("random", 3, 4),
)
GUESS_ROUNDS = 2
BAD_POLYS = ("k^^2", "(k+1", "2*k +", "k/(k+1)", "3 $ k", "k^", "x + 1", "z*k")
BAD_OPERATORS = (
    "not json",
    "[1, 2]",
    '{"coeffs": ["k + 1", "k"]}',
    '{"order": 2, "coeffs": ["k + 1", "k"]}',
    '{"order": 1, "coeffs": ["k + 1", "0"]}',
    '{"order": 1, "coeffs": ["k + 1", "k^"]}',
    '{"order": 1, "coeffs": ["k", "k + 2"], "field": "R"}',
)


# -- integer polynomials, coefficient lists low degree first -------------------


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _compose_linear(p, a, b):
    """Coefficients of p(a*k + b)."""
    acc = [0]
    for c in reversed(p):
        shifted = [0] * (len(acc) + 1)
        for i, x in enumerate(acc):
            shifted[i] += x * b
            shifted[i + 1] += x * a
        shifted[0] += c
        acc = _trim(shifted)
    return acc


def _text(p, var="k"):
    """Text that `partible.parse_polynomial` reads; var may be a bracketed form."""
    pieces = []
    for t in range(len(p) - 1, -1, -1):
        c = p[t]
        if c == 0:
            continue
        body = str(abs(c))
        if t:
            power = var if t == 1 else f"{var}^{t}"
            body = power if abs(c) == 1 else f"{body}*{power}"
        sign = "-" if c < 0 else "+"
        pieces.append((f"-{body}" if sign == "-" else body) if not pieces else f" {sign} {body}")
    return "".join(pieces) or "0"


def _linear_text(a, b):
    return f"({a}*k {'-' if b < 0 else '+'} {abs(b)})"


# -- definition-generated terms -------------------------------------------------


def apery(n):
    return [sum((math.comb(m, j) * math.comb(m + j, j)) ** 2 for j in range(m + 1)) for m in range(n)]


def delannoy(n, z):
    return [sum(math.comb(m, i) * math.comb(m + i, i) * z ** i for i in range(m + 1)) for m in range(n)]


def _primes(lo, hi):
    return [p for p in range(max(lo, 2), hi + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# -- jobs -------------------------------------------------------------------------


def _job(argv, kind, ops=1, **check):
    return {"argv": argv, "kind": kind, "ops": ops, "check": check}


def sweep_jobs(seed, workdir):
    rng = random.Random(f"sweep-{seed}")
    zs = rng.sample([z for z in range(-9, 10) if z], 3)
    r, p_max = SWEEP_APERY
    apery_cells = (r + 1) * len(_primes(5, p_max))
    r_d, p_d = SWEEP_DELANNOY
    delannoy_cells = (r_d + 1) * sum(1 for z in zs for p in _primes(3, p_d) if z % p)
    return [
        _job(["verify", "--family", "apery", "--r-max", str(r), "--p-max", str(p_max)],
             "verify", apery_cells),
        _job(["verify", "--family", "delannoy_poly", "--r-max", str(r_d), "--p-max", str(p_d),
              "--z", *map(str, zs)], "verify", delannoy_cells),
    ]


def constants_jobs(seed, workdir):
    return [
        _job(["constants", "--family", family, "--r-max", str(r_max), "--json"],
             "constants", r_max + 1, family=family, r_max=r_max)
        for family, r_max in CONSTANTS
    ]


def _build_operator(rng, order, D, log_c0, partible):
    """An order-`order` operator whose indicator is c0 + c1*s with c0 ~ 10^log_c0.

    In y = 2k - e the coefficients satisfy P_{J-i}(y) = s*P_i(-y) with
    s = (-1)^d, d = D - 1, which is the symmetry around
    gamma = (e + J)/2.  The top terms cancel in b_0, so d = D - 1 and
    the indicator is linear; its constant c0 is tuned through the y^(D-1)
    coefficient of the outer pair.
    """
    d = D - 1
    s = -1 if d % 2 else 1
    half = rng.randint(-5, 4)
    gamma = Fraction(2 * half + 1, 2)
    e = 2 * half + 1 - order
    P = [None] * (order + 1)
    pairs = (order + 1) // 2
    for i in range(pairs):
        P[i] = [rng.randint(-9, 9) for _ in range(D)] + [rng.randint(1, 9)]
    if order % 2 == 0:
        P[order // 2] = _trim(rng.randint(-9, 9) if t % 2 == d % 2 else 0 for t in range(d + 1))

    def outer(mu):
        P[0][D - 1] = mu
        for i in range(pairs):
            P[order - i] = [s * (-1) ** t * c for t, c in enumerate(P[i])]
        b0 = [0]
        for i in range(order + 1):
            b0 = _add(b0, _compose_linear(P[i], 2, -2 * i - e))
        return b0[D - 1] if len(b0) >= D else 0

    base = outer(0)
    slope = outer(1) - base
    mu = round((10 ** log_c0 - base) / slope)
    while base + slope * mu <= 0:
        mu += 1
    c0 = outer(mu)
    c1 = 2 ** D * sum(P[i][D] * (order - 2 * i) for i in range(pairs))
    var = _linear_text(2, -e)
    coeffs = [_text(p, var) for p in P]
    in_k = [_compose_linear(p, 2, -e) for p in P]
    if not partible:
        bump = rng.randint(1, 9)  # breaks the symmetry; c0 stays positive
        coeffs[0] += f" + {bump}"
        in_k[0][0] += bump
        if D == 1:
            c0 += bump
    return {"order": order, "coeffs": coeffs, "field": "Q"}, {
        "d": d, "indicator": [c0, c1], "gamma": str(gamma) if partible else None, "coeffs": in_k,
    }


def _reduce_poly(rng, degree):
    """head*(2k +- 3)^degree - c*k^e: coefficient sizes depend on the degree only."""
    head = rng.choice((-1, 1)) * rng.randint(1, 99)
    top = f"{head}*{_linear_text(2, rng.choice((-3, 3)))}^{degree}" if degree else str(head)
    return f"{top} - {rng.randint(1, 99)}*k^{rng.randint(0, degree)}"


def analyze_jobs(seed, workdir):
    rng = random.Random(f"analyze-{seed}")
    workdir = Path(workdir)
    jobs = []
    # The design is fixed and the seed draws only values, so the cost mix,
    # and with it every latency percentile, hardly depends on the seed:
    # operator n has the n-th of N equal log10 strata of [0, MAX_DIGITS]
    # for its indicator constant, shape SHAPES[n % 12], and one low and
    # one high reduce degree from a log-uniform grid on [1, 30].
    n_reduce = N_OPERATORS * REDUCE_PER_OPERATOR
    degrees = [round(MAX_REDUCE_DEGREE ** ((i + 0.5) / n_reduce)) for i in range(n_reduce)]
    for n in range(N_OPERATORS):
        order, D = SHAPES[n % len(SHAPES)]
        log_c0 = MAX_DIGITS * (n + 0.4 + 0.2 * rng.random()) / N_OPERATORS
        partible = (n + n // len(SHAPES)) % 2 == 0
        data, expect = _build_operator(rng, order, D, log_c0, partible)
        path = workdir / f"op{n:02d}.json"
        path.write_text(json.dumps(data))
        op = str(path)
        jobs.append(_job(["profile", "--operator", op], "profile", operator=op, **expect))
        jobs.append(_job(["gamma", "--operator", op], "gamma", operator=op, **expect))
        for degree in degrees[n::N_OPERATORS]:
            poly = _reduce_poly(rng, degree)
            jobs.append(_job(["reduce", "--operator", op, f"--poly={poly}"], "reduce",
                             operator=op, poly=poly))

    for g in range(GUESS_ROUNDS * len(GUESS_MIX)):
        family, order, deg = GUESS_MIX[g % len(GUESS_MIX)]
        need = (order + 1) * (deg + 2) + order + 2
        z = None
        if family == "apery":
            terms = apery(need)
        elif family == "delannoy":
            z = rng.choice([v for v in range(-9, 10) if v not in (0, -1)])
            terms = delannoy(need, z)
        else:
            terms = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(need)]
        path = workdir / f"terms{g:02d}.json"
        path.write_text(json.dumps([str(t) for t in terms]))
        jobs.append(_job(["guess", "--terms", str(path), "--order", str(order), "--deg", str(deg)],
                         "guess", family=family, z=z, terms=str(path)))

    for n, text in enumerate(BAD_OPERATORS):
        path = workdir / f"bad{n:02d}.json"
        path.write_text(text)
        command = ("profile", "gamma", "reduce")[n % 3]
        extra = ["--poly=k^2"] if command == "reduce" else []
        jobs.append(_job([command, "--operator", str(path), *extra], "malformed"))
    for text in BAD_POLYS:
        jobs.append(_job(["reduce", "--operator", str(workdir / "op00.json"), f"--poly={text}"],
                         "malformed"))
    rng.shuffle(jobs)
    return jobs


MAKE_JOBS = {"sweep": sweep_jobs, "constants": constants_jobs, "analyze": analyze_jobs}


# -- output checks ------------------------------------------------------------------


def canonical(job, stdout):
    """Stdout with the run-dependent `elapsed` field dropped from verify reports."""
    if job["kind"] != "verify":
        return stdout
    lines = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
            report.pop("elapsed", None)
            line = json.dumps(report)
        lines.append(line)
    return "\n".join(lines) + "\n"


class Checker:
    """Per-operation checks that hold for every seed; returns failed operations."""

    def __init__(self, partible):
        self.pt = partible
        self.operators = {}  # path -> (operator, profile); the profile is the costly part

    def operator(self, path):
        if path not in self.operators:
            L = self.pt.operator_from_dict(json.loads(Path(path).read_text()))
            self.operators[path] = L, self.pt.profile(L)
        return self.operators[path]

    def __call__(self, job, rc, stdout):
        kind = job["kind"]
        if kind == "malformed":
            return [] if rc == 2 else [f"exit {rc}, expected 2"]
        if rc != 0:
            return [f"exit {rc}"] * job["ops"]
        return getattr(self, kind)(job["check"], stdout, job["ops"])

    def verify(self, check, stdout, ops):
        reports = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        bad = [f"cell r={r['r']} p={r['p']} failed" for r in reports if r.get("passed") is not True]
        missing = ops - sum(1 for r in reports if r.get("passed") is True) - len(bad)
        return bad + ["cell missing"] * max(missing, 0)

    def constants(self, check, stdout, ops):
        data = json.loads(stdout)
        entries = {e["r"]: e["c"] for e in data["entries"]}
        if sorted(entries) != list(range(check["r_max"] + 1)):
            return ["entries are not r = 0..r_max"] * ops
        fails = []
        for r, text in entries.items():
            if check["family"] == "apery":
                ok = all(_apery_congruence(r, Fraction(text), p) for p in (101, 103))
            else:
                c = self.pt.parse_polynomial(text, "Q(z)").coefficient(0)
                ok = all(_delannoy_congruence(r, c.evaluate(z0), z0, 101) for z0 in (2, 5))
            if not ok:
                fails.append(f"c_{r} fails its congruence")
        return fails

    def profile(self, check, stdout, ops):
        data = json.loads(stdout)
        indicator = self.pt.parse_polynomial(data["indicator"].replace("s", "k"))
        want = self.pt.Polynomial(check["indicator"])
        if (data["d"], data["roots"], indicator) != (check["d"], [], want):
            return [f"profile {data} != d={check['d']} indicator={check['indicator']}"]
        return []

    def gamma(self, check, stdout, ops):
        data = json.loads(stdout)
        if check["gamma"] is not None:
            if data["partible"] is not True or data["gamma"] != check["gamma"]:
                return [f"built center {check['gamma']} not found: {data}"]
            return []
        if data["partible"] is False:
            return []
        # The bump breaks the symmetry around the built center only: a
        # low-degree operator can still have another center, so the one
        # reported must satisfy the symmetry, checked here from the
        # built coefficients.
        if data["partible"] is not True or data.get("d") != check["d"]:
            return [f"unexpected answer for a broken symmetry: {data}"]
        if not _symmetric(check["coeffs"], Fraction(data["gamma"]), check["d"]):
            return [f"reported center {data['gamma']} is not a symmetry center: {data}"]
        return []

    def reduce(self, check, stdout, ops):
        data = json.loads(stdout)
        pt = self.pt
        L, prof = self.operator(check["operator"])
        result = pt.ReductionResult(
            pt.parse_polynomial(data["x"]),
            {int(s): Fraction(c) for s, c in data["exceptional"].items()},
            pt.parse_polynomial(data["remainder"]),
        )
        if result.reassemble(L, prof) != pt.parse_polynomial(check["poly"]):
            return ["reduction does not reassemble"]
        if not result.remainder.is_zero and result.remainder.degree >= prof.d:
            return [f"remainder degree {result.remainder.degree} >= d = {prof.d}"]
        if not set(result.exceptional) <= prof.roots:
            return [f"exceptional degrees {sorted(result.exceptional)} not indicator roots"]
        return []

    def guess(self, check, stdout, ops):
        terms = [int(t) for t in json.loads(Path(check["terms"]).read_text())]
        if stdout.strip() == "none":
            return [] if check["family"] == "random" else ["no operator for definition terms"]
        L = self.pt.operator_from_dict(json.loads(stdout))
        if not self.pt.annihilates(L, terms):
            return ["guessed operator does not annihilate the terms"]
        if check["family"] == "random":
            return ["random integers got an operator"]
        family = ("apery", None) if check["family"] == "apery" else ("delannoy_poly", check["z"])
        if L != self.pt.builtin(*family).annihilator:
            return ["guess differs from the built-in operator"]
        return []


def _symmetric(coeffs, gamma, d):
    """a_i(k + gamma) = (-1)^d a_{J-i}(gamma - J - k) for every i, coefficients in k."""
    J = len(coeffs) - 1
    sign = -1 if d % 2 else 1
    return all(_compose_linear(coeffs[i], 1, gamma)
               == [sign * c for c in _compose_linear(coeffs[J - i], -1, gamma - J)]
               for i in range(J + 1))


def _residue(q, modulus):
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def _apery_congruence(r, c, p):
    """sum_{k<p} (2k+1)^(2r+1) A_k == c_r p (mod p^3), terms from the definition."""
    m = p ** 3
    lhs = sum(pow(2 * k + 1, 2 * r + 1, m) * a for k, a in enumerate(apery(p))) % m
    return lhs == _residue(c * p, m)


def _delannoy_congruence(r, c, z, p):
    """sum_{k<p} (2k+1)^(2r+2) D_k(z) == c_r(z) sum_{k<p} D_k(z) (mod p)."""
    terms = delannoy(p, z)
    lhs = sum(pow(2 * k + 1, 2 * r + 2, p) * t for k, t in enumerate(terms)) % p
    return lhs == _residue(c, p) * sum(terms) % p
