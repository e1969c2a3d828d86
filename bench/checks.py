"""Independent checkers for the answers the benchmark gets from eczero.

Nothing here imports eczero.  Every fact is recomputed from the curve
coefficients with this file's own arithmetic (Euler-criterion counts,
Fraction and Jacobian group laws, a brute-force point search) or tested
against a property the answer must have (Hasse bound, [#E]Q = O, the CM
trace forms, v(t([p]P)) = t_valuation + 1).  A wrong answer raises
CheckFailed with the reason.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

# Mazur: rational torsion orders are at most 12.
TORSION_BOUND = 12

MIDDLE = "MiddleTermZpSquared"
BRAUER = "BrauerPVanishes"
EXACT = "UnconditionalExactness"


class CheckFailed(Exception):
    """An answer from the program disagrees with an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- integers ---------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# --- curves over F_p ----------------------------------------------------------


def euler_count(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b, one Euler criterion per x."""
    e = (p - 1) // 2
    total = p + 1
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r:
            total += 1 if pow(r, e, p) == 1 else -1
    return total


def fp_sqrt(r: int, p: int) -> int:
    """A square root of the residue r modulo the odd prime p (Tonelli-Shanks)."""
    r %= p
    if r == 0:
        return 0
    if p % 4 == 3:
        return pow(r, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, y = s, pow(z, q, p), pow(r, q, p), pow(r, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        bb = pow(c, 1 << (m - i - 1), p)
        m, c = i, bb * bb % p
        t, y = t * c % p, y * bb % p
    return y


def fp_mul(k: int, P, a: int, p: int):
    """[k]P in affine coordinates over F_p; None is the identity."""

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    R = None
    while k:
        if k & 1:
            R = add(R, P)
        P = add(P, P)
        k >>= 1
    return R


def random_fp_point(a: int, b: int, p: int, rng: random.Random):
    while True:
        x = rng.randrange(p)
        r = (x * x * x + a * x + b) % p
        if r and legendre(r, p) == 1:
            return x, fp_sqrt(r, p)


def fp_twist(a: int, b: int, p: int) -> tuple[int, int]:
    g = 2
    while legendre(g, p) != -1:
        g += 1
    return a * g * g % p, b * g**3 % p


def cm_trace_ok(D: int, p: int, ap: int) -> bool:
    """a_p of a curve with CM by the maximal order of Q(sqrt(D)) at a good p.

    Inert p gives a_p = 0; split p gives 4p - a_p^2 = |D| v^2.
    """
    if legendre(D, p) == -1:
        return ap == 0
    rest = 4 * p - ap * ap
    return rest % -D == 0 and is_square(rest // -D)


def check_trace(a: int, b: int, p: int, kind: str, anomalous: bool, trace, cm_disc,
                rng: random.Random, points: int = 2) -> None:
    """One classification at a good prime p, checked by properties."""
    label = f"y^2 = x^3 + {a}x + {b} at p = {p}"
    require((4 * a**3 + 27 * b**2) % p != 0, f"{label}: benchmark chose a bad prime")
    require(trace is not None, f"{label}: good prime reported without a trace")
    require(trace * trace <= 4 * p, f"{label}: a_p = {trace} breaks the Hasse bound")
    want_kind = "good supersingular" if trace == 0 else "good ordinary"
    require(kind == want_kind, f"{label}: kind {kind!r} but a_p = {trace}")
    require(anomalous == (trace == 1), f"{label}: anomalous={anomalous} but a_p = {trace}")
    for n, (ca, cb) in ((p + 1 - trace, (a % p, b % p)), (p + 1 + trace, fp_twist(a, b, p))):
        for _ in range(points):
            Q = random_fp_point(ca, cb, p, rng)
            require(fp_mul(n, Q, ca, p) is None, f"{label}: [{n}]{Q} != O")
    if cm_disc is not None:
        require(cm_trace_ok(cm_disc, p, trace), f"{label}: a_p = {trace} breaks the CM form for D = {cm_disc}")


def reduction_flags(a: int, b: int, p: int, D: int) -> tuple[bool, bool, bool]:
    """(good, anomalous, splits) at p >= 5 from the benchmark's own counts."""
    while a % p**4 == 0 and b % p**6 == 0:
        a //= p**4
        b //= p**6
    good = (4 * a**3 + 27 * b**2) % p != 0
    anomalous = good and euler_count(a, b, p) == p
    return good, anomalous, legendre(D, p) == 1


# --- curves over Q -------------------------------------------------------------


def on_curve(a: int, b: int, x: Fraction, y: Fraction) -> bool:
    return y * y == x * x * x + a * x + b


def q_add(P, Q, a: int):
    """Chord-tangent sum over Q with Fractions; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def has_infinite_order(a: int, b: int, x: Fraction, y: Fraction) -> bool:
    """Nagell-Lutz on the integral model, else [m]P != O for m <= 12."""
    if x.denominator != 1 or y.denominator != 1:
        return True
    if y == 0:
        return False
    if (4 * a**3 + 27 * b**2) % (y.numerator**2) != 0:
        return True
    R = (x, y)
    for _ in range(TORSION_BOUND - 1):
        R = q_add(R, (x, y), a)
        if R is None:
            return False
    return True


def check_infinite_order(a: int, b: int, x: Fraction, y: Fraction, label: str) -> None:
    require(on_curve(a, b, x, y), f"{label}: ({x}, {y}) is not on y^2 = x^3 + {a}x + {b}")
    require(has_infinite_order(a, b, x, y), f"{label}: ({x}, {y}) is a torsion point")


def _height_key(P):
    x, y = P
    return max(abs(x.numerator), x.denominator), x, y


def box_points(a: int, b: int, height: int) -> list:
    """Every rational point with x = m/e^2, gcd(m, e) = 1, |m| <= H, e <= sqrt(H)."""
    hits = []
    ms = np.arange(-height, height + 1, dtype=np.int64)
    sq128 = np.zeros(128, dtype=bool)
    sq128[(np.arange(128) ** 2) % 128] = True
    modulus = 45045  # 9 * 5 * 7 * 11 * 13
    sqm = np.zeros(modulus, dtype=bool)
    sqm[(np.arange(modulus, dtype=np.int64) ** 2) % modulus] = True
    for e in range(1, isqrt(height) + 1):
        e4, e6 = e**4, e**6
        if height**3 + abs(a) * e4 * height + abs(b) * e6 >= 1 << 62:
            cands = range(-height, height + 1)
        else:
            t = ms**3 + (a * e4) * ms + b * e6
            keep = (t >= 0) & sq128[t & 127]
            keep[keep] &= sqm[t[keep] % modulus]
            cands = ms[keep].tolist()
        for m in cands:
            if e > 1 and gcd(m, e) != 1:
                continue
            t = m**3 + a * e4 * m + b * e6
            if t < 0:
                continue
            s = isqrt(t)
            if s * s == t:
                x, y = Fraction(m, e * e), Fraction(s, e**3)
                hits.append((x, y))
                if s:
                    hits.append((x, -y))
    hits.sort(key=_height_key)
    return hits


def smallest_infinite_order_point(a: int, b: int, height: int):
    for x, y in box_points(a, b, height):
        if has_infinite_order(a, b, x, y):
            return x, y
    return None


def check_search(a: int, b: int, height: int, status: str, gen, label: str) -> None:
    """The reported point is the box's smallest infinite-order point; unknown means none."""
    want = smallest_infinite_order_point(a, b, height)
    if status == "unknown":
        require(want is None, f"{label}: reported unknown but {want} is in the box")
    else:
        require(status == "found", f"{label}: unexpected generator status {status!r}")
        require(gen == want, f"{label}: reported {gen}, smallest infinite-order point is {want}")


# --- formal group ------------------------------------------------------------------


def _jacobian_mul(k: int, P, a: int, mod: int):
    """[k]P in Jacobian coordinates over Z/mod, with exact-zero guards."""

    def dbl(P):
        X, Y, Z = P
        if Y == 0:
            raise _LowPrecision
        S = 4 * X * Y * Y % mod
        M = (3 * X * X + a * pow(Z, 4, mod)) % mod
        X3 = (M * M - 2 * S) % mod
        return X3, (M * (S - X3) - 8 * pow(Y, 4, mod)) % mod, 2 * Y * Z % mod

    def add(P, Q):
        if P is None:
            return Q
        X1, Y1, Z1 = P
        X2, Y2, Z2 = Q
        U1, U2 = X1 * Z2 * Z2 % mod, X2 * Z1 * Z1 % mod
        S1, S2 = Y1 * pow(Z2, 3, mod) % mod, Y2 * pow(Z1, 3, mod) % mod
        H, r = (U2 - U1) % mod, (S2 - S1) % mod
        if H == 0:
            raise _LowPrecision
        H2 = H * H % mod
        H3 = H2 * H % mod
        X3 = (r * r - H3 - 2 * U1 * H2) % mod
        return X3, (r * (U1 * H2 - X3) - S1 * H3) % mod, H * Z1 * Z2 % mod

    R = None
    while k:
        if k & 1:
            R = add(R, P)
        k >>= 1
        if k:
            P = dbl(P)
    return R


class _LowPrecision(Exception):
    pass


def t_valuation_of_multiple(a: int, b: int, p: int, x: Fraction, y: Fraction) -> int:
    """v(t([p]P)) with t = -x/y, from Jacobian arithmetic modulo p^N.

    The Jacobian formulas are polynomial, so working modulo p^N gives the
    exact integer coordinates modulo p^N; v(X) + v(Z) - v(Y) does not
    depend on the Jacobian scaling, and N is doubled until all three
    valuations are below it.
    """
    Z = x.denominator * y.denominator
    X = x.numerator * x.denominator * y.denominator**2
    Y = y.numerator * x.denominator**3 * y.denominator**2
    N = 64
    while N <= 4096:
        mod = p**N
        try:
            R = _jacobian_mul(p, (X % mod, Y % mod, Z % mod), a % mod, mod)
        except _LowPrecision:
            N *= 2
            continue
        if R is not None and all(c % mod for c in R):
            vx, vy, vz = (valuation(c % mod, p) for c in R)
            return vx + vz - vy
        N *= 2
    raise CheckFailed(f"[{p}]({x}, {y}) could not be resolved modulo p^4096")


def check_t_valuation(a: int, b: int, p: int, x: Fraction, y: Fraction, tval, label: str) -> None:
    """v(t([p]P)) = t_valuation + 1 at an anomalous prime p >= 5."""
    got = t_valuation_of_multiple(a, b, p, x, y)
    require(got >= 1, f"{label}: [{p}]P is not in the kernel of reduction")
    require(tval == got - 1, f"{label}: t_valuation {tval}, but v(t([p]P)) = {got}")


# --- survey rows and reports ---------------------------------------------------------


def expected_verdicts(eligible: bool, tval) -> list[str]:
    if not eligible:
        return []
    return [MIDDLE, BRAUER] + ([EXACT] if tval == 1 else [])


def point_of(gen) -> tuple[Fraction, Fraction]:
    xn, xd, yn, yd = gen
    return Fraction(xn, xd), Fraction(yn, yd)


def check_row(row: dict, p: int, D: int, label: str) -> None:
    """Flags, generator order, t_valuation and verdicts of one report row."""
    a, b = row["A"], row["B"]
    require(row["error"] is None, f"{label}: row error {row['error']!r}")
    good, anomalous, splits = reduction_flags(a, b, p, D)
    got = (row["good_p"], row["anomalous"], row["splits"])
    require(got == (good, anomalous, splits), f"{label}: flags {got}, expected {(good, anomalous, splits)}")
    eligible = good and anomalous and splits
    tval = row["t_valuation"]
    if row["generator"] == "unknown":
        require(row["gen"] is None, f"{label}: unknown generator with a point attached")
    else:
        require(row["gen"] is not None, f"{label}: {row['generator']} generator missing")
        x, y = point_of(row["gen"])
        check_infinite_order(a, b, x, y, label)
        if eligible:
            check_t_valuation(a, b, p, x, y, tval, label)
    if not (eligible and row["gen"] is not None):
        require(tval is None and row["formal_nontrivial"] is None,
                f"{label}: decomposition reported where none can run")
    else:
        require(row["formal_nontrivial"] == (tval == 1),
                f"{label}: formal_nontrivial {row['formal_nontrivial']} with t_valuation {tval}")
    want = expected_verdicts(eligible, tval)
    require(row["verdicts"] == want, f"{label}: verdicts {row['verdicts']}, expected {want}")


def check_aggregate(rows: list, aggregate: dict) -> None:
    eligible = [r for r in rows if r["error"] is None and r["good_p"] and r["anomalous"] and r["splits"]]
    ran = [r for r in eligible if r["formal_nontrivial"] is not None]
    nontrivial = sum(1 for r in ran if r["formal_nontrivial"])
    want = {
        "eligible": len(eligible),
        "with_generator": len(ran),
        "nontrivial": nontrivial,
        "fraction": f"{nontrivial}/{len(ran)}" if ran else None,
        "generator_unknown": sum(1 for r in eligible if r["generator"] == "unknown"),
        "errors": sum(1 for r in rows if r["error"] is not None),
    }
    got = {k: aggregate.get(k) for k in want}
    require(got == want, f"aggregate {got}, rows give {want}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def check_csv_matches_json(csv_text: str, json_payload: dict) -> None:
    """The CSV report carries the same rows and aggregate as the JSON one."""
    lines = csv_text.splitlines()
    require(len(lines) >= 2 and lines[-1].startswith("# aggregate "), "CSV report has no aggregate line")
    body = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))
    rows = json_payload["rows"]
    require(len(body) == len(rows) + 1, f"CSV has {len(body) - 1} rows, JSON has {len(rows)}")
    for cells, row in zip(body[1:], rows):
        want = [_cell(row["n"]), row["label"], _cell(row["good_p"]), _cell(row["anomalous"]),
                _cell(row["splits"]), row["generator"], _cell(row["formal_nontrivial"]),
                ";".join(row["verdicts"])]
        require(cells == want, f"CSV row {cells} differs from JSON row {want}")
    agg = json_payload["aggregate"]
    for key in ("eligible", "with_generator", "nontrivial", "fraction", "generator_unknown"):
        require(f"{key}={agg[key]}" in lines[-1], f"CSV aggregate line lacks {key}={agg[key]}")


def check_twin(long_row: dict, short_row: dict, label: str) -> None:
    """A long-model twin reports the same row as its short model, scaled by u = 1/6."""
    same = ("good_p", "anomalous", "splits", "generator", "formal_nontrivial", "t_valuation", "verdicts")
    for key in same:
        require(long_row[key] == short_row[key],
                f"{label}: {key} {long_row[key]!r} differs from the short twin's {short_row[key]!r}")
    require((long_row["A"], long_row["B"]) == (6**4 * short_row["A"], 6**6 * short_row["B"]),
            f"{label}: model ({long_row['A']}, {long_row['B']}) is not the short twin scaled by 6")
    x, y = point_of(short_row["gen"])
    require(point_of(long_row["gen"]) == (36 * x, 216 * y),
            f"{label}: generator {long_row['gen']} is not the short twin's scaled by 6")


def rejected_lines(stderr_text: str) -> list[int]:
    out = []
    for line in stderr_text.splitlines():
        if line.startswith("ingest line "):
            out.append(int(line[len("ingest line "):].split(":", 1)[0]))
    return out


def check_rejected(stderr_text: str, planted: list[int], label: str) -> None:
    got = rejected_lines(stderr_text)
    require(got == sorted(planted), f"{label}: rejected lines {got}, planted {sorted(planted)}")
