"""The four workloads: seeded inputs, one round of operations, output checks.

Each workload is a closed loop: one client in one process sends the next
operation when the last returns.  A round is a fixed list of operations on
inputs drawn from the seed; every round of a run repeats the same inputs,
so the share of failed operations is the same in every run.  Checks run on
the first round's outputs and compare against `reference` (computed apart
from the program) or against a property the method must have.
"""

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref

# Coefficients: (p + p' i) / 5 with {|p|, |p'|} one of PARTS and random signs,
# so |c|^2 is 1, 1.28 or 1.8 and every draw has the same height; the cost of
# exact arithmetic then barely depends on the seed.  |ab| >= 1 keeps the
# n = 20 pair gap (5e-46 or more) resolvable at the 320-bit default;
# |c| <= sqrt(2) keeps every disc of the (R, S) = (2, 3) spectra localized.
PARTS = ((3, 4), (4, 3), (3, 6), (6, 3), (4, 4))
DENOMINATOR = 5


def draw_coefficient(rng):
    p, q = rng.choice(PARTS)
    return (Fraction(rng.choice((-p, p)), DENOMINATOR), Fraction(rng.choice((-q, q)), DENOMINATOR))


# Relative tolerances of the leading-order checks.  Over the coefficient
# family, t_n (and c1) is at most 2.3e-5 off the leading modulus power
# max(|a/b|, |b/a|)^n for R = S, and the refined gap at most 0.24% off
# 8|ab|^(n/2) / (4^n ((n-1)!)^2), at n = 6; the a = 1, b = 2 preset's gap is
# 0.3% off at n = 6.
LEAD_TOL = 1e-3
GAP_TOL = 0.01


@dataclass
class Op:
    kind: str
    label: str
    call: Callable
    probe: bool = False  # a known fault: attempted and failed, timed apart
    op_id: int = 0  # set per round when traced


def _gaussian(hw, c):
    return hw.GaussianRational(c[0], c[1])


def _exact(g):
    return (g.re, g.im)


def _close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _threshold_rule(ts, divergence=1e3, cap=1e2, points=3):
    """The verdict rule on the printed t values (the program applies it to
    exact squares; floats decide the same away from the thresholds)."""
    tail = ts[-points:]
    if max(ts) > divergence and all(tail[i] < tail[i + 1] for i in range(points - 1)):
        return "no-basis"
    return "contains-basis" if all(t <= cap for t in ts) else "inconclusive"


# -- exact-sums ---------------------------------------------------------------


class ExactSums:
    """Criterion-1 verdicts and beta/alpha table rows; exact arithmetic only."""

    N_MAX = 40
    FAMILY_13 = tuple(3 * m - 1 for m in range(2, 11))  # n = s m - 1, s = 3
    # (n, step cap): the four cap-16 rows cost about the same, so the printed
    # beta_row median falls among four samples of a round, not on one
    ROWS = ((5, 8), (11, 12), (23, 16), (47, 16), (95, 16), (191, 16))
    CAPS = (3, 2)

    def __init__(self, hw, rng):
        self.hw = hw
        self.c11 = (draw_coefficient(rng), draw_coefficient(rng))
        self.c13 = (draw_coefficient(rng), draw_coefficient(rng))
        self.pot11, self.par11 = hw.two_term(*(_gaussian(hw, c) for c in self.c11), 1, 1)
        self.pot13, self.par13 = hw.two_term(*(_gaussian(hw, c) for c in self.c13), 1, 3)

    def describe(self):
        return f"(R,S)=(1,1) a,b={self.c11}; (R,S)=(1,3) a,b={self.c13}"

    def ops(self):
        hw = self.hw
        out = []
        for parity in ("even", "odd"):
            iset = hw.IndexSet("R-multiples", 1, self.N_MAX, parity=parity)
            out.append(Op("verdict", f"verdict(1,1) {parity} n<={self.N_MAX}",
                          lambda i=iset: hw.criterion1_verdict(self.pot11, self.par11, i)))
        family = hw.IndexSet("explicit", min(self.FAMILY_13), max(self.FAMILY_13),
                             explicit=self.FAMILY_13)
        out.append(Op("verdict", "verdict(1,3) n=3m-1",
                      lambda: hw.criterion1_verdict(self.pot13, self.par13, family)))
        for n, cap in self.ROWS:
            out.append(Op("beta_row", f"row n={n} step_cap={cap}", lambda n=n, cap=cap: (
                hw.beta_plus(self.pot13, self.par13, n, shell_cap=self.CAPS[0]),
                hw.beta_minus(self.pot13, self.par13, n, shell_cap=self.CAPS[1]),
                hw.alpha_n(self.pot13, n, step_cap=cap))))
        return out

    def _check_verdict(self, label, verdict, coeffs, R, S, ns):
        a, b = coeffs
        bad = []
        ts = []
        if [row["n"] for row in verdict.rows] != list(ns):
            return [f"{label}: rows {[row['n'] for row in verdict.rows]} != {list(ns)}"]
        for row in verdict.rows:
            n = row["n"]
            bp = ref.crossing_sum(a, b, R, S, n, "X", self.CAPS[0])
            bm = ref.crossing_sum(a, b, R, S, n, "Y", self.CAPS[1])
            q = ref.cabs2(bm) / ref.cabs2(bp)
            t_ref = math.sqrt(max(q, 1 / q))
            if row["class"] != "delta1" or not _close(row["t"], t_ref, 1e-12):
                bad.append(f"{label}: n={n} t={row['t']} != reference {t_ref}")
            if R == S:
                ratio = math.sqrt(max(ref.cabs2(a) / ref.cabs2(b), ref.cabs2(b) / ref.cabs2(a)))
                lead = ratio ** (n // R)
                if not _close(row["t"], lead, LEAD_TOL):
                    bad.append(f"{label}: n={n} t={row['t']} strays from leading power {lead}")
            ts.append(row["t"])
        want = _threshold_rule(ts)
        if verdict.conclusion != want:
            bad.append(f"{label}: conclusion {verdict.conclusion} != threshold rule {want}")
        return bad

    def check(self, results):
        hw = self.hw
        bad = []
        for label, verdict in results.items():
            if label.startswith("verdict(1,1)"):
                parity = 0 if "even" in label else 1
                ns = [n for n in range(1, self.N_MAX + 1) if n % 2 == parity]
                bad += self._check_verdict(label, verdict, self.c11, 1, 1, ns)
            elif label.startswith("verdict(1,3)"):
                bad += self._check_verdict(label, verdict, self.c13, 1, 3, self.FAMILY_13)
        a, b = self.c13
        for n, cap in self.ROWS:
            label = f"row n={n} step_cap={cap}"
            if label not in results:
                continue
            bp, bm, al = results[label]
            want = (ref.crossing_sum(a, b, 1, 3, n, "X", self.CAPS[0]),
                    ref.crossing_sum(a, b, 1, 3, n, "Y", self.CAPS[1]),
                    ref.closed_sum(a, b, 1, 3, n, cap))
            for name, got, exp in zip(("beta+", "beta-", "alpha"), (bp, bm, al), want):
                if _exact(got.value) != exp:
                    bad.append(f"{label}: {name} differs from the reference walk sum")
            if n <= 11:  # the lattice DP and closed-walk DP against enumeration
                brute = (ref.crossing_sum(a, b, 1, 3, n, "X", self.CAPS[0], ref.brute_shell),
                         ref.crossing_sum(a, b, 1, 3, n, "Y", self.CAPS[1], ref.brute_shell),
                         ref.brute_closed(a, b, 1, 3, n, cap))
                if brute != want:
                    bad.append(f"{label}: walk enumeration disagrees with the reference DP")
            # shell 0 against the paper's closed forms, n = 3m - 1
            m = (n + 1) // 3
            x0 = hw.shell_sum(self.par13, n, hw.WalkKind.X, 0, 0)
            y0 = hw.shell_sum(self.par13, n, hw.WalkKind.Y, 0, 0)
            if _exact(x0) != ref.x_shell0_closed(a, b, 3, m):
                bad.append(f"{label}: X shell 0 != a b^m (H+ - H-)")
            if _exact(y0) != ref.y_shell0_closed(a, n):
                bad.append(f"{label}: Y shell 0 != a^n / (4^(n-1) ((n-1)!)^2)")
            if n <= 11:
                h_plus, h_minus = ref.boundary_weights(3, m)
                if ref.brute_shell(1, 3, n, "X", 1, m) != h_plus - h_minus:
                    bad.append(f"{label}: enumerated X shell 0 != H+ - H-")
        return bad


# -- dense-spectra ------------------------------------------------------------


class DenseSpectra:
    """Spectrum jobs: per+ and per- by the working-N scan, Dirichlet mu on per+."""

    R, S = 2, 3
    # one job per K, each with its own potential; the two K=128 jobs put the
    # printed spectrum median among the K=128 samples.  per+ at K = 256 exceeds
    # MAX_DIM = 512, so 255 is the top.
    KS = (64, 128, 128, 255)
    N_MAX = 16
    TRACE_K = 64  # trace and reflection checks re-solve at this K

    def __init__(self, hw, rng):
        self.hw = hw
        self.coeffs = [(draw_coefficient(rng), draw_coefficient(rng)) for _ in self.KS]
        self.pots = [hw.two_term(*(_gaussian(hw, c) for c in ab), self.R, self.S)[0]
                     for ab in self.coeffs]
        self.labels = [f"spectrum #{i} K={K}" for i, K in enumerate(self.KS)]

    def describe(self):
        return f"(R,S)=({self.R},{self.S}) a,b per job (K={self.KS}): {self.coeffs}"

    def ops(self):
        hw = self.hw

        def job(pot, K):
            _, plus = hw.find_working_N(pot, "per+", K, self.N_MAX)
            plus = hw.attach_dirichlet(plus, pot, K)
            _, minus = hw.find_working_N(pot, "per-", K, self.N_MAX)
            return plus, minus

        return [Op("spectrum", label, lambda pot=pot, K=K: job(pot, K))
                for label, pot, K in zip(self.labels, self.pots, self.KS)]

    def check(self, results):
        hw = self.hw
        bad = []
        for label, pot, (a, b), K in zip(self.labels, self.pots, self.coeffs, self.KS):
            if label not in results:
                continue
            coeffs = ref.coefficient_map(a, b, self.R, self.S)
            eigs = {bc: np.linalg.eigvals(ref.matrix(coeffs, bc, K))
                    for bc in ("per+", "per-", "dirichlet")}
            plus, minus = results[label]
            for bc, res in (("per+", plus), ("per-", minus)):
                want = [n for n in range(res.N + 1, self.N_MAX + 1) if n % 2 == (bc == "per-")]
                if [p.n for p in res.pairs] != want:
                    bad.append(f"{label} {bc}: discs {[p.n for p in res.pairs]} != {want}")
                for p in res.pairs:
                    inside = sorted((w for w in eigs[bc] if abs(w - p.n ** 2) < 1),
                                    key=lambda w: (w.real, w.imag))
                    if len(inside) != 2:
                        bad.append(f"{label} {bc}: disc n={p.n} holds {len(inside)} eigenvalues")
                        continue
                    if abs(inside[0] - p.lam_minus) > 1e-9 or abs(inside[1] - p.lam_plus) > 1e-9:
                        bad.append(f"{label} {bc}: pair n={p.n} differs from the reference matrix")
                    if bc == "per+":
                        mus = [w for w in eigs["dirichlet"] if abs(w - p.n ** 2) < 1]
                        if len(mus) != 1 or abs(mus[0] - p.mu) > 1e-9:
                            bad.append(f"{label}: mu at n={p.n} differs from the reference matrix")
            if K != self.TRACE_K:
                continue
            mirror, _ = hw.two_term(_gaussian(hw, b), _gaussian(hw, a), self.S, self.R)
            for bc in ("per+", "per-", "dirichlet"):
                got = hw.eigenvalues(hw.assemble(pot, bc, K))
                scale = max(abs(w) for w in got)
                err = abs(sum(got) - ref.trace(coeffs, bc, K))
                if err > 1e-14 * len(got) * scale:
                    bad.append(f"{label} {bc}: eigenvalue sum off the trace by {err:.3g}")
                if bc == "dirichlet":
                    continue
                # distance between the two spectra as sets, whatever their order
                flipped = hw.eigenvalues(hw.assemble(mirror, bc, K))
                dist = np.abs(np.array(got)[:, None] - np.array(flipped)[None, :])
                err = max(dist.min(axis=0).max(), dist.min(axis=1).max())
                if err > 1e-14 * len(got) * scale:
                    bad.append(f"{label} {bc}: spectrum moves under (a,R)<->(b,S) by {err:.3g}")
        return bad


# -- refine-concordance -------------------------------------------------------


def check_concordance_rows(label, rows, a, b, ns):
    """Concordance rows against the leading gap and modulus-ratio power."""
    bad = []
    if [row["n"] for row in rows] != list(ns):
        return [f"{label}: rows {[row['n'] for row in rows]} != {list(ns)}"]
    ratio = math.sqrt(max(ref.cabs2(a) / ref.cabs2(b), ref.cabs2(b) / ref.cabs2(a)))
    for row in rows:
        n = row["n"]
        lead = ref.gap_leading(a, b, n)
        if not abs(row["gap"] - lead) <= GAP_TOL * lead:
            bad.append(f"{label}: n={n} gap {row['gap']:.6g} vs leading {lead:.6g}")
        if not _close(row["c1"], ratio ** n, LEAD_TOL):
            bad.append(f"{label}: n={n} c1 {row['c1']} strays from {ratio ** n}")
        if not _close(row["c2"], row["c1"], 1e-6):
            bad.append(f"{label}: n={n} c2 {row['c2']} far from c1 {row['c1']}")
        if not (row["c3"] > 0 and math.isfinite(row["c3"])):
            bad.append(f"{label}: n={n} c3 {row['c3']} not positive and finite")
    return bad


class RefineConcordance:
    """Three-criteria reports with 320-bit pair refinement, plus the n=22 probe.

    The per+/per- spectrum for bands at -2 and 2 depends on a and b only
    through ab.  When ab is real the refined midpoint z* is real in exact
    arithmetic, and its computed imaginary part is either 0 or a denormal
    such as 2e-314, depending on rounding; with a denormal, criterion 2
    sums walks at a point with a ~1074-bit denominator and the report costs
    several times as much.  Seeded draws therefore have ab not real, and
    every round adds one fixed pair, REAL_AB, on which the denormal shows,
    so the cost of a round does not depend on the seed."""

    NS = tuple(range(6, 21, 2))
    SEEDED_PAIRS = 2
    REAL_AB = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(-3, 5), Fraction(-4, 5)))  # ab = -1
    PROBE = (1, 2, 22)  # a, b, n: not a simple pair at the 320-bit default

    def __init__(self, hw, rng):
        self.hw = hw
        self.coeffs = [self.REAL_AB]
        while len(self.coeffs) < 1 + self.SEEDED_PAIRS:
            a, b = draw_coefficient(rng), draw_coefficient(rng)
            if a[0] * b[1] + a[1] * b[0] != 0:  # Im(ab) != 0
                self.coeffs.append((a, b))

    def describe(self):
        return f"(R,S)=(1,1) a,b pairs: {self.coeffs}"

    def ops(self):
        """One operation is one report at one n: a round holds 24 of them, so
        the median rests on many samples even when a round takes 10 s."""
        hw = self.hw
        out = [Op("concordance", f"concordance #{i} n={n}", lambda a=a, b=b, n=n:
                  hw.concordance_report(_gaussian(hw, a), _gaussian(hw, b), ns=(n,)))
               for i, (a, b) in enumerate(self.coeffs) for n in self.NS]
        a, b, n = self.PROBE
        out.append(Op("probe", f"probe n={n}",
                      lambda: hw.concordance_report(a, b, ns=(n,)), probe=True))
        return out

    def check(self, results):
        bad = []
        for i, (a, b) in enumerate(self.coeffs):
            for n in self.NS:
                label = f"concordance #{i} n={n}"
                if label in results:
                    bad += check_concordance_rows(label, results[label].rows, a, b, (n,))
        a, b, n = self.PROBE
        label = f"probe n={n}"
        if label in results:  # the fault is mended: hold it to the same checks
            one, two = (Fraction(a), Fraction(0)), (Fraction(b), Fraction(0))
            bad += check_concordance_rows(label, results[label].rows, one, two, (n,))
        return bad


# -- cli-presets --------------------------------------------------------------


class CliPresets:
    """Cold `python -m hillwalk` commands; the seed fixes their order."""

    COMMANDS = {
        "thm31": ["verdict", "--preset", "thm31"],
        "thm5": ["verdict", "--preset", "thm5"],
        "prop20": ["verdict", "--preset", "prop20"],
        "crit-compare": ["verdict", "--preset", "crit-compare"],
        "verify": ["verify"],
    }
    # analytic rules: band-ratio collapse refuses a basis (thm31 under per+,
    # thm5 always); prop20 has even R = 2 under per-, so a basis is automatic
    CONCLUSIONS = {"thm31": "no-basis", "thm5": "no-basis", "prop20": "contains-basis"}

    def __init__(self, hw, rng, root, in_process=False):
        self.hw = hw
        self.root = root
        self.in_process = in_process
        self.order = sorted(self.COMMANDS)
        rng.shuffle(self.order)

    def describe(self):
        return f"command order {self.order}"

    def _cold(self, args):
        proc = subprocess.run([sys.executable, "-m", "hillwalk", *args], cwd=self.root,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode()

    def _warm(self, args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.hw.cli.main(args)
        return code, buf.getvalue()

    def ops(self):
        run = self._warm if self.in_process else self._cold
        return [Op("cli", name, lambda a=self.COMMANDS[name]: run(a)) for name in self.order]

    def check(self, results):
        bad = []
        for name, (code, out) in results.items():
            if code != 0:
                bad.append(f"{name}: exit code {code}")
                continue
            if name == "verify":
                lines = out.splitlines()
                if lines[-1:] != ["33/33 checks passed"] or not all(
                        line.startswith("PASS ") for line in lines[:-1]):
                    bad.append(f"verify: {lines[-1:]}")
                continue
            try:
                payload = json.loads(out)
            except json.JSONDecodeError as err:
                bad.append(f"{name}: output is not JSON ({err})")
                continue
            if name in self.CONCLUSIONS and payload.get("conclusion") != self.CONCLUSIONS[name]:
                bad.append(f"{name}: conclusion {payload.get('conclusion')}")
            if name == "crit-compare":  # the preset is a = 1, b = 2 at n = 6..12
                one, two = (Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))
                bad += check_concordance_rows(name, payload["rows"], one, two, (6, 8, 10, 12))
        return bad


def cold_samples(root):
    """One cold interpreter start and one in-child `import hillwalk` time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True, timeout=60)
    interpreter = time.perf_counter() - t0
    code = ("import time; t = time.perf_counter(); import hillwalk; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          check=True, timeout=60)
    return interpreter, float(proc.stdout)


WORKLOADS = {
    "exact-sums": ExactSums,
    "dense-spectra": DenseSpectra,
    "refine-concordance": RefineConcordance,
    "cli-presets": CliPresets,
}
