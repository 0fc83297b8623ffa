"""Command-line front end.

Four subcommands: `beta` tabulates the walk functionals, `spectrum`
dumps localized eigenvalue pairs, `verdict` emits a basis verdict as
JSON, and `verify` runs the built-in identity suite.  Configuration
merges three layers, later winning: built-in preset, --config JSON
file, command-line flags.  Outputs are byte-stable for identical
configs; rationals serialize as 'p/q' strings and complex values as
{re, im} objects."""

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .beta import (
    alpha_n,
    beta_equal_rs_leading_exact,
    beta_minus,
    beta_plus,
    beta_plus_leading_exact,
)
from .criteria import (
    DegenerateRatioError,
    IndexSet,
    concordance_report,
    criterion1_verdict,
    prop20_verdict,
    theorem31_report,
    theorem5_report,
)
from .numerics import MIN_PRECISION, GaussianRational, printed
from .potential import TwoTermParams, _scalar_from_json, parse_potential, potential_to_json
from .spectra import (
    BoundaryCondition,
    ConvergenceError,
    DirichletUniquenessError,
    LocalizationError,
    MAX_K,
    REFINE_PRECISION,
    disc_reach,
    find_working_N,
    spectrum_csv,
)
from .verify import run_verify
from .walks import DEFAULT_SHELL_CAPS, WalkSingularityError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_SINGULARITY = 2
EXIT_LOCALIZATION = 3
EXIT_CRITERIA = 4
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad flags, bad config, or bad literals; exits with code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# built-in configs; every headline run is one command
PRESETS = {
    "thm31": {
        "report": "ratio-collapse",
        "potential": {"a": "1", "b": "1", "R": 1, "S": 3},
        "bc": "per+",
        "m_range": [2, 6],
    },
    "thm5": {
        "report": "shifted-collapse",
        "potential": {"a": "1", "b": "1", "R": 1, "S": 3},
        "m_range": [2, 7],
    },
    "prop20": {
        "report": "equal-offsets",
        "potential": {"a": "1", "b": {"re": "0", "im": "1"}, "R": 2, "S": 2},
        "bc": "per-",
    },
    "crit-compare": {
        "report": "concordance",
        "potential": {"a": "1", "b": "2", "R": 1, "S": 1},
        "K": 32,
        "range": "6,8,10,12",
    },
}

# config keys settable by flag, each with its argparse options
_FLAGS = {
    "potential": {"help": "JSON literal: {'a','b','R','S'} or {'terms': [...]}"},
    "bc": {"choices": ["per+", "per-", "dirichlet"]},
    "K": {"type": int, "help": "Galerkin truncation half-width"},
    "precision": {"type": int, "help": "working precision in bits"},
    "delta": {"help": "index family 'kind:lo:hi[:parity]' or 'explicit:5,8,11'"},
    "range": {"help": "n values: comma list or 'lo:hi'"},
    "format": {"choices": ["json", "csv"]},
    "out": {"help": "output path; '-' or omitted for stdout"},
    "inject_error": {"action": "store_const", "const": True,
                     "help": "perturb one closed form (negative control)"},
}

# the config keys each (command, report) path reads; a key that a flag or a
# --config file sets and the chosen path does not read exits 64
_READS = {
    ("beta", None): {"potential", "range", "format", "z", "out"},
    ("spectrum", None): {"potential", "bc", "K", "range", "format", "out"},
    ("verify", None): {"inject_error", "out"},
    ("verdict", None): {"report", "potential", "delta", "out"},
    ("verdict", "ratio-collapse"): {"report", "potential", "bc", "m_range", "out"},
    ("verdict", "shifted-collapse"): {"report", "potential", "m_range", "out"},
    ("verdict", "equal-offsets"): {"report", "potential", "bc", "out"},
    ("verdict", "concordance"): {"report", "potential", "range", "K", "precision", "out"},
}


def build_parser() -> _Parser:
    # no flag prefixes: what one would mean changes whenever a flag is added or removed
    parser = _Parser(prog="hillwalk", allow_abbrev=False,
                     description="walk functionals and basis verdicts for Hill operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__, allow_abbrev=False)
        # each subcommand registers only the flags one of its paths reads
        read = set().union(*(keys for (command, _), keys in _READS.items() if command == name))
        for key in (k for k in _FLAGS if k in read):
            p.add_argument(f"--{key.replace('_', '-')}", **_FLAGS[key])
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON config file; flags override")
    return parser


def merged_config(args: argparse.Namespace) -> dict:
    given: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read config: {err}")
        except json.JSONDecodeError as err:
            raise UsageError(f"config is not valid JSON: {err}")
        if not isinstance(given, dict):
            raise UsageError("config file must hold a JSON object")
    given.update((key, getattr(args, key)) for key in _FLAGS if getattr(args, key, None) is not None)
    config = {**PRESETS.get(args.preset, {}), **given}
    report = config.get("report") if args.command == "verdict" else None
    if not (report is None or isinstance(report, str)) or (args.command, report) not in _READS:
        raise UsageError(f"unknown report kind {report!r}")
    unread = sorted(set(given) - _READS[args.command, report])
    if unread:
        where = f"the {report} report" if report else args.command
        raise UsageError(f"{where} does not read config keys {', '.join(unread)}")
    return config


# -- config readers --------------------------------------------------------


def _read_potential(config: dict):
    spec = config.get("potential")
    if spec is None:
        raise UsageError("--potential is required here")
    try:
        return parse_potential(spec)
    except (ValueError, TypeError, KeyError) as err:
        raise UsageError(f"bad potential literal: {err}")


# the least and the greatest value of each integer key, as the library bounds it
_INT_BOUNDS = {"K": (1, MAX_K), "precision": (MIN_PRECISION, None)}


def _read_int(config: dict, key: str, default: int) -> int:
    """An int within the key's bounds."""
    value = config.get(key, default)
    least, most = _INT_BOUNDS[key]
    if type(value) is not int or value < 1:  # a JSON true is no integer
        raise UsageError(f"--{key} must be a positive integer, got {value!r}")
    if value < least:
        raise UsageError(f"--{key} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise UsageError(f"--{key} must be at most {most}, got {value}")
    return value


def _read_range(config: dict, default: Optional[list] = None) -> Optional[list]:
    raw = config.get("range")
    if raw is None:
        return default
    if isinstance(raw, (list, tuple)):
        items = list(raw)
    elif isinstance(raw, str):
        raw = raw.strip()
        if ":" in raw:
            try:
                lo, hi = (int(p) for p in raw.split(":"))
            except ValueError:
                raise UsageError(f"bad range {raw!r}")
            if hi < lo:
                raise UsageError(f"bad range {raw!r}")
            items = range(lo, hi + 1)
        else:
            items = raw.split(",") if raw else []
    else:
        raise UsageError(f"bad range {raw!r}")
    try:  # str first: int() alone takes a JSON true as 1 and 2.7 as 2
        ns = [int(str(p)) for p in items]
    except ValueError:
        raise UsageError(f"bad range {raw!r}")
    if any(n < 1 for n in ns):
        raise UsageError(f"--range must hold positive integers, got {min(ns)}")
    return ns


def _read_m_range(config: dict, default: list) -> range:
    raw = config.get("m_range", default)
    if not (isinstance(raw, list) and len(raw) == 2 and all(type(m) is int for m in raw)
            and 1 <= raw[0] < raw[1]):
        raise UsageError(f"m_range must be two integers [lo, hi] with 1 <= lo < hi, got {raw!r}")
    return range(raw[0], raw[1] + 1)


def _read_bc(config: dict, default: str, use: str) -> BoundaryCondition:
    """per+ or per-: every reader of bc reads pairs, and `use` names what it does."""
    raw = config.get("bc", default)
    try:
        bc = BoundaryCondition(raw)
    except ValueError:
        raise UsageError(f"bad bc {raw!r}")
    if bc == BoundaryCondition.DIRICHLET:
        raise UsageError(f"{use} to per+ / per- only")
    return bc


def _read_z(config: dict) -> GaussianRational:
    raw = config.get("z", 0)
    try:
        return _scalar_from_json(raw)
    except (ValueError, TypeError) as err:
        raise UsageError(f"bad z literal: {err}")


def _read_delta(config: dict) -> IndexSet:
    raw = config.get("delta")
    if raw is None:
        raise UsageError("--delta is required for a first-criterion verdict")
    parts = str(raw).split(":")
    kind = parts[0]
    try:
        if kind == "explicit":
            if len(parts) < 2:
                raise ValueError("explicit needs 'explicit:5,8,11'")
            ns = tuple(int(p) for p in parts[1].split(","))
            parity = parts[2] if len(parts) > 2 else "both"
            return IndexSet(kind, min(ns), max(ns), parity=parity, explicit=ns)
        if len(parts) not in (3, 4):
            raise ValueError("expected 'kind:lo:hi[:parity]'")
        parity = parts[3] if len(parts) == 4 else "both"
        return IndexSet(kind, int(parts[1]), int(parts[2]), parity=parity)
    except ValueError as err:
        raise UsageError(f"bad delta {raw!r}: {err}")


# -- serialization ---------------------------------------------------------


def _jsonable(value):
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(text: str, config: dict) -> None:
    out = config.get("out")
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {out!r}: {err}")


def _dump(payload, config: dict) -> None:
    # a non-finite float raises ValueError (exit 4) rather than print non-JSON
    _emit(json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n", config)


# -- subcommands -----------------------------------------------------------

_BETA_COLUMNS = ("n", "beta_plus", "beta_plus_float", "beta_minus", "beta_minus_float",
                 "alpha", "alpha_float", "closed_plus")


def _float_value(g: GaussianRational):
    """Both parts of g rounded once (`printed`): a complex, or where a part is
    past the normal double range, {"re", "im"} with that part a 17-digit string."""
    parts = printed(g.re), printed(g.im)
    return complex(*parts) if all(type(part) is float for part in parts) else dict(zip(("re", "im"), parts))


def _csv_cell(value) -> str:
    if isinstance(value, dict):  # a _float_value past the double range, as repr writes a complex
        re, im = (part if isinstance(part, str) else repr(part) for part in value.values())
        return f"({re}{'' if im.startswith('-') else '+'}{im}j)"
    return "" if value is None else repr(value) if isinstance(value, (complex, float)) else str(value)


def _closed_plus(params: Optional[TwoTermParams], n: int, z: GaussianRational):
    """Exact leading closed form when one applies at (n, z=0)."""
    if params is None or not z.is_zero():
        return None
    if params.R == params.S and n % params.R == 0:
        return beta_equal_rs_leading_exact(params, "+", n // params.R)
    if params.r == 1 and params.d == 1 and params.s >= 3 and (n + 1) % params.s == 0:
        m = (n + 1) // params.s
        if m >= 1:
            return beta_plus_leading_exact(params, m)
    return None


def cmd_beta(config: dict) -> int:
    """tabulate the crossing and closed-walk sums"""
    pot, params = _read_potential(config)
    ns = _read_range(config, default=None)
    if ns is None:
        raise UsageError("--range is required: which n to tabulate")
    z = _read_z(config)
    rows = []
    for n in ns:
        bp = beta_plus(pot, params, n, z=z) if params else None
        bm = beta_minus(pot, params, n, z=z) if params else None
        al = alpha_n(pot, n, z=z)
        rows.append({
            "n": n,
            "beta_plus": bp.value if bp else None,
            "beta_plus_float": _float_value(bp.value) if bp else None,
            "beta_minus": bm.value if bm else None,
            "beta_minus_float": _float_value(bm.value) if bm else None,
            "alpha": al.value,
            "alpha_float": _float_value(al.value),
            "closed_plus": _closed_plus(params, n, z),
        })
    if config.get("format", "csv") == "json":
        _dump({"z": z, "caps": list(DEFAULT_SHELL_CAPS), "rows": rows}, config)
        return EXIT_OK
    lines = [",".join(_BETA_COLUMNS)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[key]) for key in _BETA_COLUMNS))
    _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_spectrum(config: dict) -> int:
    """localized eigenvalue pairs above the least cutoff N that localizes
    them; gaps and flags are hardware values (see refined_pair)"""
    pot, _ = _read_potential(config)
    bc = _read_bc(config, "per+", "pair localization applies")
    K = _read_int(config, "K", 32)
    ns = _read_range(config)
    n_max = max(ns) if ns else 12
    # discs of one parity sit two apart, so the disc after the last one is reach + 2
    reach = disc_reach(bc, K)
    if n_max > reach + 1:
        raise UsageError(f"--K {K} holds {bc.value} discs up to n = {reach}, got n up to {n_max}")
    _, result = find_working_N(pot, bc, K, n_max)
    if ns:
        want, other = ((0, BoundaryCondition.PER_MINUS) if bc == BoundaryCondition.PER_PLUS
                       else (1, BoundaryCondition.PER_PLUS))
        if all(n % 2 != want for n in ns):
            raise UsageError(
                f"--range holds no {bc.value} disc: {bc.value} discs sit at "
                f"{('even', 'odd')[want]} n, these n are discs of --bc {other.value}")
    if ns is not None:
        # the scan runs to max(ns) for the working N; print only the asked n
        result = replace(result, pairs=tuple(p for p in result.pairs if p.n in ns))
    if config.get("format", "csv") == "json":
        payload = {
            "bc": bc.value,
            "K": K,
            "N": result.N,
            "potential": potential_to_json(pot),
            "pairs": [
                {
                    "n": p.n,
                    "lam_minus": p.lam_minus,
                    "lam_plus": p.lam_plus,
                    "z_star": p.z_star,
                    "gap": p.gap,
                    "flag": p.multiplicity_flag,
                    "mu": p.mu,
                    "deviation": p.deviation,
                }
                for p in result.pairs
            ],
            "low_block": list(result.low_block),
        }
        _dump(payload, config)
    else:
        _emit(spectrum_csv(result), config)
    return EXIT_OK


# the bands each report is about; the report would read the others wrongly
_BANDS = {
    "ratio-collapse": (lambda R, S: R != S, "R != S"),
    "shifted-collapse": (lambda R, S: R == 1 and S >= 3, "R = 1 and S >= 3"),
    "equal-offsets": (lambda R, S: R == S, "R = S"),
    "concordance": (lambda R, S: R == S == 1, "R = S = 1"),
}


def cmd_verdict(config: dict) -> int:
    """basis verdict for a root-function system"""
    report = config.get("report")
    pot, params = _read_potential(config)
    if params is None:
        raise UsageError("verdicts need a two-term potential")
    if report is not None:
        covers, need = _BANDS[report]
        if not covers(params.R, params.S):
            raise UsageError(f"the {report} report needs bands {need}, got R = {params.R}, S = {params.S}")
    if report is None:
        delta = _read_delta(config)
        if not delta.indices(params):
            raise UsageError(f"--delta holds no index for R = {params.R}, S = {params.S}: "
                             f"{delta.describe()}")
        verdict = criterion1_verdict(pot, params, delta)
    elif report == "ratio-collapse":
        verdict = theorem31_report(params.a, params.b, params.R, params.S, _read_m_range(config, [2, 6]),
                                   bc=_read_bc(config, "per+", "basis verdicts apply"))
    elif report == "shifted-collapse":
        verdict = theorem5_report(params.a, params.b, params.S, _read_m_range(config, [2, 7]))
    elif report == "equal-offsets":
        verdict = prop20_verdict(params.a, params.b, params.R,
                                 _read_bc(config, "per-", "basis verdicts apply"))
    else:
        ns = _read_range(config, default=[6, 8, 10, 12])
        K = _read_int(config, "K", 32)
        odd = [n for n in ns if n % 2]
        if odd:
            raise UsageError(f"the concordance reads per+ pairs, which sit at even n, got n = "
                             f"{', '.join(map(str, odd))}")
        # each row refines the per+ pair and the Dirichlet eigenvalue of its disc
        reach = {bc: disc_reach(bc, K) for bc in (BoundaryCondition.PER_PLUS, BoundaryCondition.DIRICHLET)}
        if ns and max(ns) > min(reach.values()):
            raise UsageError(f"--K {K} holds per+ discs up to n = {reach[BoundaryCondition.PER_PLUS]} "
                             f"and Dirichlet discs up to n = {reach[BoundaryCondition.DIRICHLET]}, "
                             f"got n up to {max(ns)}")
        verdict = concordance_report(params.a, params.b, ns=tuple(ns), K=K,
                                     precision=_read_int(config, "precision", REFINE_PRECISION))
    _dump(verdict.to_json_dict(), config)
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    """built-in cross-route identity suite"""
    report = run_verify(inject_error=bool(config.get("inject_error")))
    _emit("\n".join(report.lines()) + "\n", config)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


_COMMANDS = {
    "beta": cmd_beta,
    "spectrum": cmd_spectrum,
    "verdict": cmd_verdict,
    "verify": cmd_verify,
}


# the exit code of each error class; the most derived listed class wins
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    WalkSingularityError: EXIT_SINGULARITY,
    LocalizationError: EXIT_LOCALIZATION,
    DirichletUniquenessError: EXIT_LOCALIZATION,
    ConvergenceError: EXIT_CRITERIA,
    DegenerateRatioError: EXIT_CRITERIA,
    ValueError: EXIT_CRITERIA,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](merged_config(args))
    except SystemExit as err:  # --help
        return int(err.code or 0)
    except tuple(_EXIT_CODES) as err:
        print(f"hillwalk: {err}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(err).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
