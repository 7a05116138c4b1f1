"""Command-line driver: build objects, run verification suites, export reports.

Flags mirror the library configuration; a key=value config file can supply
any flag, with command-line values taking precedence.  Reports are canonical
JSON (sorted keys, seed recorded, no timestamps), so identical configuration
reproduces byte-identical files.  No environment variable is honored.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .gluing import infer_sites, iterate_pattern, parse_pattern
from .lax import (
    bending_lax,
    bending_lax_rational,
    check_distinct,
    gaudin_lax,
    physical_hamiltonian,
    quadratic_hamiltonians,
    spectral_invariants,
)
from .manin import commutation_matrix, talalaev_generators
from .reports import all_passed, dumps_json, render_latex, render_text
from .suites import SUITES, RunConfig, run_suite

BUILD_TARGETS = ("gaudin", "quadratic", "physical", "bending",
                 "bending-rational", "invariants", "pattern", "talalaev")


def _rational(flag: str, text: str) -> Fraction:
    """One rational flag value; a malformed one names the flag and the value."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: bad rational {text!r}") from None


def _parse_fraction_list(flag: str, text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    return [_rational(flag, part) for part in text.split(",")]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank", "--r", dest="rank", type=int, default=None,
                        help="rank r of gl(r) (default 2)")
    parser.add_argument("--sites", type=int, default=None,
                        help="number of tensor sites N (default 3)")
    parser.add_argument("--mode", choices=("classical", "quantum"), default=None,
                        help="algebra mode (default classical)")
    parser.add_argument("--poles", default=None,
                        help="comma-separated rational poles (default 0,1,...)")
    parser.add_argument("--pattern", default=None, help="gluing pattern text")
    parser.add_argument("--eval", dest="eval_points", default=None,
                        help="comma-separated evaluation points for build --what "
                             "talalaev (default 5,7; verify only echoes them)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomized checks (default 12345)")
    parser.add_argument("--k", type=int, default=None, help="cluster index")
    parser.add_argument("--z1", default=None, help="first cluster pole (default 0)")
    parser.add_argument("--z2", default=None, help="second cluster pole (default 1)")
    parser.add_argument("--unsafe-scale", action="store_true", default=None,
                        help="lift the desk-scale limits")
    parser.add_argument("--out", default=None, help="output directory (default ./runs)")
    parser.add_argument("--format", dest="fmt",
                        choices=("json", "text", "latex"), default=None)
    parser.add_argument("--config", default=None,
                        help="key=value file supplying any of the flags above")


def _flag_text(value):
    """A RunConfig default as its flag would spell it; ints and bools stay
    typed so that config-file values are coerced to match."""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, Fraction):
        return str(value)
    return value


_DEFAULTS = {key: _flag_text(value) for key, value in vars(RunConfig()).items()}
_DEFAULTS.update(out="runs", fmt="json")
# config-file spellings of the flags whose dest differs from their name
_ALIASES = {"r": "rank", "eval": "eval_points", "format": "fmt"}


def _coerce(default, raw: str):
    """A config-file value typed like the flag's default."""
    if isinstance(default, bool):
        word = raw.lower()
        if word in ("1", "true", "yes"):
            return True
        if word in ("0", "false", "no"):
            return False
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    return raw


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        name, _, value = line.partition("=")
        key = name.strip().replace("-", "_")
        key = _ALIASES.get(key, key)
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {name.strip()!r}")
        try:
            values[key] = _coerce(_DEFAULTS[key], value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {name.strip()}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_value = getattr(args, key, None)
        merged[key] = cli_value if cli_value is not None else file_values.get(key, default)
    # a pattern determines the site count when none was given explicitly
    if merged["pattern"] and getattr(args, "sites", None) is None \
            and "sites" not in file_values:
        merged["sites"] = infer_sites(str(merged["pattern"]))
    return merged


def _run_config(merged: dict) -> RunConfig:
    return RunConfig(
        rank=merged["rank"],
        sites=merged["sites"],
        mode=merged["mode"],
        poles=_parse_fraction_list("--poles", str(merged["poles"])),
        pattern=str(merged["pattern"]),
        eval_points=check_distinct(
            _parse_fraction_list("--eval", str(merged["eval_points"]))
            or RunConfig().eval_points, "eval points"),
        seed=merged["seed"],
        k=merged["k"],
        z1=_rational("--z1", str(merged["z1"])),
        z2=_rational("--z2", str(merged["z2"])),
        unsafe_scale=bool(merged["unsafe_scale"]),
    )


def _matrix_json(matrix) -> dict:
    return {
        "label": matrix.label,
        "rank": matrix.size,
        "poles": [[str(p), o] for p, o in matrix.poles],
        "entries": [[e.render() for e in row] for row in matrix.entries],
    }


def cmd_build(merged: dict, what: str) -> dict:
    cfg = _run_config(merged)
    cfg.check_scale("quantum" if what == "talalaev" else None)
    sig = cfg.signature()
    poles = cfg.pole_list()
    artifact: dict = {"command": "build", "what": what, "config": cfg.to_json_dict()}
    if what == "gaudin":
        artifact["matrix"] = _matrix_json(gaudin_lax(sig, poles))
    elif what == "quadratic":
        hams = quadratic_hamiltonians(sig, poles)
        total = sig.zero()
        for h in hams:
            total = total + h
        artifact["hamiltonians"] = [h.render() for h in hams]
        artifact["sum_is_zero"] = total.is_zero()
    elif what == "physical":
        artifact["hamiltonian"] = physical_hamiltonian(sig).render()
    elif what == "bending":
        artifact["matrix"] = _matrix_json(bending_lax(sig, cfg.k))
    elif what == "bending-rational":
        artifact["matrix"] = _matrix_json(
            bending_lax_rational(sig, cfg.k, cfg.z1, cfg.z2))
    elif what == "invariants":
        family = spectral_invariants(gaudin_lax(cfg.signature("classical"), poles))
        artifact["invariants"] = family.to_json_dict()
    elif what == "pattern":
        pattern = parse_pattern(cfg.pattern, cfg.sites)
        family = iterate_pattern(cfg.signature("classical"), pattern, poles)
        artifact["family"] = family.to_json_dict()
        inv = family.invariant_family()
        artifact["invariants"] = inv.to_json_dict()
        rep = commutation_matrix(inv.exprs(), [str(m.provenance) for m in inv.members])
        artifact["commutation"] = rep.to_json_dict()
    elif what == "talalaev":
        out = talalaev_generators(gaudin_lax(cfg.signature("quantum"), poles))
        artifact["talalaev"] = out.to_json_dict()
        evaluations = {}
        for u in cfg.eval_points:
            evaluations[str(u)] = {
                "qh": [p.render() for p in out.qh_eval(u)],
                "qtr_diag": [p.render() for p in out.qtr_diag_eval(u)],
            }
        artifact["evaluations"] = evaluations
    else:
        raise ValueError(f"unknown build target {what!r}")
    return artifact


def cmd_verify(merged: dict, suite: str) -> dict:
    cfg = _run_config(merged)
    reports = run_suite(suite, cfg)
    return {
        "command": "verify",
        "suite": suite,
        "config": cfg.to_json_dict(),
        "checks": [r.to_json_dict() for r in reports],
        "pass": all_passed(reports),
    }


def _render(doc: dict, fmt: str) -> str:
    if fmt == "text":
        return render_text(doc)
    if fmt == "latex":
        return render_latex(doc)
    return dumps_json(doc)


def _write_artifact(doc: dict, out_dir: str, name: str, fmt: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    text = dumps_json(doc)
    path.write_text(text)
    sys.stdout.write(text if fmt == "json" else _render(doc, fmt))
    return path


def cmd_export(merged: dict, run_dir: str | None, out_file: str | None) -> int:
    """Re-render the newest artifact in the run directory (latest
    modification time; the name breaks ties)."""
    directory = Path(run_dir or merged["out"])
    candidates = list(directory.glob("*.json")) if directory.exists() else []
    if not candidates:
        sys.stderr.write(f"error: no artifacts found in {directory}\n")
        return 2
    newest = max(candidates, key=lambda path: (path.stat().st_mtime_ns, path.name))
    rendered = _render(json.loads(newest.read_text()), merged["fmt"])
    if out_file:
        Path(out_file).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Exact-arithmetic constructions and verdicts for Gaudin-type "
                    "integrable systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and serialize an object")
    p_build.add_argument("--what", choices=BUILD_TARGETS, default="gaudin")
    _add_common(p_build)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)

    p_export = sub.add_parser("export", help="re-render the latest artifact")
    p_export.add_argument("--run", default=None, help="run directory to export from")
    p_export.add_argument("--out-file", default=None, help="write rendering here")
    _add_common(p_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        if args.command == "build":
            doc = cmd_build(merged, args.what)
            _write_artifact(doc, merged["out"], f"build-{args.what}", merged["fmt"])
            return 0
        if args.command == "verify":
            doc = cmd_verify(merged, args.suite)
            _write_artifact(doc, merged["out"], f"verify-{args.suite}", merged["fmt"])
            return 0 if doc["pass"] else 1
        if args.command == "export":
            return cmd_export(merged, args.run, args.out_file)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
