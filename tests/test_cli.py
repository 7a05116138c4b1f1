import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaudin.cli
from gaudin.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_quadratic_notes_zero_sum(tmp_path, capsys):
    code, out, _ = run_cli([
        "build", "--what", "quadratic", "--r", "2", "--sites", "3",
        "--poles", "0,1,2", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["hamiltonians"]) == 3
    assert doc["sum_is_zero"] is True
    assert (tmp_path / "build-quadratic.json").exists()


def test_build_bending_two_sites(tmp_path, capsys):
    code, out, _ = run_cli([
        "build", "--what", "bending", "--k", "1", "--sites", "2",
        "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    entry = doc["matrix"]["entries"][0][0]
    assert entry == "(z) * x[1,1]@1 + (1) * x[1,1]@2"


def test_build_text_rendering_has_no_verdict_line(tmp_path, capsys):
    code, out, _ = run_cli([
        "build", "--what", "quadratic", "--r", "2", "--sites", "2",
        "--poles", "0,1", "--format", "text", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    assert "overall:" not in out
    assert "sum_is_zero: true" in out


def test_build_rejects_repeated_poles(tmp_path, capsys):
    code, _, err = run_cli([
        "build", "--what", "gaudin", "--poles", "0,0,1", "--out", str(tmp_path),
    ], capsys)
    assert code == 2
    assert "repeated" in err


def test_verify_quadratic_rank_one(tmp_path, capsys):
    code, out, _ = run_cli([
        "verify", "quadratic", "--r", "1", "--sites", "2", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["config"]["seed"] == 12345


def test_verify_reports_are_deterministic(tmp_path, capsys):
    args = ["verify", "quadratic", "--r", "1", "--sites", "2",
            "--seed", "7", "--out", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    first = (tmp_path / "verify-quadratic.json").read_bytes()
    code2, out2, _ = run_cli(args, capsys)
    second = (tmp_path / "verify-quadratic.json").read_bytes()
    assert code1 == code2 == 0
    assert out1 == out2
    assert first == second


def test_pattern_infers_site_count(tmp_path, capsys):
    code, out, _ = run_cli([
        "verify", "glue", "--pattern", "[1,2,[3,4,5]@3]", "--r", "2",
        "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sites"] == 5
    assert doc["pass"] is True


def test_verify_glue_with_pattern(tmp_path, capsys):
    code, out, _ = run_cli([
        "verify", "glue", "--pattern", "[1,[2,3]@3]", "--r", "2", "--sites", "3",
        "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    names = [c["check"] for c in doc["checks"]]
    assert "rank_completeness" in names and "hg_membership" in names


def test_verify_glue_gates_the_quantum_algebra_of_a_left_comb(tmp_path, capsys):
    code, out, _ = run_cli([
        "verify", "glue", "--pattern", "[[1,2]@0,3]", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    quantum = checks["quantum_limit_algebra"]
    assert quantum["pass"] is True
    assert quantum["spec"]["count"] == 16


@pytest.mark.parametrize("pattern, position", [
    ("[1,[2,3]@3]@4", 11),
    ("[1, [2,3]@3] @ 1/2", 13),
])
@pytest.mark.parametrize("sites", [[], ["--sites", "3"]], ids=["inferred", "given"])
def test_verify_glue_refuses_a_root_location(pattern, position, sites, tmp_path, capsys):
    # the root is not a collision, so a location there would be silently dropped
    code, out, err = run_cli(["verify", "glue", "--pattern", pattern, *sites,
                              "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: the root is not a collision and takes no location "
                   f"(at position {position})\n")


def test_verify_glue_checks_the_pole_count(tmp_path, capsys):
    code, _, err = run_cli(["verify", "glue", "--poles", "0,1", "--out", str(tmp_path)],
                           capsys)
    assert code == 2
    assert err == "error: need 3 poles, got 2\n"


@pytest.mark.parametrize("pattern, bad, position", [
    ("[1,[2,3]@1/0]", "1/0", 9),
    ("[1,[2,3]@ -3/00]", "-3/00", 10),
    ("[[1,2]@2/0,3]", "2/0", 7),
])
def test_verify_glue_names_a_zero_denominator_location(pattern, bad, position,
                                                       tmp_path, capsys):
    code, _, err = run_cli(["verify", "glue", "--pattern", pattern, "--out", str(tmp_path)],
                           capsys)
    assert code == 2
    assert err == f"error: bad location {bad!r}: zero denominator (at position {position})\n"


def test_verify_glue_names_the_offending_leaf(tmp_path, capsys):
    code, out, err = run_cli(["verify", "glue", "--pattern", "[1,[2,2]@3]",
                              "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: duplicate leaf 2 (at position 6)\n"


def test_verify_bending_refuses_coincident_poles(tmp_path, capsys):
    code, out, err = run_cli(["verify", "bending", "--z1", "1", "--z2", "1",
                              "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the two pole locations must differ\n"
    assert not any(tmp_path.iterdir())


def test_verify_exit_code_contract(tmp_path, capsys):
    # a collapse point on a remaining pole is a configuration error
    code, _, err = run_cli([
        "verify", "glue", "--pattern", "[1,[2,3]@0]", "--sites", "3",
        "--eval", "5,7", "--out", str(tmp_path),
    ], capsys)
    assert code == 2
    assert "coincident child locations" in err


def test_verify_glue_collapse_at_an_eval_point(tmp_path, capsys):
    # the quantum limit algebra is certified from residue coefficients, so a
    # collapse point equal to an --eval point is no pole hit
    code, out, _ = run_cli([
        "verify", "glue", "--pattern", "[1,[2,3]@5]", "--sites", "3",
        "--eval", "5,7", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    rep = next(c for c in doc["checks"] if c["check"] == "quantum_limit_algebra")
    assert rep["pass"] is True and rep["spec"]["count"] == 16
    assert doc["config"]["eval_points"] == ["5", "7"]


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_desk_scale_guard(tmp_path, capsys):
    code, _, err = run_cli([
        "verify", "quadratic", "--sites", "6", "--out", str(tmp_path),
    ], capsys)
    assert code == 2
    assert "desk-scale" in err


def test_config_file_mirrors_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=1\nsites=2\nseed=99\n# comment\nformat=json\n")
    code, out, _ = run_cli([
        "verify", "quadratic", "--config", str(cfg), "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["rank"] == 1
    assert doc["config"]["seed"] == 99


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=1\nseed=99\n")
    code, out, _ = run_cli([
        "verify", "quadratic", "--config", str(cfg), "--sites", "2",
        "--seed", "100", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 100


def test_export_latex(tmp_path, capsys):
    run_cli(["verify", "quadratic", "--r", "1", "--sites", "2",
             "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli([
        "export", "--run", str(tmp_path), "--format", "latex",
    ], capsys)
    assert code == 0
    assert r"\begin{tabular}" in out


def test_export_picks_the_newest_artifact(tmp_path, capsys):
    run_cli(["verify", "quadratic", "--r", "1", "--sites", "2",
             "--out", str(tmp_path)], capsys)
    run_cli(["build", "--what", "physical", "--r", "1", "--sites", "2",
             "--out", str(tmp_path)], capsys)
    older, newer = tmp_path / "verify-quadratic.json", tmp_path / "build-physical.json"
    os.utime(older, ns=(10**18, 10**18))
    os.utime(newer, ns=(2 * 10**18, 2 * 10**18))
    code, out, _ = run_cli(["export", "--run", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["what"] == "physical"
    # equal times: the name that sorts last wins
    os.utime(newer, ns=(10**18, 10**18))
    code, out, _ = run_cli(["export", "--run", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["suite"] == "quadratic"


def test_export_missing_artifacts(tmp_path, capsys):
    code, _, err = run_cli([
        "export", "--run", str(tmp_path / "empty"), "--format", "text",
    ], capsys)
    assert code == 2
    assert "no artifacts" in err


def test_build_pattern_family(tmp_path, capsys):
    code, out, _ = run_cli([
        "build", "--what", "pattern", "--pattern", "[[1,2]@5,3]",
        "--sites", "3", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["family"]["matrices"]) == 2
    assert doc["commutation"]["pass"] is True
    assert all("power" in m for m in doc["invariants"]["members"])


def test_build_talalaev_rank_one(tmp_path, capsys):
    code, out, _ = run_cli([
        "build", "--what", "talalaev", "--r", "1", "--sites", "2",
        "--poles", "0,1", "--eval", "5", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    qh = doc["talalaev"]["qh"]
    assert qh["1"] == "(1)"
    assert "e[1,1]@1" in qh["0"] and "e[1,1]@2" in qh["0"]
    assert doc["evaluations"]["5"]["qh"][1] == "1"


@pytest.mark.parametrize("points", ["5,5", "5,7,10/2"])
def test_build_talalaev_rejects_repeated_eval_points(points, tmp_path, capsys):
    # one evaluation per distinct point: a repeat would be echoed in the
    # config but collapse to a single "evaluations" entry
    code, out, err = run_cli([
        "build", "--what", "talalaev", "--r", "1", "--sites", "2",
        "--eval", points, "--out", str(tmp_path),
    ], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: repeated eval points: [")
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("extra", [(), ("--eval", "")], ids=["no-flags", "empty-eval"])
def test_verify_defaults_are_the_run_config_defaults(extra, tmp_path, capsys):
    from gaudin.suites import RunConfig

    code, out, _ = run_cli(["verify", "quadratic", *extra, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["config"] == RunConfig().to_json_dict()


@pytest.mark.parametrize("line", ["trails=50", "trials=5"])
def test_config_file_rejects_unknown_keys(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rank=1\n{line}\n")
    code, _, err = run_cli(["verify", "poisson", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    key = line.partition("=")[0]
    assert code == 2
    assert err == f"error: {cfg}:2: unknown key '{key}'\n"
    assert not list(tmp_path.glob("*.json"))


def test_config_file_accepts_flag_spellings(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=1\nsites=2\neval=3\nunsafe-scale=no\nformat=json\n")
    code, out, _ = run_cli(["verify", "quadratic", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["rank"], config["eval_points"], config["unsafe_scale"]) == (1, ["3"], False)


def test_trials_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "poisson", "--trials", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
])
def test_config_file_booleans(value, expected, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r=1\nsites=2\nunsafe-scale={value}\n")
    code, out, _ = run_cli(["verify", "quadratic", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["unsafe_scale"] is expected


@pytest.mark.parametrize("value", ["on", "off"])
def test_config_file_rejects_other_booleans(value, tmp_path, capsys):
    # "on" used to be read as false, silently keeping the desk-scale guard
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r=1\nsites=6\nunsafe-scale={value}\n")
    code, _, err = run_cli(["verify", "quadratic", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == (f"error: {cfg}:3: unsafe-scale: expected 1/true/yes or "
                   f"0/false/no, got '{value}'\n")
    assert not list(tmp_path.glob("*.json"))


def test_config_file_bad_integer_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=12x\n")
    code, _, err = run_cli(["verify", "quadratic", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {cfg}:1: seed: ")


@pytest.mark.parametrize("args", [("--sites", "2"), ("--rank", "1")])
def test_verify_poisson_small_signatures_pass(args, tmp_path, capsys):
    # the corrupted-operator control runs on at least rank 2 and three sites,
    # where the flipped block does break Jacobi
    code, out, _ = run_cli(["verify", "poisson", *args, "--out", str(tmp_path)], capsys)
    assert code == 0
    control = next(c for c in json.loads(out)["checks"]
                   if c["check"] == "corrupted_operator_rejected")
    assert control["pass"] is True and control["spec"] == {"flipped_block": "2,2"}


@pytest.mark.parametrize("rank, argv", [
    (3, ("verify", "talalaev", "--r", "3", "--sites", "4")),
    (3, ("verify", "manin", "--r", "3", "--sites", "4")),
    (2, ("verify", "talalaev", "--sites", "4", "--mode", "classical")),
    (2, ("build", "--what", "talalaev", "--sites", "4")),
])
def test_quantum_builds_keep_the_quantum_scale_limit(rank, argv, tmp_path, capsys):
    # these always build the quantum algebra, whatever --mode says
    code, _, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == (f"error: rank {rank} / sites 4 exceeds the desk-scale limits "
                   "(rank <= 3, sites <= 3 in quantum mode); pass --unsafe-scale "
                   "to override\n")
    assert not list(tmp_path.glob("*.json"))


def test_quantum_scale_limit_leaves_the_config_block_alone(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "talalaev", "--r", "1", "--sites", "3",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["mode"], config["sites"], config["unsafe_scale"]) == ("classical", 3, False)


@pytest.mark.parametrize("flag, value, bad", [
    ("--poles", "1/0,2", "1/0"),
    ("--poles", "0, 1/x", "1/x"),
    ("--poles", "0,,1", ""),
    ("--eval", "3,1/0", "1/0"),
    ("--z1", "1/0", "1/0"),
    ("--z2", "half", "half"),
])
def test_bad_rationals_name_the_flag(flag, value, bad, tmp_path, capsys):
    code, _, err = run_cli(["verify", "manin", flag, value, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: {flag}: bad rational {bad!r}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "quadratic", "--r", "1", "--sites", "2"],
    ["build", "--what", "gaudin"],
])
def test_json_report_is_rendered_once(argv, tmp_path, capsys, monkeypatch):
    rendered = []
    inner = gaudin.cli.dumps_json
    monkeypatch.setattr(gaudin.cli, "dumps_json",
                        lambda doc: rendered.append(doc) or inner(doc))
    code, out, _ = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0 and len(rendered) == 1
    [artifact] = tmp_path.glob("*.json")
    assert out.encode() == artifact.read_bytes()


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps the interpreter's site hooks, which may preload typing, out of
    # the check: only what importing the package itself loads is counted
    code = ("import sys, gaudin.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
