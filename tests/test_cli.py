import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracsym
from fracsym import compare
from fracsym.cli import main
from fracsym.config import ConfigError, load_config


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None, [])
        assert cfg.domain == "rectangle" and cfg.sigma == 0.5

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nsigma = 0.3\nn = 24\ny_samples = 0, 0.5\n")
        cfg = load_config(path, ["sigma=0.7", "Q=0.9"])
        assert cfg.sigma == 0.7  # override wins
        assert cfg.n == (24,)
        assert cfg.y_samples == (0.0, 0.5)
        assert cfg.Q == 0.9

    def test_domain_defaults_for_q(self):
        assert load_config(None, ["domain=interval"]).q_value() == 1.0
        assert load_config(None, []).q_value() == pytest.approx(2**-0.5)

    @pytest.mark.parametrize(
        "override",
        [
            "sigma=1.5",
            "sigma=0",
            "c=-1",
            "steps=0",
            "T=-2",
            "n=1",
            "domain=torus",
            "tol=-1",
            "c=nan",
            "tol_constant=nan",
            "y_samples=nan",
            "gamma=inf",
            "n=0",
            "length=0",
            "y_sweep=0.1,0",
            "y_sweep=0.1",
            "y_sweep=",
            "y_sweep=0.001,0.01,0.1",
            "y_sweep=0.1,0.1",
            "cells=8",
            "gamma=0",
            "Q=0",
            "ball_shells=0",
            "domain=interval n=8,8",
            "n=8,8,8",
            "length=1,1,1",
            "nx=8",
            "q=0.5",
            "gamma_exponent=half",
            "n=16 length=1e200",
            "n=16 length=1e160",
            "n=16 length=1e-200",
            "domain=interval n=16 length=1e-200",
            "Q=1e-200",
            "Q=1e200",
            "seed=-1",
            "source=random seed=-1",
        ],
    )
    def test_rejections_name_field(self, override):
        # the last of the space-separated overrides is the one rejected
        with pytest.raises(ConfigError) as err:
            load_config(None, override.split())
        assert override.split()[-1].split("=")[0] in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            load_config(None, ["frobnicate=1"])

    def test_bad_file_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(path, [])


class TestEllipticCommand:
    def test_holds_and_writes_reports(self, tmp_path):
        code = main(
            ["elliptic-compare", f"out={tmp_path}", "n=12", "source=eigenmode:1", "seed=1"]
        )
        assert code == 0
        report = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert report["verdict"] == "holds"
        assert {"params", "per_y", "worst_gap", "tolerance", "verdict"} <= set(report)
        assert (tmp_path / "elliptic_curves.csv").read_text().startswith("y,s,U,V,chi")

    def test_violation_exit_code(self, tmp_path):
        # an absurdly large diffusion starves the ball problem
        code = main(
            ["elliptic-compare", f"out={tmp_path}", "n=12", "gamma=1e9", "tol=1e-9"]
        )
        assert code == 1
        # tol=0 is an exact tolerance, not "derive": gamma = (1/4)^(1/1.6), which
        # puts gamma^(1/2) on the ball's multipliers, leaves a gap of 0.049,
        # under the derived 10 h ||f||_2 = 0.156
        code = main(
            [
                "elliptic-compare",
                "gamma=0.4204482076268573",
                f"out={tmp_path}",
                "domain=interval",
                "n=64",
                "sigma=0.8",
                "source=eigenmode:1",
                "tol=0",
            ]
        )
        assert code == 1
        assert json.loads((tmp_path / "elliptic_report.json").read_text())["tolerance"] == 0.0

    def test_q_reported_only_when_it_set_gamma(self, tmp_path):
        params = []
        for extra in (["gamma=0.3"], []):
            assert main(["elliptic-compare", f"out={tmp_path}", "n=16", *extra]) == 0
            params.append(json.loads((tmp_path / "elliptic_report.json").read_text())["params"])
        assert params[0]["gamma"] == 0.3 and params[0]["Q"] is None
        assert params[1]["Q"] == pytest.approx(2**-0.5)
        assert params[1]["gamma"] == pytest.approx(1.0 / (2.0 * math.pi))

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["elliptic-compare", f"out={tmp_path}", "sigma=1.5"]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_non_finite_source_exit_code(self, tmp_path, capsys):
        code = main(["elliptic-compare", f"out={tmp_path}", "n=12", "source=constant:nan"])
        assert code == 3
        assert "source" in capsys.readouterr().err

    def test_overflowing_tolerance_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "elliptic-compare",
                f"out={tmp_path}",
                "n=12",
                "source=constant:1e300",
                "c=1",
                "tol_constant=1e300",
            ]
        )
        assert code == 3
        assert "tolerance" in capsys.readouterr().err

    def test_huge_source_gets_a_verdict(self, tmp_path):
        code = main(
            ["elliptic-compare", f"out={tmp_path}", "n=12", "source=constant:1e300", "c=1"]
        )
        assert code == 0
        report = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert report["verdict"] == "holds"
        # 10 * h * ||f||_2 with h = 1/12 on the unit square
        assert report["tolerance"] == pytest.approx(10.0 / 12.0 * 1e300, rel=1e-14)

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["elliptic-compare", f"out={out}", "n=12"]) == 2
        assert str(out) in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path):
        # constant source with projection off violates compatibility at c = 0
        code = main(
            [
                "elliptic-compare",
                f"out={tmp_path}",
                "n=12",
                "source=constant",
                "project_compatible=false",
            ]
        )
        assert code == 3

    def test_determinism_byte_identical(self, tmp_path):
        blobs = []
        for _ in range(2):
            assert main(
                ["elliptic-compare", f"out={tmp_path}", "n=12", "source=random", "seed=9"]
            ) == 0
            blobs.append((tmp_path / "elliptic_report.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestParabolicCommand:
    def test_runs_and_reports(self, tmp_path):
        code = main(
            [
                "parabolic-compare",
                f"out={tmp_path}",
                "n=12",
                "steps=4",
                "T=0.5",
                "u0=eigenmode:1",
                "forcing=zero",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "parabolic_report.json").read_text())
        assert report["all_hold"] is True
        assert len(report["steps"]) == 4
        lines = (tmp_path / "parabolic_steps.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,worst_gap,tolerance,verdict"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            (["forcing=constant:inf"], "forcing"),
            (["T=1e308", "forcing=constant:1e300"], "not finite"),
        ],
    )
    def test_non_finite_exit_code(self, tmp_path, capsys, overrides, needle):
        args = ["parabolic-compare", f"out={tmp_path}", "n=12", "steps=2", *overrides]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert needle in err and "Warning" not in err

    def test_zero_tol_is_exact(self, tmp_path):
        # a gap of 0.084 that the derived 10 h ||u0||_2 = 0.110 would absorb
        argv = [
            "parabolic-compare",
            "gamma=0.4204482076268573",
            f"out={tmp_path}",
            "domain=interval",
            "n=64",
            "sigma=0.8",
            "u0=eigenmode:1",
            "steps=4",
        ]
        assert main(argv + ["tol=0"]) == 1
        report = json.loads((tmp_path / "parabolic_report.json").read_text())
        assert report["config"]["tol"] == 0.0
        assert {step["tolerance"] for step in report["steps"]} == {0.0}

    def test_zero_steps_rejected(self, tmp_path):
        assert main(["parabolic-compare", f"out={tmp_path}", "steps=0"]) == 2


class TestExtensionCommand:
    def test_vanishing_length_is_config_error(self, tmp_path, capsys):
        # |Omega| underflows to 0: exit 2 naming length, not an inf/nan sweep
        assert main(["extension-check", f"out={tmp_path}", "n=16", "length=1e-200"]) == 2
        assert "length" in capsys.readouterr().err

    def test_sweep(self, tmp_path):
        code = main(
            ["extension-check", f"out={tmp_path}", "domain=interval", "n=32", "modes=3"]
        )
        assert code == 0
        lines = (tmp_path / "extension_check.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 modes


class TestRearrangeCommand:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        field = tmp_path / "field.csv"
        field.write_text("value\n" + "\n".join(str(v) for v in rng.standard_normal(16)))
        code = main(
            [
                "rearrange",
                "--field",
                str(field),
                f"out={tmp_path}",
                "domain=interval",
                "n=16",
            ]
        )
        assert code == 0
        prof = (tmp_path / "profile.csv").read_text().strip().splitlines()
        assert prof[0] == "s,value"
        values = [float(line.split(",")[1]) for line in prof[1:]]
        assert values == sorted(values, reverse=True)
        assert (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize(
        "body, line",
        [
            ("value\n1.0\nabc\n2.0\n", 3),
            ("1.0\nvalue\n2.0\n", 2),
            ("value\n1.0\nnan\n", 3),
            ("1.0\n-inf\n", 2),
            ("0,1.0\n1,\n", 2),
        ],
    )
    def test_strict_rows(self, tmp_path, capsys, body, line):
        field = tmp_path / "field.csv"
        field.write_text(body)
        assert main(
            ["rearrange", "--field", str(field), f"out={tmp_path}", "domain=interval", "n=3"]
        ) == 2
        assert f"line {line}" in capsys.readouterr().err

    def test_missing_field_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(
            ["rearrange", "--field", str(missing), f"out={tmp_path}", "domain=interval", "n=8"]
        ) == 2
        assert str(missing) in capsys.readouterr().err

    def test_wrong_length_rejected(self, tmp_path):
        field = tmp_path / "field.csv"
        field.write_text("1.0\n2.0\n")
        assert main(
            ["rearrange", "--field", str(field), f"out={tmp_path}", "domain=interval", "n=16"]
        ) == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("elliptic-compare", "source=foo"),
        ("elliptic-compare", "source=eigenmode:x"),
        ("parabolic-compare", "u0=foo"),
        ("parabolic-compare", "forcing=foo"),
        ("elliptic-compare", "source=eigenmode:200"),
        ("elliptic-compare", "source=random:0"),
        ("parabolic-compare", "u0=random:0"),
        ("elliptic-compare", "source=two_bump"),
        ("parabolic-compare", "forcing=none"),
    ],
)
def test_unknown_preset_is_config_error(tmp_path, capsys, command, override):
    assert main([command, f"out={tmp_path}", "n=12", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("k", [8, 9])
def test_unresolved_mode_exit_code(tmp_path, capsys, k):
    # on 8 cells mode 8 vanishes and mode 9 is mode 7 with its sign flipped
    argv = ["elliptic-compare", f"out={tmp_path}", "domain=interval", "n=8"]
    assert main(argv + [f"source=eigenmode:{k}"]) == 2
    assert "source" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["n=12001", "ball_shells=12001"])
def test_ball_over_cap_is_config_error(tmp_path, capsys, override):
    # a config error, raised before a 12001^2 mode matrix could be allocated
    argv = ["elliptic-compare", f"out={tmp_path}", "domain=interval", override]
    assert main(argv) == 2
    assert "ball_shells" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["nx=5", "ny=5", "lx=3", "ly=3"])
def test_rectangle_key_on_interval_is_config_error(tmp_path, capsys, override):
    # unknown keys on every domain: the rectangle spells them n=20,12 length=2,0.7
    argv = ["elliptic-compare", f"out={tmp_path}", "domain=interval", "n=16", override]
    assert main(argv) == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_more_modes_than_the_grid_has_is_config_error(tmp_path, capsys):
    # 8 cells carry 7 nonzero modes
    argv = ["extension-check", f"out={tmp_path}", "domain=interval", "n=8"]
    assert main(argv + ["modes=7"]) == 0
    assert main(argv + ["modes=8"]) == 2
    assert "modes" in capsys.readouterr().err


def test_cap_leaves_commands_without_a_ball(tmp_path):
    argv = ["extension-check", f"out={tmp_path}", "domain=interval", "n=12001", "modes=1"]
    assert main(argv) == 0


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_fails_on_an_always_holds_verdict(monkeypatch, capsys):
    original = compare._report

    def always_holds(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), verdict="holds")

    monkeypatch.setattr(compare, "_report", always_holds)
    assert main(["selftest"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and "negative-control" in fails[0]


def test_selftest_module_entry_point():
    # the package under test comes first on the child's path
    src = Path(fracsym.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "fracsym.cli", "selftest"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passes = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("PASS")]
    assert passes == ["equality", "negative-control", "determinism"]


def test_selftest_rejects_bad_q():
    assert main(["selftest", "Q=-1"]) == 2


@pytest.mark.parametrize(
    "args", [["n=8"], ["--out", "X"], ["--gamma-exponent", "half"]], ids=["n", "out", "gamma"]
)
def test_selftest_rejects_ignored_arguments(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", *args]) == 2
    assert " ".join(args) in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("args", [["--out", "X"], ["--gamma-exponent", "half"]], ids=["out", "gamma"])
def test_config_commands_take_keys_not_flags(tmp_path, monkeypatch, capsys, args):
    # out=X and gamma=... are the only spellings
    monkeypatch.chdir(tmp_path)
    assert main(["elliptic-compare", *args, "n=8"]) == 2
    assert args[0] in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


def test_overrides_keep_their_order_around_flags(tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("value\n3.0\n1.0\n2.0\n")
    out = tmp_path / "r"
    assert main(["rearrange", "domain=interval", "--field", str(field), "n=3", f"out={out}"]) == 0
    assert len((out / "profile.csv").read_text().splitlines()) == 4
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sigma = 0.3\nn = 16\n")
    out = tmp_path / "e"
    args = ["n=8", "sigma=0.2", "--config", str(cfg), "sigma=0.4", "domain=interval", f"out={out}"]
    assert main(["elliptic-compare", *args]) == 0
    config = json.loads((out / "elliptic_report.json").read_text())["config"]
    assert (config["n"], config["sigma"], config["domain"]) == ([8], 0.4, "interval")
    # a leftover that is not key=value is still refused
    capsys.readouterr()
    assert main(["rearrange", "domain=interval", "--field", str(field), "n=3", "stray"]) == 2
    assert "unrecognized arguments: n=3 stray" in capsys.readouterr().err
