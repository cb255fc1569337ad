import json

import numpy as np
import pytest

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
        assert cfg.n == 24
        assert cfg.y_samples == (0.0, 0.5)
        assert cfg.q == 0.9

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
        ],
    )
    def test_rejections_name_field(self, override):
        with pytest.raises(ConfigError) as err:
            load_config(None, [override])
        assert override.split("=")[0].lstrip("-") in str(err.value)

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
            ["elliptic-compare", "--out", str(tmp_path), "n=12", "source=eigenmode:1", "seed=1"]
        )
        assert code == 0
        report = json.loads((tmp_path / "elliptic_report.json").read_text())
        assert report["verdict"] == "holds"
        assert {"params", "per_y", "worst_gap", "tolerance", "verdict"} <= set(report)
        assert (tmp_path / "elliptic_curves.csv").read_text().startswith("y,s,U,V,chi")

    def test_violation_exit_code(self, tmp_path):
        # an absurdly large diffusion starves the ball problem
        code = main(
            ["elliptic-compare", "--out", str(tmp_path), "n=12", "gamma=1e9", "tol=1e-9"]
        )
        assert code == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["elliptic-compare", "--out", str(tmp_path), "sigma=1.5"]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_non_finite_source_exit_code(self, tmp_path, capsys):
        code = main(["elliptic-compare", "--out", str(tmp_path), "n=12", "source=constant:nan"])
        assert code == 3
        assert "source" in capsys.readouterr().err

    def test_overflowing_tolerance_exit_code(self, tmp_path, capsys):
        code = main(
            ["elliptic-compare", "--out", str(tmp_path), "n=12", "source=constant:1e300", "c=1"]
        )
        assert code == 3
        assert "tolerance" in capsys.readouterr().err

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["elliptic-compare", "--out", str(out), "n=12"]) == 2
        assert str(out) in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path):
        # constant source with projection off violates compatibility at c = 0
        code = main(
            [
                "elliptic-compare",
                "--out",
                str(tmp_path),
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
                ["elliptic-compare", "--out", str(tmp_path), "n=12", "source=random", "seed=9"]
            ) == 0
            blobs.append((tmp_path / "elliptic_report.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestParabolicCommand:
    def test_runs_and_reports(self, tmp_path):
        code = main(
            [
                "parabolic-compare",
                "--out",
                str(tmp_path),
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
        args = ["parabolic-compare", "--out", str(tmp_path), "n=12", "steps=2", *overrides]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert needle in err and "Warning" not in err

    def test_zero_steps_rejected(self, tmp_path):
        assert main(["parabolic-compare", "--out", str(tmp_path), "steps=0"]) == 2


class TestExtensionCommand:
    def test_sweep(self, tmp_path):
        code = main(
            ["extension-check", "--out", str(tmp_path), "domain=interval", "n=32", "modes=3"]
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
                "--out",
                str(tmp_path),
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
            ["rearrange", "--field", str(field), "--out", str(tmp_path), "domain=interval", "n=3"]
        ) == 2
        assert f"line {line}" in capsys.readouterr().err

    def test_missing_field_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(
            ["rearrange", "--field", str(missing), "--out", str(tmp_path), "domain=interval", "n=8"]
        ) == 2
        assert str(missing) in capsys.readouterr().err

    def test_wrong_length_rejected(self, tmp_path):
        field = tmp_path / "field.csv"
        field.write_text("1.0\n2.0\n")
        assert main(
            ["rearrange", "--field", str(field), "--out", str(tmp_path), "domain=interval", "n=16"]
        ) == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("elliptic-compare", "source=foo"),
        ("elliptic-compare", "source=eigenmode:x"),
        ("parabolic-compare", "u0=foo"),
        ("parabolic-compare", "forcing=foo"),
    ],
)
def test_unknown_preset_is_config_error(tmp_path, capsys, command, override):
    assert main([command, "--out", str(tmp_path), "n=12", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_rejects_bad_q():
    assert main(["selftest", "Q=-1"]) == 2
