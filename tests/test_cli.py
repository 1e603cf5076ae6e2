import json
import time

import pytest

from compose_approx.cli import main
from compose_approx.expr import MAX_DEPTH

from oracles import bell_count, set_partition_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_bell_number(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "4")
        assert code == 0
        assert out.splitlines()[0] == "15"

    def test_bell_polynomial_terms(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "4", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "7"
        assert any("x1^1 x3^1" in line for line in lines)

    def test_faa_exp_sin(self, capsys):
        code, out, _ = run_cli(
            capsys, "faa", "--f", "exp(y1)", "--g", "sin(x)", "--x0", "0", "--r", "3"
        )
        assert code == 0
        assert out.splitlines()[0] == "1 1 1 0"

    def test_faa_compare_jets(self, capsys):
        code, out, _ = run_cli(
            capsys, "faa", "--f", "y1*y2", "--g", "exp(x),sin(x)",
            "--x0", "0.3", "--r", "4", "--compare-jets",
        )
        assert code == 0
        assert "jets-oracle max deviation" in out

    def test_norm(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--f", "x", "--r", "1")
        assert code == 0
        fields = dict(line.split() for line in out.splitlines())
        assert float(fields["sobolev"]) == pytest.approx(2.0, abs=1e-9)

    def test_bestapprox(self, capsys):
        code, out, _ = run_cli(capsys, "bestapprox", "--f", "x^2", "--m", "1")
        assert code == 0
        fields = dict(line.split() for line in out.splitlines())
        assert float(fields["error"]) == pytest.approx(0.5, abs=1e-8)
        assert fields["converged"] == "true"

    def test_library_reproduces_cli_output(self, capsys):
        from compose_approx.expr import eval_scalar, parse
        from compose_approx.minimax import weighted_remez
        from compose_approx.weighted import JacobiWeight

        code, out, _ = run_cli(capsys, "bestapprox", "--f", "exp(x)", "--m", "6")
        fields = dict(line.split() for line in out.splitlines())
        ast = parse("exp(x)", 1)
        rep = weighted_remez(lambda x: eval_scalar(ast, x), 6, JacobiWeight(0, 0))
        assert float(fields["error"]) == pytest.approx(rep.error, rel=1e-12)
        assert int(fields["iterations"]) == rep.iterations


class TestErrorsAndExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "bell", "4", "--frob")
        assert code == 2
        assert "usage" in err

    def test_syntax_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--f", "2*", "--r", "1")
        assert code == 2
        assert "offset" in err

    @pytest.mark.parametrize(
        "command, nest",
        [
            (("norm", "--r", "1", "--f={}"), lambda d: "(" * (d - 1) + "x" + ")" * (d - 1)),
            (("norm", "--r", "1", "--f={}"), lambda d: "-" * (d - 1) + "x"),
            (
                ("faa", "--f", "exp(y1)", "--x0", "0.1", "--r", "2", "--g={}"),
                lambda d: "+".join(["x"] * d),
            ),
        ],
        ids=["parentheses", "unary-minus", "left-deep-sum"],
    )
    def test_nesting_cap(self, capsys, command, nest):
        def run(depth):
            return run_cli(capsys, *(arg.format(nest(depth)) for arg in command))

        code, _, _ = run(MAX_DEPTH)
        assert code == 0
        code, _, err = run(MAX_DEPTH + 1)
        assert code == 2
        assert "nested deeper" in err and "offset" in err
        code, _, err = run(3000)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--grid", "1000000000000", "norm", "--f", "x", "--r", "1"),
            ("--grid", "31", "norm", "--f", "x", "--r", "1"),
            ("bestapprox", "--f", "x", "--m", "1000000000"),
            ("verify", "rate", "--f", "y1", "--g", "x", "--r", "1",
             "--ms", "4..1000000000000"),
            ("verify", "rate", "--f", "y1", "--g", "x", "--r", "1",
             "--ms", "4,1000000000000"),
            ("--grid", "65537", "bestapprox", "--f", "x", "--m", "65536"),
            ("bell", "65", "3"),
            ("bell", "200", "2"),
        ],
        ids=["grid-huge", "grid-small", "m-huge", "ms-range", "ms-list", "m-past-grid",
             "bell-terms-past-cap", "bell-terms-far-past-cap"],
    )
    def test_caps_exit_two_before_allocating(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "--grid" in err or "exceeds" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_iter_below_one(self, capsys, monkeypatch, value):
        from compose_approx import cli

        monkeypatch.setattr(cli, "weighted_remez", None)  # no solve may start
        code, _, err = run_cli(capsys, "bestapprox", "--f", "x", "--m", "1",
                               "--max-iter", value)
        assert code == 2
        assert "--max-iter must be at least 1" in err

    @pytest.mark.parametrize(
        "box, message",
        [
            ("-2:2,-3:3", "2 axes for 1 inner functions"),
            ("-2:2:5", "must be lo:hi"),
            ("-2:nan", "finite"),
            ("2:-2", "lo < hi"),
        ],
        ids=["count", "three-ends", "nan", "reversed"],
    )
    def test_malformed_box(self, capsys, monkeypatch, tmp_path, box, message):
        from compose_approx import harness

        # nothing may be evaluated before the box is rejected
        for name in ("eval_scalar", "composite_jet", "weighted_sup_norm"):
            monkeypatch.setattr(harness, name, None)
        code, _, err = run_cli(
            capsys, "--out", str(tmp_path), "verify", "composite",
            "--f", "y1", "--g", "x", "--r", "2", f"--box={box}",
        )
        assert code == 2
        assert message in err
        assert not list(tmp_path.iterdir())

    def test_config_grid_capped(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=1000000000000\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "bell", "3")
        assert code == 2
        assert "--grid" in err

    def test_bell_at_the_order_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "64")
        assert code == 0
        assert int(out) == bell_count(64)

    def test_bell_terms_at_the_order_cap(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "bell", "64", "3")
        assert time.perf_counter() - t0 < 0.5
        assert code == 0
        lines = out.splitlines()
        # S(64, 3) and one line per partition of 64 into 3 parts
        assert int(lines[0]) == set_partition_count(64, 3)
        assert len(lines) == 342

    def test_jet_division_error_names_subexpression(self, capsys):
        code, _, err = run_cli(
            capsys, "faa", "--f", "y2/y1", "--g", "sin(x),cos(x)", "--x0", "0", "--r", "3"
        )
        assert code == 2
        assert "division" in err and "in 'y2/y1'" in err

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "bestapprox", "--f", "log(x)", "--m", "3")
        assert code == 2
        assert "log" in err

    def test_strict_nonconvergence_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys, "--strict", "bestapprox", "--f", "exp(x)", "--m", "10",
            "--max-iter", "1",
        )
        assert code == 3
        assert "converge" in err

    def test_help_exits_zero_everywhere(self, capsys):
        for args in (
            ["--help"],
            ["bell", "--help"],
            ["faa", "--help"],
            ["norm", "--help"],
            ["bestapprox", "--help"],
            ["verify", "--help"],
            ["verify", "lemma", "--help"],
            ["verify", "composite", "--help"],
            ["verify", "rate", "--help"],
        ):
            code, out, err = run_cli(capsys, *args)
            assert code == 0
            assert "--" in out or "usage" in out


class TestVerifySubcommands:
    def test_lemma_writes_report(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "verify", "lemma",
            "--f", "exp(x)", "--r", "2", "--k", "1",
            "--gamma", "0.5", "--delta", "0.25", "--case", "demo",
        )
        assert code == 0
        assert "holds true" in out
        payload = json.loads((tmp_path / "demo-2-0.5-0.25.json").read_text())
        assert payload["kind"] == "lemma"
        assert payload["holds"] is True

    def test_composite_writes_report(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "--grid", "513", "verify", "composite",
            "--f", "y1*y2", "--g", "x,x^2", "--r", "2", "--case", "prod",
        )
        assert code == 0
        payload = json.loads((tmp_path / "prod-2-0-0.json").read_text())
        assert payload["bell"] == 2
        assert payload["ratio"] <= 1.0

    def test_rate_writes_json_and_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "--grid", "513", "verify", "rate",
            "--f", "exp(y1)", "--g", "(1+x)^3.5", "--r", "3",
            "--ms", "8,12,16", "--case", "rt",
        )
        assert code == 0
        assert (tmp_path / "rt-3-0-0.json").exists()
        assert (tmp_path / "rt-3-0-0.csv").exists()

    def test_rate_range_spec(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "--grid", "513", "verify", "rate",
            "--f", "y1", "--g", "(1+x)^1.5", "--r", "1",
            "--ms", "4..8:2", "--case", "rng",
        )
        assert code == 0
        payload = json.loads((tmp_path / "rng-1-0-0.json").read_text())
        assert payload["ms"] == [4, 6, 8]

    def test_seed_echoed(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "--out", str(tmp_path), "--seed", "99", "--grid", "513",
            "verify", "rate", "--f", "y1", "--g", "sin(x)", "--r", "1",
            "--ms", "4,6", "--case", "sd",
        )
        assert code == 0
        payload = json.loads((tmp_path / "sd-1-0-0.json").read_text())
        assert payload["seed"] == 99


class TestConfig:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out_dir = tmp_path / "outdir"
        cfg.write_text(f"grid=513\nout={out_dir}\nseed=5  # comment\n")
        code, _, _ = run_cli(
            capsys, "--config", str(cfg), "verify", "lemma",
            "--f", "x^2", "--r", "2", "--k", "1", "--case", "cfg",
        )
        assert code == 0
        payload = json.loads((out_dir / "cfg-2-0-0.json").read_text())
        assert payload["seed"] == 5

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        out_dir = tmp_path / "envout"
        cfg.write_text(f"grid=513\nout={out_dir}\n")
        monkeypatch.setenv("COMPOSE_APPROX_CONFIG", str(cfg))
        code, _, _ = run_cli(
            capsys, "verify", "lemma", "--f", "x^2", "--r", "2", "--k", "1",
            "--case", "env",
        )
        assert code == 0
        assert (out_dir / "env-2-0-0.json").exists()

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=10\n")  # would be rejected if used
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--grid", "513",
            "norm", "--f", "x", "--r", "1",
        )
        assert code == 0

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense=1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "bell", "3")
        assert code == 2
        assert "unknown key" in err
