"""Config parsing, subcommand orchestration, and artifact formats."""

import numpy as np
import pytest

from paroeig import cli, mesh
from paroeig.adapt import AdaptConfig
from paroeig.assembly import assemble
from paroeig.cli import (
    CliError,
    RunConfig,
    build_adapt_config,
    build_coefficients,
    main,
    parse_config,
)

BASE = """
# smoke configuration
domain=unit_square
n_orbitals=1
theta=0.5
tol1=0.05
max_refinements=6
tol2=1e-10
max_inner=40
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_and_overrides(self):
        # threads is ignored but old config files that set it still load
        assert parse_config("threads=2\n").threads == 2
        cfg = parse_config(BASE)
        assert cfg.domain == "unit_square"
        assert cfg.tol1 == 0.05
        assert cfg.max_refinements == 6
        assert cfg.seed == 0

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# only a comment\n\nseed=3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(CliError, match="line 3: unknown key 'colour'"):
            parse_config("seed=1\n\ncolour=red\n")

    @pytest.mark.parametrize("line", [
        "ell=2", "marking=uniform", "rel_gap=0.05", "minres_tol=1e-12",
        "minres_max_iter=10"])
    def test_removed_keys_are_unknown(self, line):
        # refinement is one bisection round with Dorfler marking, and the
        # cluster gap and the shifted-solve stop are fixed; the keys that
        # chose otherwise are gone
        key = line.split("=")[0]
        with pytest.raises(CliError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"seed=1\n{line}\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(CliError, match="line 2: expected key=value"):
            parse_config("seed=1\njust words\n")

    def test_bad_number_reports_line_and_type(self):
        with pytest.raises(CliError, match="line 1: expected int"):
            parse_config("n_orbitals=1.5\n")
        with pytest.raises(CliError, match="expected float for theta"):
            parse_config("theta=half\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(CliError, match="duplicate key 'seed'"):
            parse_config("seed=1\nseed=2\n")


class TestBuildAdaptConfig:
    def test_defaults_are_adapt_configs(self):
        assert build_adapt_config(RunConfig()) == AdaptConfig()

    def test_zero_budget_factor_is_off(self):
        for text, factor in (("budget_factor=0", None),
                             ("budget_factor=2", 2.0)):
            config = build_adapt_config(parse_config(text))
            assert config.budget_factor == factor


class TestBuildCoefficients:
    def test_constant_uses_scalar_keys(self):
        cfg = RunConfig(coefficients="constant", diffusion=2.5,
                        reaction=0.75)
        coeffs = build_coefficients(cfg)
        assert np.allclose(coeffs.diffusion, 2.5 * np.eye(2))
        assert coeffs.reaction == 0.75

    def test_named_cases_assemble(self):
        grid, _ = mesh.uniform_refine(
            mesh.build_initial_mesh("unit_square"), 4)
        for name in ("anisotropic", "variable"):
            system = assemble(grid, build_coefficients(
                RunConfig(coefficients=name)))
            assert system.n_dofs == 9

    def test_unknown_case_rejected(self):
        with pytest.raises(CliError, match="unknown coefficient case"):
            build_coefficients(RunConfig(coefficients="magic"))


class TestCmdRun:
    def test_smoke_run_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0].startswith("n,n_dofs,ritz_0")
        assert "wall_time" not in history[0]
        assert len(history) >= 2
        final = mesh.load(tmp_path / "mesh.txt")
        orbitals = (tmp_path / "orbitals.txt").read_text().splitlines()
        n_dofs = int(orbitals[0])
        assert n_dofs == int(history[-1].split(",")[1])
        assert len(orbitals) == 1 + n_dofs
        summary = capsys.readouterr().out.strip().split(",")
        assert int(summary[1]) == n_dofs
        assert float(summary[2]) > 2.0 * np.pi ** 2

    def test_exit_two_when_budget_exhausted(self, tmp_path):
        text = BASE.replace("tol1=0.05", "tol1=1e-12")
        path = write_config(tmp_path, text)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path)]) == 2

    def test_theta_out_of_range_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + "theta=1.5\n")
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "duplicate key" in err
        path = write_config(tmp_path,
                            BASE.replace("theta=0.5", "theta=1.5"))
        assert main(["run", "--config", path]) == 1
        assert "theta out of (0,1)" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_identical_seeds_identical_history(self, tmp_path):
        path = write_config(tmp_path, BASE + "seed=5\n")
        for sub in ("a", "b"):
            assert main(["run", "--config", path,
                         "--out", str(tmp_path / sub)]) == 0
        first = (tmp_path / "a" / "history.csv").read_bytes()
        second = (tmp_path / "b" / "history.csv").read_bytes()
        assert first == second


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("below_a_file", [False, True])
    def test_bad_out_dir_exits_one_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command, below_a_file):
        # an existing file (FileExistsError) or a path below one
        # (NotADirectoryError) cannot become the output directory
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below_a_file else taken

        def no_solve(*args, **kwargs):
            raise AssertionError("adaptive_solve ran")

        monkeypatch.setattr(cli, "adaptive_solve", no_solve)
        path = write_config(tmp_path, BASE)
        assert main([command, "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot create output directory")

    def test_unwritable_artifact_exits_one(self, tmp_path, capsys):
        # a directory where history.csv should go fails the write
        (tmp_path / "history.csv").mkdir()
        path = write_config(tmp_path, BASE)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write")
        assert "history.csv" in line


class TestCmdVerify:
    def test_six_orbitals_all_checks_pass(self, tmp_path, capsys):
        text = ("domain=unit_square\nn_orbitals=6\ntheta=0.5\n"
                "tol1=1e-12\nmax_refinements=2\ntol2=1e-10\n"
                "max_inner=40\ninitial_passes=6\n")
        path = write_config(tmp_path, text)
        code = main(["verify", "--config", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("ritz_match", "cluster_distance",
                     "quasi_orthogonality", "estimator_ratio"):
            assert f"{name} PASS" in out
        rows = (tmp_path / "verify.csv").read_text().splitlines()
        assert rows[0] == ("n,n_dofs,q,dist_a_0,dist_a_1,dist_a_2,dist_a_3,"
                           "dist_a_4,dist_a_5,"
                           "gap_0,gap_1,gap_2,gap_3,gap_4,gap_5,"
                           "eta_ratio")
        assert len(rows) == 4
        ratios = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(abs(r - 1.0) < 1e-6 for r in ratios)

    def test_orbital_count_beyond_dofs_exits_one(self, tmp_path, capsys):
        text = ("domain=unit_square\nn_orbitals=2\ninitial_passes=2\n"
                "max_refinements=1\n")
        path = write_config(tmp_path, text)
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path)]) == 1
        assert "free dofs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("domain,n_orbitals,passes", [
        # level-0 values 23.4, 96, 96, 96, 168.6: three orbitals would
        # keep two of the three 96-modes
        ("unit_square", 3, 3), ("l_shape", 2, 1)])
    def test_split_cluster_exits_one(self, tmp_path, capsys, command,
                                     domain, n_orbitals, passes):
        text = (f"domain={domain}\nn_orbitals={n_orbitals}\n"
                f"initial_passes={passes}\nmax_refinements=3\n")
        path = write_config(tmp_path, text)
        assert main([command, "--config", path,
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "splits a cluster" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "history.csv").exists()

    def test_first_mesh_with_exactly_n_dofs(self, tmp_path, capsys):
        # one pass leaves the L-shape 3 free dofs: the level-0 reference
        # takes all of them, with no guard vectors
        text = ("domain=l_shape\nn_orbitals=3\ninitial_passes=1\n"
                "max_refinements=3\n")
        path = write_config(tmp_path, text)
        code = main(["verify", "--config", path, "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""
        assert code == 0
        rows = (tmp_path / "verify.csv").read_text().splitlines()
        assert rows[1].split(",")[:2] == ["0", "3"]

    def test_l_shape_single_orbital(self, tmp_path, capsys):
        text = ("domain=l_shape\nn_orbitals=1\ntheta=0.5\ntol1=1e-12\n"
                "max_refinements=4\ntol2=1e-10\nmax_inner=40\n"
                "initial_passes=2\n")
        path = write_config(tmp_path, text)
        code = main(["verify", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "verify.csv").read_text().splitlines()
        assert rows[0] == "n,n_dofs,q,dist_a_0,gap_0,eta_ratio"
        assert len(rows) == 6

    def test_cluster_count_may_change_between_levels(self, tmp_path,
                                                     capsys):
        # four orbitals on the unit square cluster as (1, 3) on the
        # 5-dof first mesh and as (1, 2, 1) from the next level on
        text = ("domain=unit_square\nn_orbitals=4\ninitial_passes=3\n"
                "max_refinements=3\n")
        path = write_config(tmp_path, text)
        code = main(["verify", "--config", path, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == 0
        rows = [r.split(",") for r in
                (tmp_path / "verify.csv").read_text().splitlines()]
        assert rows[0][:7] == ["n", "n_dofs", "q", "dist_a_0", "dist_a_1",
                               "dist_a_2", "dist_a_3"]
        assert [r[2] for r in rows[1:]] == ["2", "3", "3"]
        assert all(len(r) == len(rows[0]) for r in rows)
        for r in rows[1:]:
            q = int(r[2])
            assert all(v != "" for v in r[3:3 + q])
            assert all(v == "" for v in r[3 + q:7])
        # the PASS/FAIL lines judge the last level, with its three
        # clusters
        last = rows[-1]
        dist = max(float(v) for v in last[3:6])
        assert f"cluster_distance PASS {dist!r}" in captured.out


    def test_variable_case_all_checks_pass(self, tmp_path, capsys):
        # callable coefficients end to end: array sampling, the
        # divergence term and the reference estimate on every level
        text = ("domain=l_shape\ncoefficients=variable\nn_orbitals=3\n"
                "initial_passes=2\nmax_refinements=10\ntol2=1e-10\n"
                "max_inner=40\ntol1=1e-10\n")
        path = write_config(tmp_path, text)
        code = main(["verify", "--config", path, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [line.split()[:2] for line in captured.out.splitlines()] == [
            ["ritz_match", "PASS"], ["cluster_distance", "PASS"],
            ["quasi_orthogonality", "PASS"], ["estimator_ratio", "PASS"]]
        assert code == 0

    def test_reference_estimate_samples_nothing_again(self, tmp_path,
                                                      monkeypatch):
        # verify hands each level's element data to its reference
        # estimate, so it evaluates the coefficients exactly as often as
        # run does
        calls = {"diffusion": 0, "reaction": 0}
        variable = cli._NAMED_CASES["variable"]()

        def counting():
            def diffusion(x, y):
                calls["diffusion"] += 1
                return variable.diffusion(x, y)

            def reaction(x, y):
                calls["reaction"] += 1
                return variable.reaction(x, y)

            return cli.Coefficients(diffusion, reaction)

        monkeypatch.setitem(cli._NAMED_CASES, "variable", counting)
        text = ("domain=l_shape\ncoefficients=variable\nn_orbitals=1\n"
                "tol1=1e-12\nmax_refinements=2\ninitial_passes=2\n")
        path = write_config(tmp_path, text)
        counts = []
        for command in ("run", "verify"):
            calls.update(diffusion=0, reaction=0)
            main([command, "--config", path, "--out", str(tmp_path)])
            counts.append(dict(calls))
        assert counts[0]["diffusion"] > 0
        assert counts[1] == counts[0]

class TestCmdSpectrum:
    def test_prints_closed_form_values(self, capsys):
        assert main(["spectrum", "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(v) for v in lines]
        assert values[0] == pytest.approx(2.0 * np.pi ** 2, rel=1e-12)
        assert values[1] == values[2]
        assert values[1] == pytest.approx(5.0 * np.pi ** 2, rel=1e-12)

