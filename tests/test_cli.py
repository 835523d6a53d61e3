"""Command-line front end: reports, exit codes, determinism.

Reference values used below are the ones established in the other test
modules: beta_0 of the 2x2 matrix algebra is 1/4 (square of the trace
weight sum over blocks), beta_0 of the group algebra of Z/3 is 1/3, the
one-dimensional algebra has beta_0 = 1, and the product of an 8-dim
finite quantum group with the dual of F_2 has first Betti number
(2 - 1) / 8 = 1/8.
"""

import json
import subprocess
import sys

import pytest

from l2betti import cli, homology
from l2betti.cli import (
    EXIT_CEILING,
    EXIT_CHECK,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    CliError,
    main,
    run_suite,
)
from l2betti.config import RunConfig

M2 = {"kind": "multi_matrix", "blocks": [2], "weights": ["1/2"]}
ONE_DIM = {"kind": "group", "cayley": [[0]]}
Z3 = {"kind": "group", "cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
QG_PRODUCT = {
    "kind": "product",
    "left": {"kind": "finite_qg", "dim": 8},
    "right": {"kind": "free_group_dual", "k": 2},
}
COAMENABLE_PRODUCT = {
    "kind": "product",
    "left": {"kind": "coamenable_infinite"},
    "right": {"kind": "free_group_dual", "k": 3},
}


def write_json(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.backend == "exact"
        assert config.trials == 100
        assert config.max_degree == 2

    def test_public_dict_excludes_output_path(self):
        config = RunConfig(out="somewhere.json")
        public = config.public_dict()
        assert "out" not in public
        assert public["backend"] == "exact"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "symbolic"},
            {"tolerance": 0.0},
            {"tolerance": -1.0},
            {"ceiling": 0},
            {"trials": 0},
            {"max_degree": -1},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestBettiCommand:
    def test_matrix_algebra_values(self, tmp_path, capsys):
        path = write_json(tmp_path, "m2.json", M2)
        code, report, _ = run_cli(capsys, ["betti", path, "--max-degree", "2"])
        assert code == EXIT_OK
        assert report["command"] == "betti"
        assert report["values"] == {"0": "1/4", "1": "0", "2": "0"}
        assert report["stabilized"] is True
        assert report["algebra"]["kind"] == "multi_matrix"

    def test_stabilized_false_reaches_report(self, tmp_path, capsys, monkeypatch):
        real = homology.dim_module
        monkeypatch.setattr(homology, "dim_module", lambda x: real(x) + 1)
        path = write_json(tmp_path, "m2.json", M2)
        code = main(["betti", path, "--max-degree", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert '"stabilized": false' in out
        assert json.loads(out)["values"] == {"0": "1/4", "1": "0"}

    def test_one_dimensional_algebra(self, tmp_path, capsys):
        path = write_json(tmp_path, "one.json", ONE_DIM)
        code, report, _ = run_cli(capsys, ["betti", path, "--max-degree", "0"])
        assert code == EXIT_OK
        assert report["values"] == {"0": "1"}

    def test_group_algebra_values(self, tmp_path, capsys):
        path = write_json(tmp_path, "z3.json", Z3)
        code, report, _ = run_cli(capsys, ["betti", path, "--max-degree", "1"])
        assert code == EXIT_OK
        assert report["values"] == {"0": "1/3", "1": "0"}

    def test_rationals_rendered_in_lowest_terms(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "blocks.json",
            {"kind": "multi_matrix", "blocks": [2, 1], "weights": ["1/4", "1/2"]},
        )
        code, report, _ = run_cli(capsys, ["betti", path, "--max-degree", "0"])
        assert code == EXIT_OK
        assert report["values"]["0"] == "5/16"

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        path = write_json(tmp_path, "m2.json", M2)
        out = tmp_path / "report.json"
        code = main(["betti", path, "--max-degree", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["values"] == {"0": "1/4"}

    def test_config_echoed_in_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "m2.json", M2)
        code, report, _ = run_cli(
            capsys, ["betti", path, "--max-degree", "1", "--ceiling", "500000"]
        )
        assert code == EXIT_OK
        assert report["config"]["max_degree"] == 1
        assert report["config"]["ceiling"] == 500000
        assert "timing" in report


class TestCatalogCommand:
    def test_product_first_betti(self, tmp_path, capsys):
        path = write_json(tmp_path, "qg.json", QG_PRODUCT)
        code, report, _ = run_cli(capsys, ["catalog", path])
        assert code == EXIT_OK
        assert report["betti"] == {"1": "1/8"}
        assert report["descriptor"] == QG_PRODUCT

    def test_coamenable_product_vanishes(self, tmp_path, capsys):
        path = write_json(tmp_path, "coam.json", COAMENABLE_PRODUCT)
        code, report, _ = run_cli(capsys, ["catalog", path])
        assert code == EXIT_OK
        assert report["betti"] == {}

    def test_cocommutative_arm_recomputes(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "cocomm.json",
            {"kind": "cocommutative_finite", "cayley": Z3["cayley"]},
        )
        code, report, _ = run_cli(capsys, ["catalog", path])
        assert code == EXIT_OK
        assert report["betti"] == {"0": "1/3"}

    def test_algebra_file_arm(self, tmp_path, capsys):
        algebra_path = write_json(tmp_path, "m2.json", M2)
        path = write_json(
            tmp_path,
            "alg.json",
            {"kind": "finite_dim_algebra", "path": algebra_path},
        )
        code, report, _ = run_cli(capsys, ["catalog", path, "--max-degree", "1"])
        assert code == EXIT_OK
        assert report["betti"] == {"0": "1/4"}

    def test_relative_algebra_path_follows_descriptor(
        self, tmp_path, capsys, monkeypatch
    ):
        data = tmp_path / "data"
        data.mkdir()
        write_json(data, "m2.json", M2)
        descriptor = {
            "kind": "product",
            "left": {"kind": "finite_dim_algebra", "path": "m2.json"},
            "right": {"kind": "finite_qg", "dim": 2},
        }
        path = write_json(data, "alg.json", descriptor)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, report, _ = run_cli(capsys, ["catalog", path, "--max-degree", "1"])
        assert code == EXIT_OK
        assert report["betti"] == {"0": "1/8"}
        assert report["descriptor"] == descriptor
        # the descriptor path itself may be relative to the working directory
        monkeypatch.chdir(tmp_path)
        code, report, _ = run_cli(
            capsys, ["catalog", "data/alg.json", "--max-degree", "1"]
        )
        assert code == EXIT_OK
        assert report["betti"] == {"0": "1/8"}


class TestExitCodes:
    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["betti", str(tmp_path / "missing.json")])
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code, _, _ = run_cli(capsys, ["betti", str(path)])
        assert code == EXIT_PARSE

    def test_unknown_algebra_kind_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "unk.json", {"kind": "septonion"})
        code, _, _ = run_cli(capsys, ["betti", path])
        assert code == EXIT_PARSE

    def test_unknown_descriptor_kind_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "unk.json", {"kind": "septonion"})
        code, _, _ = run_cli(capsys, ["catalog", path])
        assert code == EXIT_PARSE

    def test_inconsistent_algebra_is_validation_error(self, tmp_path, capsys):
        bad = {"kind": "multi_matrix", "blocks": [2], "weights": ["1/3"]}
        path = write_json(tmp_path, "bad.json", bad)
        code, _, err = run_cli(capsys, ["betti", path])
        assert code == EXIT_INVALID
        assert "error:" in err

    def test_ceiling_exceeded(self, tmp_path, capsys):
        path = write_json(tmp_path, "m2.json", M2)
        code, _, err = run_cli(
            capsys, ["betti", path, "--max-degree", "5", "--ceiling", "100"]
        )
        assert code == EXIT_CEILING
        assert "ceiling" in err

    def test_usage_error_is_parse_error(self, capsys):
        assert main(["verify", "no-such-suite"]) == EXIT_PARSE
        assert main(["no-such-command"]) == EXIT_PARSE
        capsys.readouterr()

    def test_invalid_config_is_validation_error(self, capsys):
        assert main(["verify", "lemmas", "--trials", "0"]) == EXIT_INVALID
        assert main(["verify", "lemmas", "--tolerance", "-1"]) == EXIT_INVALID
        capsys.readouterr()

    def test_failed_check_maps_to_exit_four(self, monkeypatch, capsys):
        def forced_failure(rng, config):
            return [{"name": "forced", "status": "fail", "left": "0", "right": "1"}]

        monkeypatch.setitem(cli._SUITE_RUNNERS, "kuenneth-chain", forced_failure)
        code, report, _ = run_cli(capsys, ["verify", "kuenneth-chain"])
        assert code == EXIT_CHECK
        assert report["failures"] == 1
        assert report["checks"][0]["status"] == "fail"


class TestVerifyCommand:
    def test_kuenneth_chain_suite_passes(self, capsys):
        code, report, _ = run_cli(
            capsys, ["verify", "kuenneth-chain", "--seed", "3", "--trials", "4"]
        )
        assert code == EXIT_OK
        assert report["suite"] == "kuenneth-chain"
        assert report["failures"] == 0
        assert len(report["checks"]) == 4
        for entry in report["checks"]:
            assert set(entry) == {"name", "status", "left", "right"}
            assert entry["status"] == "pass"
            assert entry["left"] != ""

    def test_kuenneth_betti_suite_passes(self, capsys):
        code, report, _ = run_cli(
            capsys, ["verify", "kuenneth-betti", "--max-degree", "1"]
        )
        assert code == EXIT_OK
        assert report["failures"] == 0
        named = {entry["name"]: entry for entry in report["checks"]}
        pair = named["kuenneth-betti[cyclic2 x cyclic3]"]
        assert pair["left"] == "0:1/6 1:0"
        assert pair["left"] == pair["right"]
        assert named["stabilized[cyclic2 x cyclic3]"]["status"] == "pass"

    def test_lemmas_suite_passes_on_both_backends(self, capsys):
        code, report, _ = run_cli(
            capsys, ["verify", "lemmas", "--seed", "42", "--trials", "3"]
        )
        assert code == EXIT_OK
        assert report["failures"] == 0
        names = {entry["name"].split("[")[0] for entry in report["checks"]}
        assert names == {"image-dim-gns", "projective-descent", "induced-map-routes"}

        code, report, _ = run_cli(
            capsys,
            ["verify", "lemmas", "--seed", "42", "--trials", "3", "--backend", "float"],
        )
        assert code == EXIT_OK
        assert report["failures"] == 0
        names = {entry["name"].split("[")[0] for entry in report["checks"]}
        assert "image-dim-gns-float" in names

    def test_dim_mult_suite_passes(self, capsys):
        code, report, _ = run_cli(
            capsys, ["verify", "dim-mult", "--seed", "5", "--trials", "2"]
        )
        assert code == EXIT_OK
        assert report["failures"] == 0
        names = {entry["name"].split("[")[0] for entry in report["checks"]}
        assert names == {"dim-mult", "flip-trace", "flip-mult"}

    def test_reports_are_deterministic_for_fixed_seed(self, capsys):
        def body(args):
            code, report, _ = run_cli(capsys, args)
            assert code == EXIT_OK
            report.pop("timing")
            return json.dumps(report, sort_keys=True)

        args = ["verify", "lemmas", "--seed", "11", "--trials", "4"]
        assert body(args) == body(args)

    def test_different_seeds_draw_different_checks(self, capsys):
        def left_values(seed):
            _, report, _ = run_cli(
                capsys, ["verify", "kuenneth-chain", "--seed", seed, "--trials", "3"]
            )
            return [entry["left"] for entry in report["checks"]]

        assert left_values("0") != left_values("99")

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(CliError):
            run_suite("fourier", RunConfig())


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        path = write_json(tmp_path, "m2.json", M2)
        proc = subprocess.run(
            [sys.executable, "-m", "l2betti.cli", "betti", path, "--max-degree", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["values"] == {"0": "1/4"}
