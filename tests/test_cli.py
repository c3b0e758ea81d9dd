"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["hpcg"],
            ["validate"],
            ["project"],
            ["roofline"],
            ["trace"],
            ["ablation"],
            ["memory"],
            ["energy"],
            ["fit"],
        ],
    )
    def test_all_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.fn)

    @pytest.mark.parametrize("fmt", ["auto", "csr", "ell"])
    def test_format_flag_parses(self, fmt):
        args = build_parser().parse_args(["run", "--format", fmt])
        assert args.matrix_format == fmt

    @pytest.mark.parametrize("fmt", ["coo", "sell" + "cs"])
    def test_format_flag_rejects_unknown(self, fmt, capsys):
        """An unregistered format — including the retired sliced-ELL
        one — is argparse's choice error, naming the formats left."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--format", fmt])
        err = capsys.readouterr().err.replace("'", "")
        assert "invalid choice" in err and "choose from auto, csr, ell)" in err


class TestCommands:
    def test_validate(self, capsys):
        rc = main(
            ["validate", "--local-nx", "16", "--validation-max-iters", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "n_d" in out and "penalty" in out

    def test_run_json(self, capsys):
        rc = main(
            [
                "run", "--local-nx", "16", "--max-iters", "8",
                "--validation-max-iters", "60", "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mxp"]["iterations"] == 8
        assert 0 < data["validation"]["penalty"] <= 1

    def test_run_precision_ladder(self, capsys):
        """A laddered mxp phase runs end-to-end from the CLI."""
        rc = main(
            [
                "run", "--local-nx", "16", "--max-iters", "4",
                "--validation-max-iters", "60",
                "--precision-ladder", "fp32:fp64", "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["precision_ladder"] == "fp32:fp64"
        assert data["mxp"]["iterations"] == 4

    def test_run_report(self, capsys):
        rc = main(
            [
                "run", "--local-nx", "16", "--max-iters", "5",
                "--validation-max-iters", "60",
            ]
        )
        assert rc == 0
        assert "HPG-MxP Benchmark" in capsys.readouterr().out

    def test_hpcg(self, capsys):
        rc = main(["hpcg", "--local-nx", "16", "--max-iters", "4"])
        assert rc == 0
        assert "GFLOP/s" in capsys.readouterr().out

    def test_project(self, capsys):
        rc = main(["project", "--nodes", "1", "9408"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "17.2" in out  # total PF at 9408
        assert "fp16" in out

    def test_project_k80(self, capsys):
        rc = main(["project", "--machine", "k80", "--nodes", "1", "4"])
        assert rc == 0
        assert "k80" in capsys.readouterr().out

    def test_roofline(self, capsys):
        rc = main(["roofline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ortho_cgs2_fp64" in out

    def test_trace_with_export(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        rc = main(["trace", "--size", "40", "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "exposed" in out  # 40^3 is the coarse, exposed case
        assert json.loads(out_file.read_text())["traceEvents"]

    def test_trace_fine_overlapped(self, capsys):
        rc = main(["trace", "--size", "320"])
        assert rc == 0
        assert "fully overlapped" in capsys.readouterr().out

    def test_ablation(self, capsys):
        rc = main(["ablation"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "level-scheduled GS" in out

    def test_memory(self, capsys):
        rc = main(["memory", "--local-nx", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mxp/double memory ratio" in out
        assert "matrix-free" in out

    def test_energy(self, capsys):
        rc = main(["energy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "energy saving" in out

    def test_fit(self, capsys):
        rc = main(["fit", "--sizes", "16", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iters ~" in out

    def test_compliance_scaled_config(self, capsys):
        rc = main(["compliance", "--local-nx", "16"])
        out = capsys.readouterr().out
        assert rc == 1  # deviations -> nonzero exit
        assert "deviations" in out

    def test_save_results_document(self, capsys, tmp_path):
        path = tmp_path / "out.yaml"
        rc = main(
            [
                "run", "--local-nx", "16", "--max-iters", "5",
                "--validation-max-iters", "60", "--save", str(path),
            ]
        )
        assert rc == 0
        assert "Final Summary" in path.read_text()

    def test_figures_export(self, capsys, tmp_path):
        rc = main(["figures", "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig4_weak_scaling.csv").exists()
        assert (tmp_path / "fig9_overlap.csv").exists()
