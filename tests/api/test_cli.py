"""Tests for the new CLI subcommands (run, list-*) at tiny scales."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_run_command_parses(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--mapper", "PAM", "MM",
                                  "--dropper", "react", "--scale", "0.002"])
        assert args.figure == "run"
        assert args.mapper == ["PAM", "MM"]
        assert args.dropper == ["react"]

    def test_list_commands_parse(self):
        parser = build_parser()
        for command in ("list-mappers", "list-droppers", "list-scenarios",
                        "list-arrivals"):
            args = parser.parse_args([command])
            assert args.figure == command

    def test_figure_commands_still_parse(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--levels", "20k", "30k",
                                  "--no-optimal"])
        assert args.figure == "fig8"
        assert args.levels == ["20k", "30k"]
        assert args.no_optimal is True


class TestListCommands:
    def test_list_mappers(self, capsys):
        assert main(["list-mappers"]) == 0
        out = capsys.readouterr().out
        for name in ("PAM", "MM", "MSD", "FCFS", "SJF", "EDF"):
            assert name in out

    def test_list_droppers(self, capsys):
        assert main(["list-droppers"]) == 0
        out = capsys.readouterr().out
        for name in ("react", "heuristic", "optimal", "threshold"):
            assert name in out

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("spec", "homogeneous", "transcoding"):
            assert name in out

    def test_list_arrivals(self, capsys):
        assert main(["list-arrivals"]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out and "uniform" in out


class TestRunCommand:
    def test_single_run(self, capsys):
        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--mapper", "PAM", "--dropper", "heuristic",
                          "--param", "beta=1.5", "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "PAM+Heuristic" in out
        assert "robustness" in out

    def test_sweep_run(self, capsys):
        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--mapper", "PAM", "MM", "--dropper", "react"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "best" in out and "PAM" in out and "MM" in out

    def test_json_output(self, capsys):
        import json

        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["mapper"] == "PAM"

    def test_numerics_flag_runs_fast_profile(self, capsys):
        import json

        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--numerics", "fast", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["numerics"] == "fast"

    def test_uncertainty_param_takes_strings(self, capsys):
        import json

        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--uncertainty", "composed", "--uncertainty-param",
                          "models=network_latency", "--json"])
        assert exit_code == 0, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["uncertainty_params"] == {
            "models": "network_latency"}

    def test_numerics_default_left_out_of_config(self, capsys):
        import json

        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "numerics" not in payload["config"]

    def test_unknown_numerics_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--numerics", "fused"])

    def test_param_with_dropper_sweep_rejected(self, capsys):
        assert main(["run", "--dropper", "heuristic", "react",
                     "--param", "beta=1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: error: --param only applies")

    def test_param_with_pinned_dropper_sweep_applies(self, capsys):
        exit_code = main(["run", "--scale", "0.002", "--trials", "1",
                          "--mapper", "PAM", "MM", "--dropper", "heuristic",
                          "--param", "beta=1.5"])
        assert exit_code == 0
        assert "best" in capsys.readouterr().out

    def test_bad_param_rejected(self, capsys):
        assert main(["run", "--param", "beta"]) == 2
        assert ("repro run: error: --param expects KEY=VALUE, got 'beta'"
                in capsys.readouterr().err)
        assert main(["run", "--param", "beta=fast"]) == 2
        assert ("repro run: error: --param beta: 'fast' is not a number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("dropper,param,message", [
        ("heuristic", "beta=nan", "beta must be >= 1, got nan"),
        ("heuristic", "eta=1.5", "eta must be an integer >= 1, got 1.5"),
        ("optimal", "improvement_factor=nan",
         "improvement_factor must be >= 1, got nan"),
    ])
    def test_bad_dropper_value_names_its_param(self, dropper, param,
                                               message, capsys):
        assert main(["run", "--scale", "0.002", "--trials", "1",
                     "--mapper", "PAM", "--dropper", dropper,
                     "--param", param]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_rejected(self, command, gamma, capsys):
        assert main([command, "--gamma", gamma]) == 2
        assert (f"repro {command}: error: gamma must be a finite number "
                f">= 0, got {gamma}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_bad_fault_param_names_its_flag(self, command, capsys):
        assert main([command, "--faults", "crash-restart",
                     "--fault-param", "mtbf"]) == 2
        assert (f"repro {command}: error: --fault-param expects KEY=VALUE, "
                "got 'mtbf'") in capsys.readouterr().err

    def test_unknown_names_print_clean_error(self, capsys):
        assert main(["run", "--mapper", "PAN"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'PAM'" in err and "Traceback" not in err
        assert main(["run", "--param", "nope=1"]) == 2
        err = capsys.readouterr().err
        assert "accepted: beta, eta" in err


class TestPlanCommand:
    def _export(self, tmp_path, name="p.json", extra=()):
        out = tmp_path / name
        code = main(["plan", "export", "--mapper", "PAM", "MM",
                     "--dropper", "react", "--scale", "0.002",
                     "--trials", "1", "--seed", "3", "--output", str(out),
                     *extra])
        assert code == 0
        return out

    def test_export_and_describe(self, capsys, tmp_path):
        out = self._export(tmp_path)
        capsys.readouterr()
        assert main(["plan", "describe", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2 cells" in text and "PAM + react" in text

    def test_export_to_stdout_is_toml(self, capsys):
        assert main(["plan", "export", "--scale", "0.002",
                     "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "[workload]" in out and "[execution]" in out

    def test_export_figure_plan(self, capsys, tmp_path):
        out = tmp_path / "fig8.json"
        assert main(["plan", "export", "--figure", "fig8", "--levels", "20k",
                     "--no-optimal", "--scale", "0.002", "--trials", "1",
                     "--output", str(out)]) == 0
        from repro.api import ExperimentPlan

        plan = ExperimentPlan.from_file(str(out))
        assert plan.num_cells() == 2  # heuristic + threshold at one level

    def test_plan_run_matches_run_command(self, capsys, tmp_path):
        out = self._export(tmp_path)
        assert main(["plan", "run", str(out)]) == 0
        plan_out = capsys.readouterr().out
        assert main(["run", "--mapper", "PAM", "MM", "--dropper", "react",
                     "--scale", "0.002", "--trials", "1", "--seed", "3"]) == 0
        run_out = capsys.readouterr().out
        assert plan_out == run_out

    def test_plan_run_interrupt_and_resume(self, capsys, tmp_path):
        out = self._export(tmp_path)
        spool = tmp_path / "sweep.jsonl"
        assert main(["plan", "run", str(out), "--spool", str(spool),
                     "--max-cells", "1"]) == 0
        captured = capsys.readouterr()
        assert "stopped after 1 of 2 cells" in captured.err
        assert main(["plan", "resume", str(spool), "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2

    def test_plan_errors_are_clean(self, capsys, tmp_path):
        assert main(["plan", "run", str(tmp_path / "missing.toml")]) == 2
        err = capsys.readouterr().err
        assert "repro plan: error" in err and "Traceback" not in err
        bad = tmp_path / "bad.json"
        bad.write_text('{"workloads": {}}')
        assert main(["plan", "describe", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'workload'" in err
        bad.write_text('{"execution": {"with_cost": "no"}}')
        assert main(["plan", "describe", str(bad)]) == 2
        assert "execution.with_cost must be true or false, got 'no'" in \
            capsys.readouterr().err
        for text, message in (
                ("[1, 2]", "plan payload must be a mapping, got list"),
                ('"s"', "plan payload must be a mapping, got str"),
                ('{"workload": [1, 2]}',
                 "plan workload must be a table, got list"),
                ('{"grid": "x"}', "plan grid must be a table, got str"),
                ('{"execution": 3}',
                 "plan execution must be a table, got int")):
            bad.write_text(text)
            assert main(["plan", "run", str(bad)]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err
        bad = tmp_path / "bad.toml"
        for gamma in ("inf", "nan"):
            bad.write_text(f"[workload]\ngammas = [{gamma}]\n")
            assert main(["plan", "run", str(bad)]) == 2
            assert (f"gamma must be a finite number >= 0, got {gamma}"
                    in capsys.readouterr().err)


class TestBenchCommand:
    def test_bench_parses(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--scale", "0.01", "--trials", "1",
                                  "--repeats", "3", "--seed", "7", "--json",
                                  "--output", "out.json"])
        assert args.figure == "bench"
        assert (args.scale, args.trials, args.repeats, args.seed) == \
            (0.01, 1, 3, 7)
        assert args.json is True
        assert args.output == "out.json"

    def test_bench_runs_and_writes_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "crossover.json"
        exit_code = main(["bench", "--scale", "0.002", "--trials", "1",
                          "--output", str(out)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "measured small-plane threshold" in captured.out
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "crossover"
        assert [w["tasks"] for w in payload["widths"]] == list(range(1, 9))

    def test_bench_zero_repeats_clean_error(self, capsys):
        assert main(["bench", "--scale", "0.002", "--trials", "1",
                     "--repeats", "0"]) == 2
        err = capsys.readouterr().err
        assert "need at least one repeat" in err and "Traceback" not in err
