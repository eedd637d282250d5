"""CLI subcommands: exit codes, file outputs, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridpulse

from gridpulse.cli import main
from gridpulse.config import load_config, run_document
from gridpulse.timing import delay_keys, sample_delays
from gridpulse.topology import build_layered

BASE_DOC = {
    "schema": 1,
    "topology": {"kind": "line_replicated", "m": 4},
    "layers": 5,
    "pulses": 4,
    "params": {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0, "C": 2.0},
    "source": {"kind": "ideal", "jitter": 0.001, "seed": 3},
    "delays": {"strategy": "uniform-random", "seed": 11},
    "clocks": {"strategy": "uniform", "seed": 13},
}


def write_config(tmp_path: Path, doc: dict, name="run.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def read_all(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestRun:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("trace.csv", "snapshots.csv", "report.json", "run.json", "report.txt"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_all(out1) == read_all(out2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byte_identical_across_processes(self, tmp_path, seed):
        """The README's run config (faults, corrupted start, perturbation) gives
        the same five files in two processes with different string hashing."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        doc = yaml.safe_load(re.search(r"```yaml\n(schema:.*?)```", readme, re.S).group(1))
        for section in ("source", "delays", "clocks", "corruption", "perturbation"):
            doc[section] = dict(doc[section], seed=seed)
        cfg = write_config(tmp_path, doc)
        src = str(Path(gridpulse.__file__).resolve().parent.parent)
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"out{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from gridpulse.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "run", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode in (0, 1), proc.stderr
            runs.append((proc.returncode, read_all(out)))
        assert len(runs[0][1]) == 5
        assert runs[0] == runs[1]

    def test_invalid_regime_exit_two(self, tmp_path, capsys):
        doc = dict(BASE_DOC, params=dict(BASE_DOC["params"], Lambda=1.0001))
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "period margin" in capsys.readouterr().err

    def test_unreadable_config_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_yaml_syntax_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("params: {d: 1.0\n  u: }")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        doc = dict(BASE_DOC, perturbaton={"delay_magnitude": 1e-4})
        code = main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "perturbaton: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,force", [
        ({"faults": {"placement": [{"vertex": 4, "layer": 3, "behavior": {"kind": "silent"}}]}},
         False),
        ({"params": {"d": 1.0, "u": 0.5, "theta": 1.0002, "Lambda": 2.0}}, True),
    ], ids=["silent_fault", "split_wave"])
    def test_simplified_outside_its_regime_exit_two(self, tmp_path, capsys, edit, force):
        doc = dict(BASE_DOC, machine="simplified", **edit)
        args = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")]
        assert main(args + ["--force"] * force) == 2
        assert "machine 'simplified'" in capsys.readouterr().err

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "env-out"
        monkeypatch.setenv("GRIDPULSE_OUT", str(out))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out / "report.json").exists()


class TestVerify:
    def test_round_trip_passes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert (out / "verify.json").exists()

    def test_tampered_trace_fails(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        trace = (out / "trace.csv").read_text().splitlines()
        # push one layer-3 pulse far off schedule (~10 kappa)
        for i, line in enumerate(trace):
            if line.startswith("3,4,2,"):
                parts = line.split(",")
                parts[3] = format(float(parts[3]) + 0.044, ".17g")
                trace[i] = ",".join(parts)
                break
        (out / "trace.csv").write_text("\n".join(trace) + "\n")
        assert main(["verify", str(out)]) == 1

    @pytest.mark.parametrize("name,row", [
        ("trace.csv", "3,99,1,6.0,6.0"),  # vertex outside the graph
        ("trace.csv", "3,4,1,6.0"),  # a field missing
        ("trace.csv", "3,4,1,abc,6.0"),  # a time that is not a number
        ("snapshots.csv", "1,0,1,1.0,1.0,1.0,0"),  # a field missing
        ("snapshots.csv", "1,0,0,1.0,1.0,1.0,0,corrected"),  # pulse index below 1
    ])
    def test_malformed_row_exit_two(self, tmp_path, capsys, name, row):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        with (out / name).open("a") as fh:
            fh.write(row + "\n")
        assert main(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and re.search(rf"{name}:\d+: ", err)

    @pytest.mark.parametrize("names,edit,blamed", [
        (("trace.csv",), lambda lines: lines + ["3,4,9,20.0,20.0"], "trace.csv"),
        (("trace.csv",), lambda lines: [x for x in lines if not x.startswith("3,4,2,")],
         "trace.csv"),
        (("trace.csv",), lambda lines: lines[:3] + lines[2:], "trace.csv"),
        (("trace.csv",), lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], "trace.csv"),
        (("trace.csv",), lambda lines: [x for x in lines if not x.startswith("3,4,4,")],
         "snapshots.csv"),
        (("snapshots.csv",), lambda lines: [lines[0] + "x", *lines[1:]], "snapshots.csv"),
        (("snapshots.csv",), None, "snapshots.csv"),
        (("snapshots.csv",), lambda lines: [lines[0], *(x.rsplit(",", 1)[0] + ",bogus"
                                                        for x in lines[1:])], "snapshots.csv:2:"),
        (("snapshots.csv",), lambda lines: [lines[0], *(x.rsplit(",", 1)[0] + ","
                                                        for x in lines[1:])], "snapshots.csv:2:"),
        (("trace.csv", "snapshots.csv"), lambda lines: [x for x in lines
                                                        if not x.startswith("5,4,")], "run.json"),
        (("run.json",), lambda lines: [json.dumps(dict(json.loads("\n".join(lines)),
                                                       validation_violations=["tampered"]))],
         "run.json"),
    ], ids=["row_after_the_last", "pulse_gap", "duplicate_row", "rows_swapped",
            "snapshot_without_pulse", "snapshot_header", "snapshots_deleted", "arm_bogus",
            "arm_empty", "node_deleted", "validation_tampered"])
    def test_files_run_never_writes_exit_two(self, tmp_path, capsys, names, edit, blamed):
        """verify reads the files in the layout that run writes (rows in
        (layer, vertex, pulse) order, each node's pulses 1..count, every
        snapshot on a pulse with an arm that run writes, both headers,
        snapshots.csv present, run.json's completed and incomplete_nodes as
        the pulse counts give them and its validation_violations as the params
        give them) and rejects any other, naming the file."""
        doc = dict(BASE_DOC, topology={"kind": "line_replicated", "m": 8}, layers=6)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        for name in names:
            if edit is None:
                (out / name).unlink()
            else:
                lines = (out / name).read_text().splitlines()
                (out / name).write_text("\n".join(edit(lines)) + "\n")
        assert main(["verify", str(out)]) == 2
        assert blamed in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"perturbation": {"delay_magnitude": 1e-4, "rate_magnitude": 1e-6, "seed": 5}},
        {"faults": {"placement": [{"vertex": 3, "layer": 2, "behavior": {
            "kind": "per_pulse_offset", "offsets": [0.2, -0.3, 0.1]}}]}},
        {"faults": {"placement": [{"vertex": 3, "layer": 2, "behavior": {
            "kind": "fixed_offset", "offset": -0.4, "recipients": [2, 3]}}]}},
        {"corruption": {"node_fraction": 1.0, "max_spurious_messages": 4, "seed": 7}},
        {"source": {"kind": "chain"}},
        {"machine": "simplified"},
    ], ids=["perturbed", "per_pulse_offset", "fixed_offset", "corrupted", "chain", "simplified"])
    def test_verify_reproduces_run(self, tmp_path, edit):
        cfg = write_config(tmp_path, dict(BASE_DOC, **edit))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert main(["verify", str(out)]) == code
        assert (out / "verify.json").read_bytes() == (out / "report.json").read_bytes()

    def test_forced_run_outside_the_regime_keeps_its_violations(self, tmp_path):
        """A run forced outside the validated regime verifies with the
        violations its params give, and to the same verdict."""
        doc = dict(BASE_DOC, params=dict(BASE_DOC["params"], Lambda=1.0001))
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out),
                     "--force"])
        violations = json.loads((out / "run.json").read_text())["validation_violations"]
        assert violations and violations[0].startswith("period margin")
        assert main(["verify", str(out)]) == code
        assert (out / "verify.json").read_bytes() == (out / "report.json").read_bytes()

    def test_custom_map_rows_reproduce_the_drawn_delays(self, tmp_path):
        """A delays.map holding a uniform-random draw gives that draw's run."""
        drawn = tmp_path / "drawn"
        assert main(["run", "--config", str(write_config(tmp_path, BASE_DOC)),
                     "--out", str(drawn)]) == 0
        cfg = load_config(tmp_path / "run.yaml")
        graph = build_layered(cfg.base, cfg.layers)
        dag, chain = sample_delays(graph, cfg.params, "uniform-random", seed=cfg.delay_seed)
        values = [*dag[~np.isnan(dag)].tolist(), *chain.tolist()]  # the real slots, in C order
        rows = [[*key, value] for key, value in zip(delay_keys(graph), values)]
        doc = dict(BASE_DOC, delays={"strategy": "custom-map", "map": rows})
        mapped = tmp_path / "mapped"
        assert main(["run", "--config", str(write_config(tmp_path, doc, "map.yaml")),
                     "--out", str(mapped)]) == 0
        assert main(["verify", str(mapped)]) == 0
        for name in ("trace.csv", "snapshots.csv", "report.json"):
            assert (mapped / name).read_bytes() == (drawn / name).read_bytes()

    def test_old_run_schema_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        meta = json.loads((out / "run.json").read_text())
        (out / "run.json").write_text(json.dumps(dict(meta, schema="gridpulse-run/1")))
        assert main(["verify", str(out)]) == 2
        assert "re-run" in capsys.readouterr().err

    def test_empty_dir_exit_two(self, tmp_path):
        assert main(["verify", str(tmp_path / "nothing")]) == 2

    def test_empty_trace_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        (out / "trace.csv").write_text("layer,vertex,pulse,time_real,time_local\n")
        assert main(["verify", str(out)]) == 2


class TestConfigErrors:
    BAD_RUN = dict(BASE_DOC, delays={"strategy": "fastest"})

    @pytest.mark.parametrize("command", ["run", "verify", "sweep", "stabilize", "faults-mc"])
    def test_exit_two_with_config_error(self, tmp_path, capsys, command):
        """``main`` turns a ConfigurationError into exit 2 for every subcommand,
        also when a batch trial raises it."""
        if command == "run":
            args = ["--config", str(write_config(tmp_path, self.BAD_RUN))]
        elif command == "verify":
            args = [str(tmp_path)]  # holds no run
        else:
            args = ["--config", str(write_config(tmp_path, {"run": self.BAD_RUN, "seeds": [1]}))]
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command,flag", [
        ("run", ["--jobs", "2"]), ("verify", ["--jobs", "2"]),
        ("stabilize", ["--checks", "skew"]), ("faults-mc", ["--checks", "skew"]),
    ])
    def test_flag_the_command_does_not_read_exits_two(self, tmp_path, capsys, command, flag):
        """--jobs belongs to the batch commands and --checks to those that
        build reports; argparse rejects either elsewhere."""
        args = ([str(tmp_path)] if command == "verify"
                else ["--config", str(write_config(tmp_path, BASE_DOC))])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


    @pytest.mark.parametrize("command,edit,path", [
        ("sweep", {"seeds": ["3", 4, 5]}, "seeds[0]"),
        ("sweep", {"seeds": [3, 4.7]}, "seeds[1]"),
        ("sweep", {"seeds": [True]}, "seeds[0]"),
        ("sweep", {"seeds": 3}, "seeds"),
        ("sweep", {"seeds": {"start": "1", "count": 2}}, "seeds.start"),
        ("sweep", {"seeds": {"start": 1, "count": 2.0}}, "seeds.count"),
        ("sweep", {"seeds": {"start": 1, "count": 0}}, "seeds"),
        ("sweep", {"sweep": {"topology.m": 8}}, "sweep.topology.m"),
        ("sweep", {"sweep": ["topology.m"]}, "sweep"),
        ("sweep", {"sweep": {"layers.count": [2]}}, "layers.count"),
        ("faults-mc", {"trials": 2.9}, "trials"),
        ("faults-mc", {"trials": -3}, "trials"),
        ("faults-mc", {"fault_probability": "0.1"}, "fault_probability"),
        ("faults-mc", {"fault_probability": True}, "fault_probability"),
        ("faults-mc", {"behavior_changes_per_pulse": "2"}, "behavior_changes_per_pulse"),
        ("faults-mc", {"behavior_mix": "silent"}, "behavior_mix"),
        ("stabilize", {"corruption": [1, 2]}, "corruption"),
        ("stabilize", {"corruption": {"node_fraction": "1.0"}}, "corruption.node_fraction"),
        ("stabilize", {"corruption": {"fraction": 1.0}}, "corruption.fraction"),
        ("stabilize", {"run": [BASE_DOC]}, "run"),
    ])
    def test_malformed_batch_value_exit_two(self, tmp_path, capsys, command, edit, path):
        """Batch values are read as strictly as run values, and a malformed
        one exits 2 naming its key path."""
        doc = dict({"run": BASE_DOC, "seeds": [1]}, **edit)
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")


class TestSweep:
    def test_rows_and_determinism(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC),
            "sweep": {"topology.m": [2, 3]},
            "seeds": [1, 2],
        }
        cfg = write_config(tmp_path, doc, "sweep.yaml")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        rows = json.loads((out1 / "sweep.json").read_text())["rows"]
        assert len(rows) == 4
        assert all(row["within_budget"] for row in rows)
        assert read_all(out1) == read_all(out2)

    def test_empty_axes_single_point(self, tmp_path):
        doc = {"run": dict(BASE_DOC), "seeds": [5]}
        cfg = write_config(tmp_path, doc, "sweep.yaml")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert len(rows) == 1

    @pytest.mark.parametrize("doc,path", [
        ({"run": dict(BASE_DOC, clocks={"strategy": "uniform", "sed": 1}), "seeds": [1]},
         "clocks.sed"),
        ({"run": dict(BASE_DOC), "seeds": [1], "sweeps": {"topology.m": [2, 3]}}, "sweeps"),
    ])
    def test_unknown_key_exit_two(self, tmp_path, capsys, doc, path):
        cfg = write_config(tmp_path, doc, "sweep.yaml")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert f"{path}: unknown key" in capsys.readouterr().err


class TestStabilize:
    def test_rows_within_limit(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC, layers=6, pulses=10),
            "seeds": [1, 2],
            "corruption": {"node_fraction": 1.0, "max_spurious_messages": 4},
        }
        cfg = write_config(tmp_path, doc, "stab.yaml")
        out = tmp_path / "st"
        assert main(["stabilize", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "stabilize.json").read_text())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["within_limit"]
            assert row["ratio"] == pytest.approx(
                row["stabilization_pulse"] / row["sqrt_n"])


class TestFaultsMc:
    def test_trials_report(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC, layers=6, pulses=5),
            "seeds": [0],
            "trials": 6,
            "fault_probability": 0.02,
            "behavior_mix": ["silent", "fixed_offset_plus", "burst"],
        }
        cfg = write_config(tmp_path, doc, "mc.yaml")
        out = tmp_path / "mc"
        code = main(["faults-mc", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "faults_mc.json").read_text())["rows"]
        assert len(rows) == 6
        for row in rows:
            if not row["rejected"]:
                assert row["envelope_violations"] == 0

    def test_unknown_behavior_exit_two(self, tmp_path, capsys):
        doc = {
            "run": dict(BASE_DOC, layers=6, pulses=5),
            "seeds": [0],
            "fault_probability": 0.02,
            "behavior_mix": ["silent", "fixed_ofset_plus"],
        }
        cfg = write_config(tmp_path, doc, "mc.yaml")
        code = main(["faults-mc", "--config", str(cfg), "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "behavior_mix[1]" in capsys.readouterr().err

    def test_probability_zero_reduces_to_fault_free(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC, layers=6, pulses=5),
            "seeds": [0],
            "trials": 2,
            "fault_probability": 0.0,
        }
        cfg = write_config(tmp_path, doc, "mc.yaml")
        out = tmp_path / "mc"
        assert main(["faults-mc", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "faults_mc.json").read_text())["rows"]
        assert all(row["n_faults"] == 0 and row["within_budget"] for row in rows)


class TestJobs:
    def test_parallel_sweep_matches_serial(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC),
            "sweep": {"topology.m": [2, 3]},
            "seeds": [1, 2],
        }
        cfg = write_config(tmp_path, doc, "sweep.yaml")
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(parallel),
                     "--jobs", "2"]) == 0
        assert read_all(serial) == read_all(parallel)


class TestReportSchema:
    def test_report_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "gridpulse-report/1"
        for key in ("checks", "skew", "kappa", "diameter", "passed",
                    "validation_violations", "completed"):
            assert key in report
        meta = json.loads((out / "run.json").read_text())
        assert meta["schema"] == "gridpulse-run/2"
        assert meta["config"]["topology"] == {"kind": "line_replicated", "m": 4}
        assert meta["config"] == run_document(load_config(cfg))

    def test_sweep_aggregates_present(self, tmp_path):
        doc = {"run": dict(BASE_DOC), "sweep": {"topology.m": [2, 3]}, "seeds": [1, 2]}
        cfg = write_config(tmp_path, doc, "sweep.yaml")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        aggregates = payload["aggregates"]
        assert len(aggregates) == 2  # one per axis point
        for entry in aggregates:
            assert entry["rows"] == 2
            assert entry["max_layer_skew_max"] >= entry["max_layer_skew_median"]


class TestVaryingFaults:
    def test_per_pulse_offset_mix_reports_period_unasserted(self, tmp_path):
        doc = {
            "run": dict(BASE_DOC, layers=6, pulses=5),
            "seeds": [0],
            "trials": 8,
            "fault_probability": 0.05,
            "behavior_mix": ["per_pulse_offset", "silent"],
            "behavior_changes_per_pulse": 1,
        }
        cfg = write_config(tmp_path, doc, "mc.yaml")
        out = tmp_path / "mc"
        code = main(["faults-mc", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "faults_mc.json").read_text())["rows"]
        ran = [r for r in rows if not r["rejected"]]
        assert all(r["envelope_violations"] == 0 for r in ran)
        static = [r for r in ran if not r["n_faults"]]
        assert static  # probability is low enough that some trials are clean
        assert all(r["period_violations"] == 0 for r in static)


BATCH_RUNS = {
    "sweep": {"run": dict(BASE_DOC), "sweep": {"topology.m": [3, 4]}, "seeds": [1, 2]},
    "stabilize": {"run": dict(BASE_DOC, layers=6, pulses=10), "seeds": [1, 2],
                  "corruption": {"node_fraction": 1.0, "max_spurious_messages": 4}},
    "stabilize_faulty": {
        "run": dict(BASE_DOC, layers=6, pulses=10, faults={"placement": [
            {"vertex": 2, "layer": 2, "behavior": {"kind": "fixed_offset", "offset": 0.3}}]}),
        "seeds": [1, 2, 3], "corruption": {"node_fraction": 0.5, "max_spurious_messages": 2}},
    "faults-mc": {"run": dict(BASE_DOC, layers=6, pulses=5), "seeds": [0], "trials": 6,
                  "fault_probability": 0.05, "behavior_changes_per_pulse": 1,
                  "behavior_mix": ["silent", "fixed_offset_plus", "burst", "per_pulse_offset"]},
}

# SHA-256 of every file each batch run writes, recorded before the batch
# trials were built by one trial builder and judged by build_report.
BATCH_DIGESTS = {
    "faults-mc": {
        "faults_mc.csv": "7d1942755c6fffa4c752cb3141b64ed11a16ab33998b9318d1fe933b5a0286c9",
        "faults_mc.json": "407cda5bbed7ceff7a901cfe245361ac9a2d6d00c43b5ea37340f1599c5b78e2",
    },
    "stabilize": {
        "stabilize.csv": "5c8e43dca5c69deab0e992202c1ad8fd1f0a646e8ce7b1bd3e1a688372b748aa",
        "stabilize.json": "6c719db81266758c624417c2e92d181686c291c001c20a59f6ebbc9fbddb4175",
    },
    "stabilize_faulty": {
        "stabilize.csv": "43c9b39ddf06151ac619e4f5d10d531af8732042b1e0ad19e2c6981aa9929bac",
        "stabilize.json": "93226c23af0047941a5393b9390fcb83e9e4060df7ebb575ba54f4bfc7d39a4f",
    },
    "sweep": {
        "sweep.csv": "fec683d2e4d4cf32e612a51503e6a44e2229717420ba07aef5fc8e07c9849a25",
        "sweep.json": "bdd2763d3e96ba84b3518351487b7b18d733ad433c58d15f6f8f3c1f911aa1ee",
    },
}


@pytest.mark.parametrize("name", sorted(BATCH_RUNS))
def test_batch_outputs_pinned(tmp_path, name):
    command = name.split("_")[0]
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, BATCH_RUNS[name], "batch.yaml")),
                 "--out", str(out)]) == 0
    digests = {file: hashlib.sha256(data).hexdigest() for file, data in read_all(out).items()}
    assert digests == BATCH_DIGESTS[name]
