"""CLI subcommands: exit codes, file outputs, determinism."""

from __future__ import annotations

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

    def test_force_overrides_validation(self, tmp_path):
        doc = dict(BASE_DOC, params=dict(BASE_DOC["params"], Lambda=1.5))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--force"])
        assert (out / "report.json").exists()
        assert code in (0, 1)

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
        assert "config error" in capsys.readouterr().err

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
