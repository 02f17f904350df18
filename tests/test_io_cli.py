import json
import os

import numpy as np
import pytest

from dpadapt import selection
from dpadapt.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from dpadapt.io import Dataset, IngestError, emit_csv, ingest_csv
from dpadapt.privacy import PrivacyBudget, gdp_to_ed


def write(path, text):
    path.write_text(text)
    return str(path)


class TestIngest:
    def test_well_formed(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p,x1\na,0.1,1.5\nb,0.9,-2\nc,0.5,0\n")
        ds = ingest_csv(f)
        assert ds.n == 3
        assert ds.ids == ("a", "b", "c")
        assert np.allclose(ds.p, [0.1, 0.9, 0.5])
        assert ds.x.shape == (3, 1)

    def test_no_covariates(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\na,0.1\n")
        ds = ingest_csv(f)
        assert ds.x is None

    def test_out_of_range_p_names_offender(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\nr1,0.1\nr2,1.5\n")
        with pytest.raises(IngestError, match="r2"):
            ingest_csv(f)

    def test_missing_columns(self, tmp_path):
        f = write(tmp_path / "d.csv", "name,pval\na,0.1\n")
        with pytest.raises(IngestError, match="name, pval"):
            ingest_csv(f)

    def test_empty_file(self, tmp_path):
        f = write(tmp_path / "d.csv", "")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(f)

    def test_header_only(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\n")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(f)

    def test_roundtrip_byte_identical_for_canonical_files(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            ids=tuple(f"g{i:03d}" for i in range(25)),
            p=rng.random(25),
            x=rng.normal(size=(25, 2)),
            covariate_names=("x1", "x2"),
        )
        first = tmp_path / "canonical.csv"
        emit_csv(ds, first)
        second = tmp_path / "again.csv"
        emit_csv(ingest_csv(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestPrivacyCommand:
    def test_delta_from_mu_epsilon(self, capsys):
        assert main(["privacy", "--mu", "0.24", "--epsilon", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"delta = {gdp_to_ed(0.24, 0.5)!r}" in out

    def test_mu_from_epsilon_delta(self, capsys):
        assert main(["privacy", "--epsilon", "0.5", "--delta", "0.001"]) == EXIT_OK
        assert "mu = " in capsys.readouterr().out

    def test_compose(self, capsys):
        assert main(["privacy", "--compose", "3,4"]) == EXIT_OK
        assert "5.0" in capsys.readouterr().out

    def test_nothing_to_compute_is_usage_error(self):
        assert main(["privacy"]) == EXIT_USAGE


class TestRunCommand:
    def test_all_ones_zero_rejections(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},1.0\n" for i in range(30)))
        prefix = str(tmp_path / "out")
        code = main([
            "run", "--input", data, "--method", "dp-adapt", "--mu", "0.24",
            "--m", "10", "--seed", "3", "--out-prefix", prefix,
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["rejected"] == []
        assert (tmp_path / "out.rejections.csv").read_text().splitlines()[0] == "id,noisy_p,threshold"

    def test_bh_run_writes_ids(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\ng0,0.001\ng1,0.5\ng2,0.9\n")
        prefix = str(tmp_path / "bh")
        assert main(["run", "--input", data, "--method", "bh", "--seed", "1",
                     "--out-prefix", prefix]) == EXIT_OK
        report = json.loads((tmp_path / "bh.report.json").read_text())
        assert report["rejected_ids"] == ["g0"]

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "absent.csv"), "--method", "bh",
                     "--seed", "1"]) == EXIT_DATA

    def test_contradictory_budget_is_usage_error(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\ng0,0.5\n")
        code = main([
            "run", "--input", data, "--method", "dp-adapt", "--mu", "0.24",
            "--epsilon", "0.5", "--delta", "0.001", "--seed", "1",
            "--out-prefix", str(tmp_path / "x"),
        ])
        assert code == EXIT_USAGE

    def test_preset_supplies_budget(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.6\n" for i in range(12)))
        code = main(["run", "--input", data, "--preset", "bottomly-like", "--seed", "2",
                     "--m", "5", "--out-prefix", str(tmp_path / "pre")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "pre.report.json").read_text())
        assert report["config"]["mu"] == 0.25

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\ng0,0.5\n")
        assert main(["run", "--input", data, "--method", "dp-adapt", "--mu", "-1",
                     "--seed", "1", "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE

    def test_failed_budget_audit_is_internal_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(selection, "compose", lambda budgets: PrivacyBudget.from_mu(9.0))
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.6\n" for i in range(12)))
        code = main(["run", "--input", data, "--method", "dp-adapt", "--mu", "0.24",
                     "--m", "5", "--seed", "1", "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestSimulateCommand:
    def strip_timing(self, text):
        rows = [line.split(",") for line in text.splitlines()]
        drop = [i for i, name in enumerate(rows[0]) if "wall" in name]
        return [
            [c for i, c in enumerate(row) if i not in drop]
            for row in rows
        ]

    def test_identical_outputs_for_same_seed(self, tmp_path):
        args = [
            "simulate", "--scenario", "grid", "--pattern", "1", "--trials", "3",
            "--seed", "7", "--grid-side", "20", "--m", "25", "--methods", "dp-adapt,dp-bh",
        ]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out-dir", out1]) == EXIT_OK
        assert main(args + ["--out-dir", out2]) == EXIT_OK
        for name in ("trials.csv", "aggregate.csv"):
            a = self.strip_timing((tmp_path / "a" / name).read_text())
            b = self.strip_timing((tmp_path / "b" / name).read_text())
            assert a == b
        m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert m1 == m2

    def test_manifest_echoes_config_and_versions(self, tmp_path):
        out = str(tmp_path / "m")
        assert main([
            "simulate", "--scenario", "no-side-info", "--n", "500", "--t", "10",
            "--trials", "2", "--seed", "5", "--m", "30", "--methods", "bh",
            "--out-dir", out,
        ]) == EXIT_OK
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["scenario"]["n"] == 500
        assert "numpy" in manifest["versions"]

    def test_seed_required(self):
        assert main(["simulate", "--trials", "2"]) == EXIT_USAGE

    def test_unknown_method_is_usage_error(self, tmp_path):
        assert main([
            "simulate", "--seed", "1", "--trials", "1", "--methods", "nope",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_USAGE

    def test_config_file_provides_defaults(self, tmp_path):
        cfg = write(tmp_path / "sim.cfg", "trials=2\nmethods=bh\nn=400\nt=5\n")
        out = str(tmp_path / "cfg-out")
        assert main(["simulate", "--config", cfg, "--seed", "9", "--out-dir", out]) == EXIT_OK
        manifest = json.loads((tmp_path / "cfg-out" / "manifest.json").read_text())
        assert manifest["trials"] == 2
        assert manifest["scenario"]["n"] == 400
