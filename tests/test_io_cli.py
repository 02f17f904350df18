import json
import os

import numpy as np
import pytest

from dpadapt import selection
from dpadapt.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from dpadapt.io import Dataset, IngestError, emit_csv, ingest_csv
from dpadapt._normal import normal_cdf
from dpadapt.privacy import PrivacyBudget, ed_to_gdp, gdp_to_ed
from dpadapt.simulate import METHOD_NAMES, MethodConfig

from . import cli_oracle


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

    def test_duplicate_ids_named(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\nr1,0.1\nr2,0.2\nr1,0.3\n")
        with pytest.raises(IngestError, match="duplicate ids: r1"):
            ingest_csv(f)

    def test_non_finite_covariates_name_offenders(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p,x1\nh1,0.1,nan\nh2,0.2,inf\nh3,0.3,1.0\n")
        with pytest.raises(IngestError, match="h1, h2"):
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

    def test_duplicate_ids_is_data_error(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\na,0.1\na,0.2\n")
        assert main(["run", "--input", str(f), "--method", "bh", "--out-prefix", str(tmp_path / "o")]) == EXIT_DATA

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

    def test_explicit_m_above_n_is_usage_error(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.6\n" for i in range(20)))
        for method in ("dp-adapt", "dp-bh"):
            assert main(["run", "--input", data, "--method", method, "--mu", "0.24",
                         "--m", "50", "--out-prefix", str(tmp_path / method)]) == EXIT_USAGE

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_mu_with_pair_is_usage_error_for_every_method(self, tmp_path, method):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.6\n" for i in range(20)))
        assert main(["run", "--input", data, "--method", method, "--mu", "0.24",
                     "--epsilon", "0.5", "--delta", "0.001",
                     "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE

    def test_report_echoes_resolved_config(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        prefix = str(tmp_path / "dpbh")
        assert main(["run", "--input", data, "--method", "dp-bh", "--epsilon", "0.4",
                     "--delta", "0.01", "--m", "3", "--out-prefix", prefix]) == EXIT_OK
        report = json.loads((tmp_path / "dpbh.report.json").read_text())
        for echo in (report["config"], report["resolved"]):
            assert (echo["epsilon"], echo["delta"]) == (0.4, 0.01)
            assert (echo["m"], echo["nu"], echo["eta"]) == (3, 0.5 * 0.1 / 9, 1e-4)
        assert report["resolved"]["mu"] == ed_to_gdp(0.4, 0.01)

        prefix = str(tmp_path / "dpadapt")
        assert main(["run", "--input", data, "--method", "dp-adapt", "--mu", "0.3",
                     "--m", "4", "--out-prefix", prefix]) == EXIT_OK
        report = json.loads((tmp_path / "dpadapt.report.json").read_text())
        assert report["resolved"]["mu"] == report["config"]["mu"] == 0.3
        assert report["resolved"]["m"] == 4


def _oracle_csv(path):
    """400 rows with two covariates; the first 80 are strong signals."""
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(400, 2))
    p = rng.random(400)
    p[:80] = normal_cdf(rng.standard_normal(80) - 4.0)
    rows = "".join(f"h{i:03d},{float(p[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r}\n" for i in range(400))
    return write(path, "id,p,x1,x2\n" + rows)


_BUDGETS = {
    "mu": ["--mu", "0.5"],
    "epsilon-delta": ["--epsilon", "0.5", "--delta", "1e-3"],
    "preset": ["--preset", "bottomly-like"],
    "preset-m": ["--preset", "bottomly-like", "--m", "40"],
    "none": [],
    "both": ["--mu", "0.5", "--epsilon", "0.5", "--delta", "1e-3"],
}
_ORACLE_CASES = (
    [(method, budget, []) for method in METHOD_NAMES for budget in _BUDGETS if budget != "both"]
    + [("dp-adapt", "both", []), ("dp-bonf", "both", [])]
    + [("dp-adapt", budget, ["--noise-family", "laplace"]) for budget in ("epsilon-delta", "mu", "none")]
)


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    else:
        yield path, value


class TestRunMatchesOracle:
    """`dpadapt run` against the old per-method dispatch in tests/cli_oracle.py."""

    @pytest.mark.parametrize(
        "method,budget,extra", _ORACLE_CASES,
        ids=[f"{m}-{b}{'-laplace' if e else ''}" for m, b, e in _ORACLE_CASES],
    )
    def test_same_outputs(self, tmp_path, method, budget, extra):
        data = _oracle_csv(tmp_path / "d.csv")
        argv = ["--input", data, "--method", method, "--seed", "5", *_BUDGETS[budget], *extra]
        old, new = tmp_path / "old", tmp_path / "new"
        old_code = cli_oracle.main(argv + ["--out-prefix", str(old)])
        assert main(["run", *argv, "--out-prefix", str(new)]) == old_code
        if old_code != EXIT_OK:
            return
        assert (tmp_path / "new.rejections.csv").read_bytes() == (tmp_path / "old.rejections.csv").read_bytes()
        old_report = json.loads((tmp_path / "old.report.json").read_text())
        new_report = json.loads((tmp_path / "new.report.json").read_text())
        new_leaves = dict(_leaves(new_report))
        # The one allowed difference: a gaussian run given (epsilon, delta)
        # now spends mu = ed_to_gdp(epsilon, delta) directly, so the engine's
        # config no longer carries the pair; the resolved echo does.
        pair_moved = method == "dp-adapt" and budget == "epsilon-delta" and not extra
        for path, value in _leaves(old_report):
            if pair_moved and path in (("config", "epsilon"), ("config", "delta")):
                assert new_leaves[path] is None
                assert new_report["resolved"][path[1]] == value
            else:
                assert new_leaves[path] == value, path


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

    def test_manifest_echoes_resolved_budget(self, tmp_path):
        out = str(tmp_path / "m")
        assert main([
            "simulate", "--scenario", "no-side-info", "--n", "400", "--t", "10",
            "--trials", "1", "--seed", "5", "--methods", "dp-adapt,dp-bh", "--out-dir", out,
        ]) == EXIT_OK
        entries = json.loads((tmp_path / "m" / "manifest.json").read_text())["methods"]
        assert [e["name"] for e in entries] == ["dp-adapt", "dp-bh"]
        for entry in entries:
            assert entry["mu"] == MethodConfig("dp-adapt").resolved_mu()
            assert (entry["epsilon"], entry["delta"], entry["m"]) == (0.5, 1e-3, 20)
            assert (entry["nu"], entry["eta"]) == (0.5 * 0.1 / 400, 1e-4)

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
