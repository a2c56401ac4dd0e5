import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

import longmi.table
from longmi.cli import _fmt, _write_series, _write_trace, main
from longmi.jm import ChainTrace
from longmi.methods import CATALOG, METHOD_NAMES
from longmi.table import read_csv

EQ1 = (
    "numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
    " + factor(ses) + (1|id)"
)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"n_schools": 6, "n_students": 90, "seed": 17}))
    assert run("sim", "--config", str(cfg), "--out-dir", str(out)) == 0
    return out


class TestSim:
    def test_default_row_count(self, tmp_path):
        assert run("sim", "--seed", "5", "--out-dir", str(tmp_path)) == 0
        rows = open(tmp_path / "observed.csv").read().strip().splitlines()
        assert len(rows) == 3601  # header + 1200 units x 3 waves

    def test_config_override_row_count(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_students": 12, "n_schools": 4}))
        assert run("sim", "--seed", "5", "--config", str(cfg),
                   "--out-dir", str(tmp_path)) == 0
        rows = open(tmp_path / "observed.csv").read().strip().splitlines()
        assert len(rows) == 37

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run("sim", "--seed", "9", "--out-dir", str(d)) == 0
        for name in ("complete.csv", "observed.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nonsense_field": 1}))
        assert run("sim", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("fields, argv, named", [
        ({}, ("--seed", "-3"), "seed"),
        ({"seed": "x"}, (), "seed"),
        ({"seed": 2.0}, (), "seed"),
        ({"n_schools": 2.5}, (), "n_schools"),
        ({"sex_p": "a"}, (), "sex_p"),
        ({"size_bounds": [8]}, (), "size_bounds"),
        ({"base_ses": [0.0, 0.1, 0.2, 0.3]}, (), "base_ses"),
        ({"ses_probs": [0.25, 0.25, 0.25, 0.25]}, (), "ses_probs"),
    ])
    def test_ill_typed_config_exit(self, tmp_path, capsys, fields, argv, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(fields))
        assert run("sim", *argv, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be")
        assert not (tmp_path / "out").exists()

    def test_manifest_written(self, sim_dir):
        meta = json.loads((sim_dir / "run_manifest.json").read_text())
        assert meta["subcommand"] == "sim"
        assert meta["tool"] == "longmi"
        for name in ("observed", "complete"):
            assert {str(sim_dir / f"{name}{ext}") for ext in (
                ".csv", ".meta.json", ".values.npz")} <= set(meta["outputs"])


@pytest.fixture(scope="module")
def clusterless_dir(sim_dir, tmp_path_factory):
    """The simulated cohort with its school column removed."""
    out = tmp_path_factory.mktemp("noschool")
    with open(sim_dir / "observed.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("school")
    with open(out / "observed.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(r[:j] + r[j + 1:] for r in rows)
    meta = json.loads((sim_dir / "observed.meta.json").read_text())
    meta["columns"] = [c for c in meta["columns"] if c["name"] != "school"]
    (out / "observed.meta.json").write_text(json.dumps(meta))
    return out


class TestImpute:
    def test_fcs_and_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "imp"
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "fcs-1l-wide", "--m", "2", "--maxit", "2",
            "--seed", "3", "--fallback-pmm", "--out-dir", str(out),
        ) == 0
        assert (out / "imputations.csv").exists()
        assert (out / "chain_stats.csv").exists()
        spec = json.loads((out / "impute_spec.json").read_text())
        assert spec["methods"]["prev_dep.3"] == "logreg"
        assert spec["methods"]["numeracy_score.5"] == "norm"
        assert spec["methods"]["ses"] == "polr"

    def test_jm_trace_written(self, sim_dir, tmp_path):
        out = tmp_path / "impjm"
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "jm-1l-wide", "--m", "2", "--nburn", "20",
            "--nbetween", "100", "--seed", "3", "--out-dir", str(out),
        ) == 0
        header = open(out / "trace.csv").readline().strip()
        assert header == "iteration,parameter,value"

    def test_nbetween_floor(self, sim_dir, tmp_path):
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "jm-1l-wide", "--nbetween", "50",
            "--out-dir", str(tmp_path / "x"),
        ) == 2

    def test_jm_3l_unsupported(self, sim_dir, tmp_path, capsys):
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "jm-3l", "--out-dir", str(tmp_path / "x"),
        ) == 2
        assert "jm-3l" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["jm-2l", "jm-2l-di", "fcs-2l", "fcs-2l-di", "fcs-3l"])
    def test_fixed_column_missing_in_some_rows(self, sim_dir, tmp_path, method):
        # a time-fixed column observed in one row of a unit and missing in
        # another takes the unit's observed value in every imputation; the
        # original (imputation 0) keeps the missing cell
        lines = (sim_dir / "observed.csv").read_text().splitlines()
        header = lines[0].split(",")
        col, unit = header.index("numeracy_scorew1"), header.index("id")
        cells, other = lines[1].split(","), lines[2].split(",")
        assert cells[unit] == other[unit]
        assert cells[col] != "NA" and other[col] != "NA"
        cells[col] = "NA"
        lines[1] = ",".join(cells)
        (tmp_path / "observed.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "observed.meta.json").write_bytes(
            (sim_dir / "observed.meta.json").read_bytes()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fcs-2l-di's advice
            assert run(
                "impute", "--input", str(tmp_path / "observed.csv"),
                "--method", method, "--m", "2", "--maxit", "2", "--nburn", "5",
                "--nbetween", "100", "--fallback-pmm", "--out-dir", str(tmp_path / "x"),
            ) == 0
        stack = read_csv(str(tmp_path / "x" / "imputations.csv"))
        row = (stack.column("id") == float(cells[unit])) & (
            stack.column("time") == float(cells[header.index("time")])
        )
        got = stack.column("numeracy_scorew1")[row]
        assert np.isnan(got[0]) and (got[1:] == float(other[col])).all()

    def test_fcs_2l_di_warns(self, sim_dir, tmp_path):
        with pytest.warns(UserWarning, match="fcs-2l-di"):
            assert run(
                "impute", "--input", str(sim_dir / "observed.csv"),
                "--method", "fcs-2l-di", "--m", "2", "--maxit", "2",
                "--seed", "3", "--fallback-pmm", "--out-dir", str(tmp_path / "di"),
            ) == 0

    @pytest.mark.parametrize(
        "flag, method",
        [("--m", "fcs-1l-wide"), ("--maxit", "fcs-1l-wide"), ("--nburn", "jm-1l-wide")],
    )
    def test_zero_count_exit(self, sim_dir, tmp_path, capsys, flag, method):
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"), "--method", method,
            "--nbetween", "100", flag, "0", "--out-dir", str(tmp_path / "x"),
        ) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    def test_negative_seed_exit(self, sim_dir, tmp_path, capsys):
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"), "--method", "fcs-1l-wide",
            "--nbetween", "100", "--seed", "-1", "--out-dir", str(tmp_path / "x"),
        ) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--nbetween", "5"), "nbetween below 100"),
        (("--m", "0"), "--m must be at least 1"),
        (("--maxit", "0"), "--maxit must be at least 1"),
        (("--nburn", "0"), "--nburn must be at least 1"),
        (("--seed", "-1"), "--seed must be at least 0"),
        (("--mtw-baseline", "numeracy_scorew1"), "--mtw-baseline wants col=wave"),
    ])
    def test_rejected_flag_reads_and_writes_nothing(self, tmp_path, capsys, flags,
                                                    message):
        # the input does not exist: the flags are checked before it is read
        assert run(
            "impute", "--input", str(tmp_path / "absent.csv"), "--method", "fcs-3l",
            "--nbetween", "100", *flags, "--out-dir", str(tmp_path / "x"),
        ) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_cluster_less_cohort(self, clusterless_dir, tmp_path, capsys, method):
        # methods that model the school need its column; the rest run without it
        rc = run(
            "impute", "--input", str(clusterless_dir / "observed.csv"),
            "--method", method, "--m", "2", "--maxit", "2", "--nburn", "5",
            "--nbetween", "100", "--seed", "3", "--fallback-pmm",
            "--out-dir", str(tmp_path / "x"),
        )
        if CATALOG[method].cluster == "none":
            assert rc == 0
        else:
            assert rc == 2
            assert f"{method} needs a cluster-id column" in capsys.readouterr().err

    def test_wide_input_exit(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("id,y\r\n1,0.5\r\n2,NA\r\n3,2.5\r\n")
        (tmp_path / "wide.meta.json").write_text(json.dumps({
            "shape": "wide",
            "columns": [
                {"name": "id", "kind": "continuous", "role": "unit-id"},
                {"name": "y", "kind": "continuous", "role": "analysis"},
            ],
        }))
        assert run(
            "impute", "--input", str(path), "--method", "fcs-1l-wide",
            "--nbetween", "100", "--out-dir", str(tmp_path / "x"),
        ) == 2
        err = capsys.readouterr().err
        assert "needs a long dataset" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def imputed(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("imp")
    assert run(
        "impute", "--input", str(sim_dir / "observed.csv"),
        "--method", "fcs-1l-wide", "--m", "3", "--maxit", "2",
        "--seed", "3", "--fallback-pmm", "--out-dir", str(out),
    ) == 0
    return out


class TestAnalyzePool:
    def test_stacked_input_yields_m_fits(self, imputed, tmp_path):
        fits = tmp_path / "fits"
        assert run(
            "analyze", "--input", str(imputed / "imputations.csv"),
            "--formula", EQ1, "--out-dir", str(fits),
        ) == 0
        files = sorted(os.listdir(fits))
        assert [f for f in files if f.startswith("fit_")] == [
            "fit_0001.json", "fit_0002.json", "fit_0003.json",
        ]
        payload = json.loads((fits / "fit_0001.json").read_text())
        assert payload["params"][1]["name"] == "prev_dep"
        assert "id" in payload["var_components"]

    def test_aca_single_fit(self, sim_dir, tmp_path):
        fits = tmp_path / "fits"
        assert run(
            "analyze", "--input", str(sim_dir / "observed.csv"),
            "--formula", EQ1, "--aca", "--out-dir", str(fits),
        ) == 0
        assert sorted(f for f in os.listdir(fits) if f.startswith("fit_")) == [
            "fit_0001.json"
        ]

    def test_unknown_column_exit(self, sim_dir, tmp_path):
        assert run(
            "analyze", "--input", str(sim_dir / "observed.csv"),
            "--formula", "nonexistent ~ age + (1|id)", "--aca",
            "--out-dir", str(tmp_path / "x"),
        ) == 2

    def _broken_copy(self, sim_dir, tmp_path, edit):
        """observed.csv and its sidecar copied, the CSV text passed through edit."""
        src = sim_dir / "observed.csv"
        dst = tmp_path / "in" / "observed.csv"
        dst.parent.mkdir()
        dst.write_bytes(edit(src.read_bytes()))
        (tmp_path / "in" / "observed.meta.json").write_bytes(
            (sim_dir / "observed.meta.json").read_bytes()
        )
        return dst

    def _analyze(self, path, tmp_path):
        return run("analyze", "--input", str(path), "--formula", EQ1, "--aca",
                   "--out-dir", str(tmp_path / "fits"))

    def test_header_mismatch_exit(self, sim_dir, tmp_path, capsys):
        path = self._broken_copy(
            sim_dir, tmp_path, lambda b: b.replace(b"age", b"agee", 1)
        )
        assert self._analyze(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 1: header" in err and "Traceback" not in err

    def test_short_row_exit(self, sim_dir, tmp_path, capsys):
        def drop_last_field_of_row_3(b):
            lines = b.split(b"\r\n")
            lines[2] = lines[2].rpartition(b",")[0]
            return b"\r\n".join(lines)

        path = self._broken_copy(sim_dir, tmp_path, drop_last_field_of_row_3)
        assert self._analyze(path, tmp_path) == 2
        assert f"{path}, line 3: " in capsys.readouterr().err

    def test_unknown_level_exit(self, sim_dir, tmp_path, capsys):
        def ses_9_on_row_3(b):
            lines = b.split(b"\r\n")
            col = lines[0].split(b",").index(b"ses")
            fields = lines[2].split(b",")
            fields[col] = b"9"
            lines[2] = b",".join(fields)
            return b"\r\n".join(lines)

        path = self._broken_copy(sim_dir, tmp_path, ses_9_on_row_3)
        assert self._analyze(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 3: '9' in column 'ses'" in err

    @pytest.mark.parametrize("old, new, found", [
        (b"1", b"4", "found [0, 2, 3, 4]"),      # tag 1 skipped
        (b"0", b"-1", "found [-1, 1, 2, 3]"),    # negative, no original
        (b"2", b"1.5", "found [0, 1, 1.5, 3]"),  # not a whole number
    ])
    def test_bad_imputation_tags_exit(self, imputed, tmp_path, capsys, old, new, found):
        lines = (imputed / "imputations.csv").read_bytes().split(b"\r\n")
        lines[1:] = [new + ln[len(old):] if ln.startswith(old + b",") else ln
                     for ln in lines[1:]]
        path = tmp_path / "in" / "imputations.csv"
        path.parent.mkdir()
        path.write_bytes(b"\r\n".join(lines))
        (path.parent / "imputations.meta.json").write_bytes(
            (imputed / "imputations.meta.json").read_bytes()
        )
        assert run("analyze", "--input", str(path), "--formula", EQ1,
                   "--out-dir", str(tmp_path / "fits")) == 2
        err = capsys.readouterr().err
        assert f"{path}: stacked file must carry contiguous Imputation tags" in err
        assert found in err and "Traceback" not in err

    @pytest.mark.parametrize("command, column, role", [
        ("impute", "school", "cluster-id"),
        ("analyze", "school", "cluster-id"),
        ("analyze", "id", "unit-id"),
        ("impute", "time", "time"),
    ])
    def test_missing_key_cell_exit(self, sim_dir, tmp_path, capsys, command,
                                   column, role):
        def na_on_row_4(b):
            lines = b.split(b"\r\n")
            col = lines[0].split(b",").index(column.encode())
            fields = lines[3].split(b",")
            fields[col] = b"NA"
            lines[3] = b",".join(fields)
            return b"\r\n".join(lines)

        path = self._broken_copy(sim_dir, tmp_path, na_on_row_4)
        if command == "impute":
            code = run("impute", "--input", str(path), "--method", "jm-2l-wide",
                       "--m", "2", "--nburn", "5", "--nbetween", "100",
                       "--out-dir", str(tmp_path / "imp"))
        else:
            code = self._analyze(path, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}, line 4: {role} column '{column}' has a missing cell" in err
        assert "Traceback" not in err

    def test_repeated_long_row_exit(self, sim_dir, tmp_path, capsys):
        def repeat_row_2(b):
            lines = b.split(b"\r\n")
            lines.insert(3, lines[2])
            return b"\r\n".join(lines)

        path = self._broken_copy(sim_dir, tmp_path, repeat_row_2)
        assert self._analyze(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 4: the key columns 'id', 'time' repeat" in err
        assert "Traceback" not in err

    def test_repeated_wide_unit_exit(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("id,y\r\n1,0.5\r\n2,1.5\r\n3,2.5\r\n2,3.5\r\n")
        (tmp_path / "wide.meta.json").write_text(json.dumps({
            "shape": "wide",
            "columns": [
                {"name": "id", "kind": "continuous", "role": "unit-id"},
                {"name": "y", "kind": "continuous", "role": "analysis"},
            ],
        }))
        assert run("analyze", "--input", str(path), "--formula", "y ~ 1 + (1|id)",
                   "--out-dir", str(tmp_path / "fits")) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 5: the key columns 'id' repeat" in err
        assert "Traceback" not in err

    def test_invalid_sidecar_level_exit(self, sim_dir, tmp_path, capsys):
        path = self._broken_copy(sim_dir, tmp_path, lambda b: b)
        meta_path = tmp_path / "in" / "observed.meta.json"
        meta = json.loads(meta_path.read_text())
        ses = next(c for c in meta["columns"] if c["name"] == "ses")
        ses["levels"][-1] = "NA"
        meta_path.write_text(json.dumps(meta))
        assert self._analyze(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{meta_path}: invalid sidecar" in err
        assert "Traceback" not in err

    def test_missing_sidecar_exit(self, sim_dir, tmp_path, capsys):
        path = self._broken_copy(sim_dir, tmp_path, lambda b: b)
        os.remove(tmp_path / "in" / "observed.meta.json")
        assert self._analyze(path, tmp_path) == 2
        assert "observed.meta.json not found" in capsys.readouterr().err

    def test_pool_hand_example(self, tmp_path):
        fits = tmp_path / "fits"
        fits.mkdir()
        for i, q in enumerate((1.0, 2.0, 3.0), start=1):
            (fits / f"fit_{i:04d}.json").write_text(json.dumps({
                "params": [{"name": "b", "estimate": q, "se": 1.0}],
                "var_components": {"residual": 1.0},
                "converged": True,
            }))
        out = tmp_path / "pooled"
        assert run("pool", "--fits", str(fits), "--out-dir", str(out)) == 0
        rows = open(out / "pooled.csv").read().strip().splitlines()
        _, est, se, df, fmi = rows[1].split(",")
        assert float(est) == pytest.approx(2.0, abs=1e-12)
        assert float(se) == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-10)

    def test_pool_single_fit_fails(self, tmp_path):
        fits = tmp_path / "fits"
        fits.mkdir()
        (fits / "fit_0001.json").write_text(json.dumps({
            "params": [{"name": "b", "estimate": 1.0, "se": 1.0}],
            "var_components": {}, "converged": True,
        }))
        assert run("pool", "--fits", str(fits),
                   "--out-dir", str(tmp_path / "o")) == 2

    def test_version_mismatch_rejected(self, sim_dir, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(sim_dir, clone)
        manifest = json.loads((clone / "run_manifest.json").read_text())
        manifest["version"] = "0.0.0"
        (clone / "run_manifest.json").write_text(json.dumps(manifest))
        assert run(
            "analyze", "--input", str(clone / "observed.csv"),
            "--formula", EQ1, "--aca", "--out-dir", str(tmp_path / "x"),
        ) == 2


@pytest.mark.parametrize(
    "method", ["jm-1l-wide", "jm-1l-di-wide", "jm-2l-wide", "jm-2l", "jm-2l-di"]
)
def test_jm_same_seed_byte_identical(sim_dir, tmp_path, method):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", method, "--m", "2", "--nburn", "10",
            "--nbetween", "100", "--seed", "12", "--out-dir", str(out),
        ) == 0
    for name in ("imputations.csv", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_analyze_same_with_and_without_copy(sim_dir, tmp_path, monkeypatch, method):
    imp = tmp_path / "imp"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fcs-2l-di's advice
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"), "--method", method,
            "--m", "2", "--maxit", "2", "--nburn", "5", "--nbetween", "100",
            "--seed", "3", "--fallback-pmm", "--out-dir", str(imp),
        ) == 0
    manifest = json.loads((imp / "run_manifest.json").read_text())
    assert str(imp / "imputations.values.npz") in manifest["outputs"]
    outputs = []
    for side in ("copy", "parse"):
        if side == "copy":  # the copy must stand in for the row parse
            monkeypatch.setattr(longmi.table, "_parse_rows", None)
        else:
            monkeypatch.undo()
            (imp / "imputations.values.npz").unlink()
        assert run("analyze", "--input", str(imp / "imputations.csv"), "--formula",
                   EQ1, "--out-dir", str(tmp_path / side / "fits")) == 0
        assert run("pool", "--fits", str(tmp_path / side / "fits"),
                   "--out-dir", str(tmp_path / side / "pooled")) == 0
        outputs.append({
            name: (tmp_path / side / sub / name).read_bytes()
            for sub, names in (("fits", ("fit_0001.json", "fit_0002.json")),
                               ("pooled", ("pooled.csv", "pooled.json")))
            for name in names
        })
    assert outputs[0] == outputs[1]


def test_trace_writer_matches_row_generator(tmp_path):
    trace = ChainTrace(["beta.a", 'psi."x",y', "omega.b"])
    for row in ([0.1, -0.0, 3.0], [np.inf, -np.inf, np.nan], [1e-300, 2.0**53, -7.5]):
        trace.record(np.array(row))
    _write_trace(str(tmp_path / "new.csv"), trace)
    mat = trace.matrix()
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "parameter", "value"])
        w.writerows(
            (it + 1, name, _fmt(mat[it, j]))
            for it in range(mat.shape[0])
            for j, name in enumerate(trace.names)
        )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_series_writer_matches_row_generator(tmp_path):
    series = {
        "b": [(2, 0.5), (1, -0.0), (3, np.inf)],
        'psi."x",y': [(1, -np.inf), (2, np.nan)],
        "": [(1, 1e-300)],
        "a\nb": [(10, 2.0**53), (9, -7.5)],
    }
    _write_series(str(tmp_path / "new.csv"), series)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter", "iteration", "value"])
        w.writerows(
            (name, it, _fmt(v))
            for name, pts in sorted(series.items())
            for it, v in sorted(pts)
        )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_trace_infinities_round_trip(tmp_path):
    trace = ChainTrace(["a", "b"])
    trace.record(np.array([np.inf, -np.inf]))
    trace.record(np.array([-np.inf, 1.5]))
    _write_trace(str(tmp_path / "trace.csv"), trace)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    back = np.array([float(v) for _, _, v in rows]).reshape(trace.matrix().shape)
    np.testing.assert_array_equal(back, trace.matrix())


class TestDiag:
    def test_trace_series_and_autocorr(self, sim_dir, tmp_path):
        imp = tmp_path / "imp"
        assert run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "jm-1l-wide", "--m", "2", "--nburn", "30",
            "--nbetween", "100", "--seed", "4", "--out-dir", str(imp),
        ) == 0
        out = tmp_path / "diag"
        assert run(
            "diag", "--trace", str(imp / "trace.csv"),
            "--params", "omega.numeracy_scorew1.numeracy_scorew1",
            "--out-dir", str(out),
        ) == 0
        series = open(out / "diag_series.csv").read().strip().splitlines()
        assert len(series) == 1 + 130  # header + nburn + nbetween iterations
        ac = open(out / "diag_autocorr.csv").read().strip().splitlines()
        assert len(ac) == 1 + 20

    def test_unknown_param(self, sim_dir, tmp_path):
        imp = tmp_path / "imp"
        run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "jm-1l-wide", "--m", "1", "--nburn", "5",
            "--nbetween", "100", "--seed", "4", "--out-dir", str(imp),
        )
        assert run(
            "diag", "--trace", str(imp / "trace.csv"),
            "--params", "omega.made.up", "--out-dir", str(tmp_path / "x"),
        ) == 3

    def test_chain_stats_input(self, sim_dir, tmp_path):
        imp = tmp_path / "imp"
        run(
            "impute", "--input", str(sim_dir / "observed.csv"),
            "--method", "fcs-1l-wide", "--m", "2", "--maxit", "3",
            "--seed", "4", "--fallback-pmm", "--out-dir", str(imp),
        )
        out = tmp_path / "diag"
        assert run(
            "diag", "--chain-stats", str(imp / "chain_stats.csv"),
            "--out-dir", str(out),
        ) == 0
        series = open(out / "diag_series.csv").read().splitlines()
        assert any("prev_dep.3.mean.chain0" in s for s in series)


    @pytest.mark.parametrize("flag, body, line, what", [
        ("--trace", b"iteration,parameter,value\r\n1,a,0.5\r\n2,a\r\n",
         3, "2 fields, expected 3"),
        ("--trace", b"iteration,parameter,value\r\n1,a,0.5\r\n2.5,a,0.1\r\n",
         3, "'2.5' is not an integer"),
        ("--trace", b"iteration,parameter,value\r\n1,a,0.5\r\n2,a,high\r\n",
         3, "'high' is not a number"),
        ("--trace", b"iteration,parameter,value\r\n1,a,0.5\r\n2,\xe9,0.1\r\n",
         3, "not utf-8 text"),
        ("--chain-stats", b"chain,iteration,column,mean,sd\r\n0,1,y,0.1,1.0\r\n"
         b"0,x,y,0.2,1.0\r\n", 3, "'x' is not an integer"),
    ], ids=["short-row", "non-integer-iteration", "non-numeric-value",
            "non-utf8-byte", "chain-stats-iteration"])
    def test_malformed_input_exit(self, tmp_path, capsys, flag, body, line, what):
        path = tmp_path / "in.csv"
        path.write_bytes(body)
        assert run("diag", flag, str(path), "--out-dir", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert f"{path}, line {line}: " in err and what in err, err


def test_end_to_end_determinism(tmp_path):
    outputs = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        cfg = base / "cfg.json"
        base.mkdir()
        cfg.write_text(json.dumps({"n_schools": 5, "n_students": 60, "seed": 23}))
        assert run("sim", "--config", str(cfg), "--out-dir", str(base / "sim")) == 0
        assert run(
            "impute", "--input", str(base / "sim" / "observed.csv"),
            "--method", "fcs-1l-wide", "--m", "2", "--maxit", "2",
            "--seed", "6", "--fallback-pmm", "--out-dir", str(base / "imp"),
        ) == 0
        assert run(
            "analyze", "--input", str(base / "imp" / "imputations.csv"),
            "--formula", EQ1, "--out-dir", str(base / "fits"),
        ) == 0
        assert run(
            "pool", "--fits", str(base / "fits"),
            "--out-dir", str(base / "pooled"),
        ) == 0
        outputs.append(base)
    for rel in (
        "sim/observed.csv", "imp/imputations.csv", "imp/chain_stats.csv",
        "fits/fit_0001.json", "pooled/pooled.csv", "pooled/pooled.json",
    ):
        a = (outputs[0] / rel).read_bytes()
        b = (outputs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"


def test_mtw_baseline_flag(sim_dir, tmp_path):
    out = tmp_path / "mtw"
    assert run(
        "impute", "--input", str(sim_dir / "observed.csv"),
        "--method", "fcs-1l-wide-mtw", "--m", "2", "--maxit", "2",
        "--seed", "8", "--fallback-pmm", "--mtw-window", "1",
        "--mtw-baseline", "numeracy_scorew1=1", "--out-dir", str(out),
    ) == 0
    spec = json.loads((out / "impute_spec.json").read_text())
    row = spec["predictor_matrix"]["numeracy_scorew1"]
    # window 1 from wave 1: wave-5 and wave-7 measures are excluded
    assert "prev_sdq.5" not in row and "numeracy_score.7" not in row
    assert row.get("prev_sdq.3") == 1

    bad = run(
        "impute", "--input", str(sim_dir / "observed.csv"),
        "--method", "fcs-1l-wide-mtw", "--mtw-baseline", "numeracy_scorew1",
        "--out-dir", str(tmp_path / "bad"),
    )
    assert bad == 2
