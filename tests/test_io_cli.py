import codecs
import csv
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpadapt
from dpadapt import cli, io, privacy
from dpadapt.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from dpadapt.io import Dataset, IngestError, ingest_csv
from dpadapt._normal import normal_cdf
from dpadapt.privacy import PrivacyBudget, calibrate_gaussian, calibrate_laplace, ed_to_gdp, gdp_to_ed
from dpadapt.simulate import ARM_FIELDS, METHOD_NAMES, MethodConfig, Scenario, gen_grid

from . import cli_oracle, ingest_oracle


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


def columnar(path):
    """ingest_csv's Dataset for the file at path, or None if any batch reached the row loop; it may raise IngestError."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_ingest_rows", lambda *args: None)
        return ingest_csv(path)


def _outcome(ingest, path):
    try:
        return ingest(path)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_ingest(path):
    """ingest_csv gives the oracle's Dataset, or its exception type and message."""
    got, want = _outcome(ingest_csv, path), _outcome(ingest_oracle.ingest_csv, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.ids == want.ids and all(type(rid) is str for rid in got.ids)
    for a, b in ((got.p, want.p), (got.x, want.x)):
        if b is None:
            assert a is None
            continue
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# Fields that float() and loadtxt may read differently, or not at all.
_ODD_FLOATS = [
    "", " ", "abc", "nan", "-nan", "inf", "-inf", "infinity", "1e400", "-1e400", "1e-320",
    "-0", "+0.5", ".5", "5.", "1.5", "-0.1", " 0.25 ", "\t0.5", "1_0", "0.2_5", "1__0",
    "０.５", "٠.٢", "0x1p-2", "1d5", "0.5 0.5", "0.5#", "#0.5", "0.5\x00", "0.5\x1c",
    "\x1f0.5", "\x0b0.5", "0.5\x0c", "\xa00.5", "0.5 ", " 0.5", "0.5\x85",
]
_ODD_IDS = [" h0", "h0 ", " h1 ", "h#1", "#", "", " ", "é", "a\x0bb", "a b", "a\x1cb", "h\x85"]


@st.composite
def csv_texts(draw):
    """Mostly regular files with a few irregular rows, fields and line ends."""
    width = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    header = ["id", "p"] + [f"x{i}" for i in range(1, width - 1)]
    rows = [header] + [
        [f"h{i}", repr(draw(st.floats(0.0, 1.0)))]
        + [repr(draw(st.floats(allow_nan=False, allow_infinity=False))) for _ in range(width - 2)]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n))
        j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
        kind = draw(st.sampled_from(["float", "id", "ragged", "balanced", "blank", "quote", "header"]))
        if kind == "float" and i and j:
            rows[i][j] = draw(st.sampled_from(_ODD_FLOATS))
        elif kind == "id" and i and rows[i]:
            rows[i][0] = draw(st.sampled_from(_ODD_IDS))
        elif kind == "ragged" and rows[i]:
            if draw(st.booleans()):
                rows[i].pop()
            else:
                rows[i].append("0.5")
        elif kind == "balanced" and n >= 2:
            # one row loses commas and another gains as many, so the file's
            # comma count still matches the header's
            short, long = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            lost = max(len(rows[short]) - 1, 0)
            rows[short] = draw(st.sampled_from([rows[short][:-1], [], [" "]]))
            rows[long] += ["0.5"] * (lost - max(len(rows[short]) - 1, 0))
        elif kind == "blank":
            rows.insert(i + 1, [])
        elif kind == "quote" and rows[i]:
            rows[i][j] = draw(st.sampled_from(['"{}"', '"{},5"', '{}"'])).format(rows[i][j])
        elif kind == "header":
            rows[0] = draw(st.sampled_from([[" id ", "p "], ["id", "q"], ["id"], ["\ufeffid", "p"]]))
            rows[0] += header[2:]
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    lines = [",".join(row) for row in rows]
    text = ""
    for k, line in enumerate(lines):
        end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends
        text += line + (end if k < len(lines) - 1 or draw(st.booleans()) else "")
    return text


class TestIngestMatchesOracle:
    """ingest_csv against the row loop it replaced, kept in tests/ingest_oracle.py."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_random_files(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_ingest(path)

    @pytest.mark.parametrize("text", [
        "id,p,x1\na,0.5,1\nb,0.25,-2\n",
        "id,p,x1\r\na,0.5,1\r\nb,0.25,-2\r\n",
        "id,p,x1\r\na,0.5,1\r\nb,0.25,-2",
        " id , p \n a ,0.5\nb#,0.25\n",
        "id,p,x1\na\x0bb,-0,1e-320\nc d, 0.5 ,\xa0-0\n",
    ], ids=["lf", "crlf", "crlf-no-final-end", "padded-and-hash", "odd-whitespace"])
    def test_regular_files_take_the_columnar_path(self, tmp_path, text):
        path = write(tmp_path / "d.csv", text)
        assert columnar(path) is not None
        assert_same_ingest(path)

    @pytest.mark.parametrize("text", [
        'id,p\n"a",0.5\n',
        "id,p\ra,0.5\r",
        "id,p\na,0.5\r",
        "id,p\r\na,0.5\rb,0.25\r\n",
        "id,p,x1\na,0.5,1\nb,0.25\n",
        "id,p,x1\na,0.5,1\nb,0.25,1,2\n",
        "id,p,x1\na,0.5\nb,0.25,1,2\n",
        "id,p\na,0.5\n\nb,0.25,1\n",
        "id,p\na,0.5\n \nb,0.25,1\n",
        "id,p\na,0.5\n\nb,0.25\n",
        "id,p\na,0.5\n\n",
        "id,p\na,abc\n",
        "id,p,x1\na,0.5,1_0\n",
        "id,p\na,０.５\n",
        "id,p\na,٠.٥\n",
        "id,p\na,0.5\x1c\n",
        "id,q\na,0.5\n",
        "id,p\n",
        "",
    ], ids=[
        "quote", "lone-cr", "lone-cr-at-end", "mixed-cr", "short-row", "long-row",
        "short-and-long-rows", "blank-and-long-rows", "whitespace-and-long-rows", "blank-row", "trailing-blank",
        "loadtxt-error", "underscore", "fullwidth-digit", "arabic-digit", "x1c-whitespace",
        "bad-header", "no-rows", "empty",
    ])
    def test_fallback_triggers(self, tmp_path, text):
        path = write(tmp_path / "d.csv", text)
        assert columnar(path) is None
        assert_same_ingest(path)

    @pytest.mark.parametrize("text", [
        "id,p\na,1.5\n",
        "id,p\na,nan\n",
        "id,p,x1\na,0.5,inf\n",
        "id,p,x1\na,0.5,1e400\n",
        "id,p\na,0.5\n a ,0.25\n",
        "id,p,x1\nb,0.25,1\na,1.5,nan\nc,-0.5,1\nb,0.3,inf\n",
    ], ids=["p-out-of-range", "p-nan", "x-inf", "x-overflow", "duplicate-after-strip", "every-check-fails"])
    def test_whole_file_checks_worded(self, tmp_path, text, monkeypatch):
        path = write(tmp_path / "d.csv", text)
        with pytest.raises(IngestError) as want:
            ingest_oracle.ingest_csv(path)
        with pytest.raises(IngestError) as got:
            columnar(path)
        assert str(got.value) == str(want.value)

        def row_loop(*args):
            raise AssertionError("the row loop read a regular file")

        monkeypatch.setattr(io, "_ingest_rows", row_loop)
        assert_same_ingest(path)

    def test_line_over_field_limit_falls_back(self, tmp_path):
        limit = csv.field_size_limit()
        text = "id,p\n" + "a" * (limit // 2) + "," + " " * (limit // 2) + "0.5\n"
        path = write(tmp_path / "d.csv", text)
        assert columnar(path) is None
        assert ingest_csv(path).p.tolist() == [0.5]
        assert_same_ingest(path)

    def test_fields_over_limit_and_undecodable_bytes(self, tmp_path):
        f = write(tmp_path / "big.csv", "id,p\n" + "a" * (csv.field_size_limit() + 1) + ",0.5\n")
        assert_same_ingest(f)
        # a bad start byte and a sequence cut at the end of the file, each in
        # a small file and past the first 8 KiB of one, where a text reader's
        # decode chunks would restart the position count
        rows = ("id,p\n" + "".join(f"h{i:06d},0.5\n" for i in range(1000))).encode("utf-8")
        assert len(rows) > 8192
        g = tmp_path / "bytes.csv"
        for data in (b"id,p\na,0.5\nb\xff,0.2\n", b"id,p\nh0,0.0\xe2\x82",
                     rows + b"b\xff,0.2\n", rows + b"h0,0.0\xe2\x82"):
            g.write_bytes(data)
            assert_same_ingest(g)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), batch=st.integers(1, 24))
    def test_random_files_in_small_batches(self, tmp_path, text, batch):
        # rows, CRLF pairs, blank and ragged rows and fallbacks straddle
        # batch boundaries; a file takes the columnar path whatever the batch
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        whole = _outcome(columnar, path) is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_BATCH_BYTES", batch)
            assert (_outcome(columnar, path) is not None) == whole
            assert_same_ingest(path)

    @pytest.mark.parametrize("quoted", [False, True], ids=["numpy-batches", "row-loop"])
    def test_leading_byte_order_mark_reads_as_the_plain_file(self, tmp_path, quoted):
        # Excel's "CSV UTF-8" writes one; it used to fail the header check with
        # a message whose difference could not be seen
        lines = ["id,p,x1"] + [f"g{i},{(i + 0.5) / 40 * (1e-3 if i % 4 == 0 else 1)!r},{i}" for i in range(40)]
        if quoted:
            lines = [",".join(f'"{field}"' for field in line.split(",")) for line in lines]
        text = "".join(f"{line}\n" for line in lines).encode("utf-8")
        for name, data in (("plain", text), ("bom", codecs.BOM_UTF8 + text)):
            (tmp_path / f"{name}.csv").write_bytes(data)
            assert main(["run", "--input", str(tmp_path / f"{name}.csv"), "--method", "dp-adapt", "--mu", "0.5",
                         "--seed", "1", "--out-prefix", str(tmp_path / name)]) == EXIT_OK
        assert (columnar(tmp_path / "bom.csv") is None) == quoted
        assert_same_ingest(tmp_path / "bom.csv")
        plain = (tmp_path / "plain.rejections.csv").read_bytes()
        assert len(plain.splitlines()) > 1
        assert (tmp_path / "bom.rejections.csv").read_bytes() == plain

    @pytest.mark.parametrize("rows", [0, io._BATCH_BYTES // 10], ids=["first-batch", "later-batch"])
    def test_byte_order_mark_counts_in_a_decode_error_position(self, tmp_path, rows):
        data = codecs.BOM_UTF8 + ("id,p\n" + "".join(f"h{i:06d},0.5\n" for i in range(rows))).encode("utf-8")
        data += b"b\xff,0.2\n"
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError, match=f"position {data.index(0xFF)}:"):
            ingest_csv(path)
        assert_same_ingest(path)
        for only_the_mark in (codecs.BOM_UTF8, codecs.BOM_UTF8 + b"\n"):
            path.write_bytes(only_the_mark)
            assert_same_ingest(path)

    def test_undecodable_byte_after_the_first_batch_names_its_file_position(self, tmp_path):
        rows = "".join(f"h{i:06d},0.5\n" for i in range(io._BATCH_BYTES // 10))
        data = ("id,p\n" + rows).encode("utf-8") + b"b\xff,0.2\n"
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        assert f"position {data.index(0xFF)}" in str(exc.value)
        with pytest.raises(IngestError) as err:
            ingest_csv(path)
        assert str(err.value) == f"cannot read {path}: {exc.value}"
        assert_same_ingest(path)

    @pytest.mark.parametrize("text", [
        "id,p,x1\na,0.5,1\nb,0.25,-2\n",
        'id,p,x1\na,0.5,1\n"b",0.25,-2\n',
        "id,p,x1\na,0.5,1\nb,0.25\n",
    ], ids=["regular", "quoted", "ragged"])
    def test_a_pipe_reads_as_the_file_does(self, tmp_path, text):
        # a pipe cannot be read a second time, so a file the columnar path
        # refuses must still reach the row loop whole
        path = write(tmp_path / "d.csv", text)
        script = (
            "import sys\n"
            "from dpadapt import io\n"
            "for source in ('/dev/stdin', sys.argv[1]):\n"
            "    try:\n"
            "        ds = io.ingest_csv(source)\n"
            "        print(ds.ids, ds.p.tolist(), None if ds.x is None else ds.x.tolist())\n"
            "    except io.IngestError as exc:\n"
            "        print(str(exc).replace(source, 'SOURCE'))\n"
        )
        src = os.path.dirname(os.path.dirname(dpadapt.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", script, path], input=text, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        from_pipe, from_file = done.stdout.splitlines()
        assert from_pipe == from_file


class TestIngestReadsOnce:
    def test_opens_once_and_never_seeks(self, tmp_path, monkeypatch):
        # the first batch is regular; the long row that ends the file is
        # refused in the second, which goes on to the row loop
        n = io._BATCH_BYTES // 10
        path = write(tmp_path / "d.csv", "id,p\n" + "".join(f"h{i:06d},0.5\n" for i in range(n)) + "z,0.5,1\n")
        calls = []

        class Handle:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.fh, name)

        def spy_open(*args, **kwargs):
            calls.append("open")
            return Handle(open(*args, **kwargs))

        monkeypatch.setattr(io, "open", spy_open, raising=False)
        with pytest.raises(IngestError) as err:
            ingest_csv(path)
        assert str(err.value) == f"{path}: row {n + 2} has 3 fields, expected 2"
        assert calls.count("open") == 1 and "seek" not in calls, calls
        monkeypatch.undo()
        assert_same_ingest(path)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82"], ids=["start-byte", "cut-sequence"])
    def test_undecodable_byte_in_a_pipe_names_its_file_position(self, bad):
        rows = "".join(f"h{i:06d},0.5\n" for i in range(io._BATCH_BYTES // 10))
        data = ("id,p\n" + rows).encode("utf-8") + b"b" + bad + b",0.2\n"
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        assert f"position {data.index(bad)}" in str(exc.value)
        script = (
            "from dpadapt import io\n"
            "try:\n"
            "    io.ingest_csv('/dev/stdin')\n"
            "except io.IngestError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(dpadapt.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], input=data, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode("utf-8") == f"cannot read /dev/stdin: {exc.value}\n"


class TestIngestMemory:
    def test_peak_is_about_the_dataset_plus_one_batch(self, tmp_path):
        # the whole text, a list of every line and a set of the ids would
        # each be about the size of the dataset again
        rng = np.random.default_rng(5)
        n = 50_000
        p, x = rng.random(n), rng.normal(size=(n, 2))
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,p,x1,x2\n")
            fh.writelines(f"h{i:06d},{pv!r},{a!r},{b!r}\n" for i, (pv, (a, b)) in enumerate(zip(p.tolist(), x.tolist())))
        tracemalloc.start()
        try:
            ds = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == n and ds.x.shape == (n, 2)
        own = sys.getsizeof(ds.ids) + sum(map(sys.getsizeof, ds.ids)) + ds.p.nbytes + ds.x.nbytes
        assert peak < 2.5 * own, (peak, own)

    def test_a_quoted_field_costs_about_one_batch(self, tmp_path):
        # about 40k rows over two batches. R's write.csv quotes the header and
        # every id, so the row loop reads the whole file; with only the last
        # id quoted, it reads the second batch. Either way it holds about the
        # dataset plus one batch, as the batches do.
        rng = np.random.default_rng(6)
        p, x = rng.random(40_000).tolist(), rng.normal(size=40_000).tolist()
        rows = [f"h{i:06d},{pv!r},{xv!r}\n" for i, (pv, xv) in enumerate(zip(p, x))]
        plain = "id,p,x1\n" + "".join(rows)
        assert 1 < len(plain) / io._BATCH_BYTES <= 2
        quoted = {
            "r-style": '"id","p","x1"\n' + "".join('"' + row.replace(",", '",', 1) for row in rows),
            "last-id": plain[: -len(rows[-1])] + '"' + rows[-1].replace(",", '",', 1),
        }
        peaks = {}
        for name, text in {"plain": plain, **quoted}.items():
            path = write(tmp_path / f"{name}.csv", text)
            tracemalloc.start()
            try:
                ds = ingest_csv(path)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ds.ids[-1] == "h039999" and ds.p.tolist() == p and ds.x[:, 0].tolist() == x
        assert peaks["r-style"] <= 1.5 * peaks["plain"], peaks
        assert peaks["last-id"] <= 1.2 * peaks["plain"], peaks


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

    def test_noise_scales(self, capsys):
        assert main(["privacy", "--delta-g", "1e-4", "--mu", "0.24"]) == EXIT_OK
        assert capsys.readouterr().out == f"gaussian_scale = {calibrate_gaussian(1e-4, 0.24).scale!r}\n"
        assert main(["privacy", "--delta-g", "1e-4", "--m", "500", "--epsilon", "0.5",
                     "--delta", "0.001"]) == EXIT_OK
        scale = calibrate_laplace(1e-4, 500, 0.5, 0.001).scale
        assert f"\nlaplace_scale = {scale!r}\n" in capsys.readouterr().out

    def test_gaussian_scale_is_per_peel_round(self, capsys):
        # with --m, the gaussian scale is a round's of an m-round peel, not one release's
        assert main(["privacy", "--delta-g", "1e-4", "--mu", "0.24", "--m", "500"]) == EXIT_OK
        scale = privacy.peel_noise("gaussian", 1e-4, 500, mu=0.24).scale
        assert capsys.readouterr().out == f"gaussian_scale = {scale!r}\n"
        assert scale == pytest.approx(calibrate_gaussian(1e-4, 0.24 / 500**0.5).scale, rel=1e-12)
        assert main(["privacy", "--delta-g", "1e-4", "--mu", "0.24", "--m", "0"]) == EXIT_USAGE


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

    def test_reads_and_writes_utf8_whatever_the_locale(self, tmp_path):
        # every open() in `dpadapt run` names its encoding, so an
        # EncodingWarning, made an error here, cannot fire
        data = tmp_path / "d.csv"
        data.write_bytes("id,p\né0,0.001\nb,0.5\n".encode("utf-8"))
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# défaut\nalpha=0.2\n".encode("utf-8"))
        script = (
            "import sys\n"
            "from dpadapt import cli, io\n"
            "data, cfg, prefix = sys.argv[1:]\n"
            "code = cli.main(['run', '--config', cfg, '--input', data, '--method', 'bh',"
            " '--seed', '1', '--out-prefix', prefix])\n"
            "sys.exit(code)\n"
        )
        src = os.path.dirname(os.path.dirname(dpadapt.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", script,
             str(data), str(cfg), str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert (tmp_path / "o.rejections.csv").read_bytes().splitlines()[1].startswith("é0,".encode("utf-8"))

    def test_duplicate_ids_is_data_error(self, tmp_path):
        f = write(tmp_path / "d.csv", "id,p\na,0.1\na,0.2\n")
        assert main(["run", "--input", str(f), "--method", "bh", "--out-prefix", str(tmp_path / "o")]) == EXIT_DATA

    def test_undecodable_input_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_bytes(b"id,p\na,0.5\nb\xff,0.2\n")
        assert main(["run", "--input", str(f), "--method", "bh", "--out-prefix", str(tmp_path / "o")]) == EXIT_DATA
        assert f"data error: cannot read {f}: 'utf-8' codec" in capsys.readouterr().err

    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys):
        f = write(tmp_path / "d.csv", "id,p\n" + "a" * (csv.field_size_limit() + 1) + ",0.5\n")
        assert main(["run", "--input", f, "--method", "bh", "--out-prefix", str(tmp_path / "o")]) == EXIT_DATA
        assert f"data error: cannot read {f}: field larger than field limit" in capsys.readouterr().err

    def test_singular_solve_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run_arm", singular)
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.6\n" for i in range(12)))
        code = main(["run", "--input", data, "--method", "dp-adapt", "--mu", "0.24",
                     "--m", "5", "--seed", "1", "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_INTERNAL
        assert "internal error: Singular matrix" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "absent.csv"), "--method", "bh",
                     "--seed", "1"]) == EXIT_DATA

    @pytest.mark.parametrize("prefix", ["nodir/x", "afile/x"])
    def test_unwritable_output_is_usage_error_before_ingest(self, tmp_path, monkeypatch, capsys, prefix):
        # the run used to spend its budget, then die writing its report
        f = write(tmp_path / "d.csv", "id,p\na,0.1\nb,0.9\n")
        (tmp_path / "afile").write_text("")

        def unreachable(*args):
            raise AssertionError("reached before the output directory was checked")

        monkeypatch.setattr(cli, "ingest_csv", unreachable)
        monkeypatch.setattr(cli, "run_arm", unreachable)
        out = tmp_path / prefix
        assert main(["run", "--input", f, "--method", "dp-adapt", "--mu", "0.5", "--out-prefix", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: --out-prefix directory {out.parent} does not exist or is not writable\n"
        assert sorted(os.listdir(tmp_path)) == ["afile", "d.csv"] and not (tmp_path / "afile").read_text()

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
        code = main(["run", "--input", data, *_preset_config(tmp_path, "bottomly-like"), "--seed", "2",
                     "--m", "5", "--out-prefix", str(tmp_path / "pre")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "pre.report.json").read_text())
        assert report["config"]["mu"] == 0.25

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\ng0,0.5\n")
        assert main(["run", "--input", data, "--method", "dp-adapt", "--mu", "-1",
                     "--seed", "1", "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE

    def test_failed_budget_audit_is_internal_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(privacy, "compose", lambda budgets: PrivacyBudget.from_mu(9.0))
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

    @pytest.mark.parametrize("method", ["adapt", "dp-adapt"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_refit_every_is_usage_error(self, tmp_path, capsys, method, value):
        # -1 used to end in exit 3 (the updater proposed no removal), and 0
        # silently meant the default cadence
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        assert main(["run", "--input", data, "--method", method, "--mu", "0.5", "--m", "5",
                     "--refit-every", value, "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE
        assert f"refit_every must be None or an integer >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("method,budget", [
        ("dp-adapt", ["--noise-family", "laplace", "--epsilon", "0.5", "--delta", "0.001"]),
        ("dp-adapt", ["--mu", "0.5"]),
        ("dp-bonf", ["--mu", "0.5"]),
    ], ids=["laplace-dp-adapt", "gaussian-dp-adapt", "dp-bonf"])
    def test_zero_sensitivity_is_usage_error(self, tmp_path, capsys, method, budget):
        # laplace dp-adapt used to add no noise yet report "private": true, and
        # dp-bonf ran plain Bonferroni
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        assert main(["run", "--input", data, "--method", method, *budget, "--m", "5",
                     "--delta-g", "0", "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE
        assert "delta_g must be positive" in capsys.readouterr().err

    def test_report_echoes_resolved_config(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        prefix = str(tmp_path / "dpbh")
        assert main(["run", "--input", data, "--method", "dp-bh", "--epsilon", "0.4",
                     "--delta", "0.01", "--m", "3", "--out-prefix", prefix]) == EXIT_OK
        echo = json.loads((tmp_path / "dpbh.report.json").read_text())["config"]
        assert (echo["epsilon"], echo["delta"]) == (0.4, 0.01)
        assert (echo["m"], echo["nu"], echo["eta"]) == (3, 0.5 * 0.1 / 9, 1e-4)
        assert "mu" not in echo  # dp-bh spends the Laplace (epsilon, delta) budget itself

        prefix = str(tmp_path / "dpadapt")
        assert main(["run", "--input", data, "--method", "dp-adapt", "--mu", "0.3",
                     "--m", "4", "--out-prefix", prefix]) == EXIT_OK
        echo = json.loads((tmp_path / "dpadapt.report.json").read_text())["config"]
        assert (echo["mu"], echo["epsilon"], echo["delta"], echo["m"]) == (0.3, None, None, 4)

        # adapt runs on every row, and its echo says so
        prefix = str(tmp_path / "adapt")
        assert main(["run", "--input", data, "--method", "adapt", "--m", "4", "--out-prefix", prefix]) == EXIT_OK
        echo = json.loads((tmp_path / "adapt.report.json").read_text())["config"]
        assert echo["m"] == 9
        assert (echo["em_iters"], echo["refit_every"]) == (5, None)
        assert "mu" not in echo

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_one_report_schema_for_every_method(self, tmp_path, method):
        data = _oracle_csv(tmp_path / "d.csv")
        assert main(["run", "--input", data, "--method", method, "--mu", "0.5", "--m", "40",
                     "--seed", "5", "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
        report = json.loads((tmp_path / "r.report.json").read_text())
        assert set(report) == {
            "config", "input", "model", "n_rejected", "private", "rejected", "rejected_ids",
            "seed", "stop_t", "trajectory", "versions",
        }
        assert set(report["versions"]) == {"dpadapt", "numpy", "python"}
        assert report["private"] == (method in ("dp-adapt", "dp-bh", "dp-bonf"))
        assert (report["config"]["input"], report["config"]["seed"]) == (data, 5)
        if method not in ("adapt", "dp-adapt"):
            assert (report["trajectory"], report["stop_t"], report["model"]) == ([], 0, None)


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


def _preset_config(tmp_path, name):
    """`run` flags for the oracle's --preset name: a --config file of the preset's values."""
    cfg = "".join(f"{key}={value}\n" for key, value in cli_oracle.PRESETS[name].items())
    return ["--config", write(tmp_path / f"{name}.cfg", cfg)]


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    else:
        yield path, value


def _floats(value):
    """Every float in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


class TestPrivateArtifacts:
    """A private run releases no raw p-value: no float in its artifacts equals an input p-value."""

    @pytest.mark.parametrize("method,flags", [
        ("dp-adapt", ["--mu", "0.5"]),
        ("dp-adapt", ["--noise-family", "laplace", "--epsilon", "0.5", "--delta", "1e-3"]),
        ("dp-bh", []),
        ("dp-bonf", ["--mu", "50", "--delta-g", "1e-6"]),
    ], ids=["dp-adapt-gaussian", "dp-adapt-laplace", "dp-bh", "dp-bonf"])
    def test_no_input_p_value_is_released(self, tmp_path, method, flags):
        data = _oracle_csv(tmp_path / "d.csv")
        inputs = set(ingest_csv(data).p.tolist())
        prefix = tmp_path / "r"
        assert main(["run", "--input", data, "--method", method, "--m", "40", "--seed", "1",
                     *flags, "--out-prefix", str(prefix)]) == EXIT_OK
        report = json.loads((tmp_path / "r.report.json").read_text())
        with open(tmp_path / "r.rejections.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert report["private"] and rows  # something was released
        released = list(_floats(report)) + [float(row[k]) for row in rows for k in ("noisy_p", "threshold")]
        assert not inputs.intersection(released)


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
        # `run` has no --preset: it reads the oracle's preset from a config file
        if "--preset" in argv:
            at = argv.index("--preset")
            argv[at:at + 2] = _preset_config(tmp_path, argv[at + 1])
        assert main(["run", *argv, "--out-prefix", str(new)]) == old_code
        if old_code != EXIT_OK:
            return
        assert (tmp_path / "new.rejections.csv").read_bytes() == (tmp_path / "old.rejections.csv").read_bytes()
        old_report = json.loads((tmp_path / "old.report.json").read_text())
        new_report = json.loads((tmp_path / "new.report.json").read_text())
        new_leaves = dict(_leaves(new_report))
        # The one allowed difference: a gaussian run given (epsilon, delta)
        # now spends mu = ed_to_gdp(epsilon, delta) directly, so its budget is
        # built from mu and the config carries no pair.
        pair_moved = method == "dp-adapt" and budget == "epsilon-delta" and not extra
        for path, value in _leaves(old_report):
            if pair_moved and path in (("config", "epsilon"), ("config", "delta")):
                assert new_leaves[path] is None
            else:
                assert new_leaves[path] == value, path


def _grid_csv(path):
    """The 50x50 grid design (pattern 1, beta 3.5) drawn from default_rng(2)."""
    x, p, _ = gen_grid(Scenario(kind="grid", grid_side=50, pattern=1, beta=3.5), np.random.default_rng(2))
    rows = "".join(f"g{i},{float(p[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r}\n" for i in range(p.size))
    return write(path, "id,p,x1,x2\n" + rows)


def _replay_argv(config):
    """`run` flags rebuilt from a report's config echo alone."""
    argv = ["run", "--input", config["input"], "--seed", str(config["seed"]), "--method", config["method"]]
    for key, value in config.items():
        if value is None or key in ("input", "seed", "method", "n", "private"):
            continue
        if key == "mu" and config["epsilon"] is not None:
            continue  # the budget was built from the (epsilon, delta) pair
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


_REFIT = ["--refit-every", "500", "--em-iters", "1"]
_REPLAY_CASES = {
    "bh": ("bh", []),
    "dp-bh": ("dp-bh", []),
    "dp-bonf": ("dp-bonf", ["--mu", "0.5"]),
    "adapt": ("adapt", []),
    "dp-adapt": ("dp-adapt", ["--mu", "0.5"]),
    "dp-adapt-laplace": ("dp-adapt", ["--noise-family", "laplace", "--epsilon", "0.5", "--delta", "1e-3"]),
    "adapt-refit": ("adapt", _REFIT),
    "dp-adapt-refit": ("dp-adapt", ["--mu", "0.5", *_REFIT]),
}


class TestReplayFromConfig:
    """A report's config, with its input and seed, replays the run exactly."""

    @pytest.mark.parametrize("case", list(_REPLAY_CASES))
    def test_config_echo_replays_the_run(self, tmp_path, case):
        method, flags = _REPLAY_CASES[case]
        data = _grid_csv(tmp_path / "grid.csv")
        assert main(["run", "--input", data, "--method", method, *flags, "--seed", "4",
                     "--out-prefix", str(tmp_path / "first")]) == EXIT_OK
        config = json.loads((tmp_path / "first.report.json").read_text())["config"]
        assert main(_replay_argv(config) + ["--out-prefix", str(tmp_path / "again")]) == EXIT_OK
        assert json.loads((tmp_path / "again.report.json").read_text())["config"] == config
        first, again = (tmp_path / "first.rejections.csv").read_bytes(), (tmp_path / "again.rejections.csv").read_bytes()
        assert first == again


class TestOneEcho:
    """MethodConfig.resolved(n) is the only echo: every report and manifest carries it."""

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_report_and_manifest_echo_resolved(self, tmp_path, method):
        budget = ["--mu", "0.5"] if "budget" in ARM_FIELDS[method] else []
        cfg = MethodConfig(method, mu=0.5 if budget else None)
        data = _oracle_csv(tmp_path / "d.csv")
        assert main(["run", "--input", data, "--method", method, *budget, "--seed", "3",
                     "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
        config = json.loads((tmp_path / "r.report.json").read_text())["config"]
        assert (config.pop("input"), config.pop("seed")) == (data, 3)
        private = method not in ("bh", "adapt")
        assert config == {"method": method, "n": 400, "private": private} | cfg.resolved(400)
        assert main(["simulate", "--n", "400", "--t", "10", "--methods", method, *budget, "--trials", "1",
                     "--seed", "3", "--out-dir", str(tmp_path / "sim")]) == EXIT_OK
        entry = json.loads((tmp_path / "sim" / "manifest.json").read_text())["methods"][0]
        assert entry == {"name": method} | cfg.resolved(400)


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
        assert set(manifest["versions"]) == {"dpadapt", "numpy", "python"}
        assert manifest["versions"]["dpadapt"] == dpadapt.__version__

    def test_csv_rows_carry_the_arm(self, tmp_path):
        # two arms of one method are told apart by their position in --methods
        out = tmp_path / "arms"
        assert main(["simulate", "--n", "400", "--t", "10", "--methods", "bh,dp-bh,bh",
                     "--trials", "2", "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
        with open(out / "trials.csv", newline="") as fh:
            trials = [(r["arm"], r["method"], r["trial"]) for r in csv.DictReader(fh)]
        assert trials == [(str(a), m, str(t)) for a, m in enumerate(["bh", "dp-bh", "bh"]) for t in (0, 1)]
        with open(out / "aggregate.csv", newline="") as fh:
            assert [(r["arm"], r["method"]) for r in csv.DictReader(fh)] == [("0", "bh"), ("1", "dp-bh"), ("2", "bh")]

    def test_manifest_echoes_resolved_budget(self, tmp_path):
        out = str(tmp_path / "m")
        assert main([
            "simulate", "--scenario", "no-side-info", "--n", "400", "--t", "10",
            "--trials", "1", "--seed", "5", "--methods", "dp-adapt,dp-bh", "--out-dir", out,
        ]) == EXIT_OK
        dp_adapt, dp_bh = json.loads((tmp_path / "m" / "manifest.json").read_text())["methods"]
        assert (dp_adapt["name"], dp_bh["name"]) == ("dp-adapt", "dp-bh")
        # dp-adapt spends a GDP mu built from mu; dp-bh spends (epsilon, delta) itself
        assert (dp_adapt["mu"], dp_adapt["epsilon"], dp_adapt["delta"]) == (
            MethodConfig("dp-adapt").budget().mu, None, None
        )
        assert "mu" not in dp_bh
        assert (dp_bh["epsilon"], dp_bh["delta"]) == (0.5, 1e-3)
        assert (dp_bh["nu"], dp_bh["eta"]) == (0.5 * 0.1 / 400, 1e-4)
        assert dp_adapt["m"] == dp_bh["m"] == 20

    @pytest.mark.parametrize("method, flags", [
        ("dp-bonf", ["--delta-g", "0"]),
        ("dp-adapt", ["--delta-g", "0"]),
        ("dp-adapt", ["--m", "401"]),
        ("dp-bh", ["--m", "401"]),
        ("dp-adapt", ["--s0", "0.7"]),
        ("adapt", ["--alpha", "0"]),
        ("dp-bh", ["--epsilon", "inf"]),
    ])
    def test_setting_every_trial_refuses_is_usage_error(self, tmp_path, capsys, method, flags):
        # each arm is checked once before the first trial: exit 1 with the
        # message `run` gives on 400 rows, and no artifacts (this used to exit
        # 0 with every trial of the arm recorded as failed)
        rows = "".join(f"g{i},{(i + 0.5) / 400!r}\n" for i in range(400))
        data = write(tmp_path / "d.csv", "id,p\n" + rows)
        budget = [] if method == "dp-bh" else ["--mu", "0.5"]
        assert main(["run", "--input", data, "--method", method, *budget, *flags,
                     "--out-prefix", str(tmp_path / "r")]) == EXIT_USAGE
        run_err = capsys.readouterr().err
        assert run_err.startswith("usage error: ")
        out = tmp_path / "bad"
        assert main(["simulate", "--n", "400", "--t", "10", "--methods", f"{method},bh",
                     *budget, *flags, "--trials", "2", "--seed", "1",
                     "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == run_err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--methods", ""], "methods must name at least one arm"),
        (["--methods", " , "], "methods must name at least one arm"),
        (["--workers", "0"], "workers must be a positive integer, got 0"),
        (["--workers", "-2"], "workers must be a positive integer, got -2"),
        (["--beta", "nan"], "beta must be finite, got nan"),
        (["--scenario", "grid", "--beta=inf"], "beta must be finite, got inf"),
    ], ids=["no-methods", "blank-methods", "workers-0", "workers-negative", "beta-nan", "grid-beta-inf"])
    def test_campaign_without_an_arm_or_a_worker_is_usage_error(self, tmp_path, capsys, flags, message):
        # these used to exit 0: no arm wrote empty artifacts, a worker count
        # below 1 ran serially, and a non-finite beta failed every trial
        out = tmp_path / "bad"
        assert main(["simulate", "--n", "400", "--t", "10", *flags, "--trials", "2", "--seed", "1",
                     "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_unusable_out_dir_is_usage_error_before_the_first_trial(self, tmp_path, monkeypatch, capsys):
        # the campaign used to run whole, then die making the directory
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"

        def unreachable(*args, **kwargs):
            raise AssertionError("a trial ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_campaign", unreachable)
        assert main(["simulate", "--n", "400", "--t", "10", "--methods", "bh", "--trials", "2", "--seed", "1",
                     "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --out-dir {out} cannot be created or is not writable\n"
        assert sorted(os.listdir(tmp_path)) == ["afile"]

    def test_nested_out_dir_is_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["simulate", "--n", "400", "--t", "10", "--methods", "bh", "--trials", "1", "--seed", "1",
                     "--out-dir", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["aggregate.csv", "manifest.json", "trials.csv"]

    def test_seed_required(self):
        assert main(["simulate", "--trials", "2"]) == EXIT_USAGE

    def test_full_scale(self, tmp_path):
        out = tmp_path / "full"
        # dp-bh, as bh reads no m
        assert main(["simulate", "--n", "100000", "--t", "100", "--methods", "dp-bh", "--trials", "1",
                     "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["total_n"] == 100_000
        assert manifest["methods"][0]["m"] == 5000

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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a misspelt key used to be ignored: the run went ahead at alpha 0.1
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        cfg = write(tmp_path / "run.cfg", "alhpa=0.5\nmethod=bh\n")
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--input", data, "--out-prefix", str(out)]) == EXIT_USAGE
        assert f"usage error: {cfg}: unknown key alhpa" in capsys.readouterr().err
        assert not (tmp_path / "x.report.json").exists()

    @pytest.mark.parametrize("line", ["help=yes", "config=other.cfg"])
    def test_help_and_config_keys_are_usage_errors(self, tmp_path, capsys, line):
        # both are dests of every subcommand, so the unknown-key check passed
        # them, and the run went ahead without reading other.cfg
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        write(tmp_path / "other.cfg", "alpha=0.5\n")
        cfg = write(tmp_path / "k.cfg", f"method=bh\n{line}\n")
        key = line.partition("=")[0]
        assert main(["run", "--config", cfg, "--input", data, "--out-prefix", str(tmp_path / "r")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {cfg}: key {key} cannot be set in a config file\n"
        assert main(["simulate", "--config", cfg, "--n", "200", "--t", "5", "--methods", "bh", "--trials", "1",
                     "--seed", "1", "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "k.cfg", "other.cfg"]

    def test_explicit_flag_beats_config_file(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 10}\n" for i in range(20)))
        cfg = write(tmp_path / "both.cfg", "alpha=0.3\nm=12\n")
        assert main(["run", "--config", cfg, "--input", data, "--method", "dp-bh", "--alpha", "0.2",
                     "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
        echo = json.loads((tmp_path / "r.report.json").read_text())["config"]
        assert (echo["alpha"], echo["m"]) == (0.2, 12)
        assert main(["simulate", "--config", cfg, "--n", "200", "--t", "5", "--methods", "dp-bh",
                     "--alpha", "0.2", "--trials", "1", "--seed", "1", "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        echo = json.loads((tmp_path / "s" / "manifest.json").read_text())["methods"][0]
        assert (echo["alpha"], echo["m"]) == (0.2, 12)

    def test_config_file_supplies_a_required_flag(self, tmp_path):
        # argparse checks required flags against the command line alone, so
        # `input` and `seed` from a file used to be read and then ignored
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.0{i + 1}\n" for i in range(9)))
        other = write(tmp_path / "e.csv", "id,p\nh0,0.9\n")
        cfg = write(tmp_path / "req.cfg", f"input={data}\nseed=3\nmethod=bh\n")
        assert main(["run", "--config", cfg, "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
        echo = json.loads((tmp_path / "r.report.json").read_text())["config"]
        assert (echo["input"], echo["seed"]) == (data, 3)
        assert main(["run", "--config", cfg, "--input", other, "--out-prefix", str(tmp_path / "r2")]) == EXIT_OK
        assert json.loads((tmp_path / "r2.report.json").read_text())["config"]["input"] == other
        sim = ["simulate", "--config", cfg, "--n", "200", "--t", "5", "--methods", "bh", "--trials", "1"]
        assert main([*sim, "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["seed"] == 3
        assert main([*sim, "--seed", "4", "--out-dir", str(tmp_path / "s2")]) == EXIT_OK
        assert json.loads((tmp_path / "s2" / "manifest.json").read_text())["seed"] == 4

    def test_required_flag_missing_from_both_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "none.cfg", "alpha=0.2\n")
        assert main(["run", "--config", cfg, "--out-prefix", str(tmp_path / "r")]) == EXIT_USAGE
        assert "the following arguments are required: --input" in capsys.readouterr().err
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
        assert "the following arguments are required: --seed" in capsys.readouterr().err

    def test_config_key_of_the_other_subcommand_is_allowed(self, tmp_path):
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        cfg = write(tmp_path / "both.cfg", "alpha=0.2\nmethod=bh\ntrials=3\nmethods=bh\n")
        assert main(["run", "--config", cfg, "--input", data, "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
        assert json.loads((tmp_path / "r.report.json").read_text())["config"]["alpha"] == 0.2
        assert main(["simulate", "--config", cfg, "--n", "200", "--t", "5", "--seed", "1",
                     "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["trials"] == 3

    @pytest.mark.parametrize("line, allowed", [
        ("method=nope", "dp-adapt, adapt, dp-bh, dp-bonf, bh"),
        ("noise-family=cauchy", "gaussian, laplace"),
        ("scenario=lattice", "no-side-info, grid"),
        ("null=cauchy", "uniform, beta22, pow-cubic"),
        ("pattern=4", "1, 2, 3"),
    ])
    def test_config_value_outside_its_choices_is_usage_error(self, tmp_path, capsys, line, allowed):
        # argparse checks choices on the command line alone: a bad `method`
        # from a file used to end in a KeyError traceback, a bad `pattern`
        # in a campaign on a pattern that does not exist
        data = write(tmp_path / "d.csv", "id,p\n" + "".join(f"g{i},0.{i + 1}\n" for i in range(9)))
        cfg = write(tmp_path / "bad.cfg", line + "\n")
        key, _, value = line.partition("=")
        assert main(["run", "--config", cfg, "--input", data, "--out-prefix", str(tmp_path / "r")]) == EXIT_USAGE
        assert main(["simulate", "--config", cfg, "--n", "200", "--t", "5", "--methods", "bh", "--trials", "1",
                     "--seed", "1", "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
        message = f"usage error: {cfg}: {key.replace('-', '_')}={value!r} is not one of {allowed}\n"
        assert capsys.readouterr().err == 2 * message
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "d.csv"]

    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "pattern=two\n")
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
        assert f"usage error: {cfg}: pattern='two' is not a valid int" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_undecodable_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"trials=2\nmethods=bh\xff\n")
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out-dir", str(tmp_path / "o")]) == EXIT_USAGE
        assert f"cannot read config file {cfg}: 'utf-8' codec" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative --seed is refused as the flags are read: a usage error that
    names the flag and the value, before any input is read or file written."""

    def _refused(self, tmp_path, capsys, argv):
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--seed" in err and "-1" in err, err
        assert sorted(os.listdir(tmp_path)) == before

    def _seed(self, tmp_path, source):
        return ["--seed", "-1"] if source == "flag" else ["--config", write(tmp_path / "s.cfg", "seed=-1\n")]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("present", [True, False], ids=["input", "missing-input"])
    def test_run(self, tmp_path, capsys, source, present):
        # a missing input still gives the seed's error: ingest never runs
        data = tmp_path / "d.csv"
        if present:
            write(data, "id,p,x1\na,0.5,1\nb,0.01,2\n")
        self._refused(tmp_path, capsys, ["run", "--input", str(data), "--method", "bh",
                                         *self._seed(tmp_path, source), "--out-prefix", str(tmp_path / "r")])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_simulate(self, tmp_path, capsys, source):
        self._refused(tmp_path, capsys, ["simulate", "--n", "200", "--t", "5", "--methods", "bh", "--trials", "1",
                                         *self._seed(tmp_path, source), "--out-dir", str(tmp_path / "s")])


class TestAtomicWrites:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_artifacts_follow_the_umask(self, tmp_path, umask, mode):
        # the temp file each artifact is renamed from must not impose mkstemp's 0600
        data = write(tmp_path / "d.csv", "id,p\na,0.01\nb,0.5\n")
        old = os.umask(umask)
        try:
            assert main(["run", "--input", data, "--method", "bh", "--out-prefix", str(tmp_path / "r")]) == EXIT_OK
            assert main(["simulate", "--n", "200", "--t", "5", "--methods", "bh", "--trials", "1", "--seed", "1",
                         "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        finally:
            os.umask(old)
        written = [tmp_path / "r.report.json", tmp_path / "r.rejections.csv"]
        written += [tmp_path / "s" / name for name in ("trials.csv", "aggregate.csv", "manifest.json")]
        assert {f.name: stat.S_IMODE(f.stat().st_mode) for f in written} == {f.name: mode for f in written}

    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def rows():
            yield [1]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            io.write_csv_atomic(target, ["a"], rows())
        assert os.listdir(tmp_path) == ["out.csv"] and target.read_text() == "old\n"
