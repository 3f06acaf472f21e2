import numpy as np
import pytest

from commodgen.dataio import (DataError, Normalizer, PathBatch, PriceTable,
                              filter_table, fit_normalizer, jump_filter,
                              load_csv, windowize)


def write_csv(tmp_path, text, name="prices.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_basic_load_sorted(self, tmp_path):
        p = write_csv(tmp_path, "date,gas,coal\n2021-01-05,10.5,52.0\n2021-01-04,10.0,51.0\n")
        table = load_csv(p)
        assert table.names == ["gas", "coal"]
        assert table.dates[0].isoformat() == "2021-01-04"
        np.testing.assert_array_equal(table.columns["gas"], [10.0, 10.5])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "date,gas,coal\n2021-01-05,10.5,52.0\n2021-01-04,10.0,51.0\n"
        plain = load_csv(write_csv(tmp_path, text))
        p = tmp_path / "excel.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())     # as "CSV UTF-8" exports write
        marked = load_csv(p)
        assert marked.names == plain.names == ["gas", "coal"]
        assert marked.dates == plain.dates
        np.testing.assert_array_equal(marked.values, plain.values)

    @pytest.mark.parametrize("text,fragment", [
        ("gas,coal\n1,2\n", "first column must be 'date'"),
        ("date,gas\nnot-a-date,1.0\n", "unparsable date"),
        ("date,gas\n2021-01-04,abc\n", "unparsable number"),
        ("date,gas\n2021-01-04,\n", "missing value"),
        ("date,gas\n2021-01-04,1.0\n2021-01-04,2.0\n", "duplicate date"),
        ("date,gas\n2021-01-04,-1.0\n", "non-positive"),
        ("date,gas\n", "no data rows"),
        ("date,gas,gas\n2021-01-04,1.0,2.0\n", "duplicate column"),
    ])
    def test_malformed_inputs(self, tmp_path, text, fragment):
        p = write_csv(tmp_path, text)
        with pytest.raises(DataError, match=fragment):
            load_csv(p)


class TestJumpFilter:
    def test_worked_example(self):
        out = jump_filter(np.array([0.0, 1.0, 6.0, 7.0]), threshold=2.0)
        np.testing.assert_array_equal(out, [0.0, 1.0, 3.0, 7.0])

    def test_negative_mirror(self):
        out = jump_filter(np.array([0.0, -1.0, -6.0, -7.0]), threshold=2.0)
        np.testing.assert_array_equal(out, [0.0, -1.0, -3.0, -7.0])

    def test_endpoints_always_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = np.cumsum(rng.standard_t(df=2, size=80))
            y = jump_filter(x, quantile_level=0.9)
            assert y[0] == x[0]
            assert y[-1] == pytest.approx(x[-1], abs=1e-9)

    def test_interior_increments_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = np.cumsum(rng.standard_t(df=2, size=60))
            q = float(np.quantile(np.abs(np.diff(x)), 0.95))
            y = jump_filter(x, quantile_level=0.95)
            d = np.abs(np.diff(y))
            assert np.all(d[:-1] <= q + 1e-12)

    def test_no_jumps_is_identity(self):
        x = np.array([1.0, 1.5, 2.0, 2.4])
        np.testing.assert_array_equal(jump_filter(x, threshold=10.0), x)

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            jump_filter(np.array([1.0]))
        with pytest.raises(DataError):
            jump_filter(np.ones((2, 2)))
        with pytest.raises(DataError):
            jump_filter(np.array([1.0, 2.0]), quantile_level=1.5)

    def test_filter_table_per_column(self):
        import datetime as dt
        dates = [dt.date(2021, 1, 1 + i) for i in range(4)]
        table = PriceTable(dates=dates, columns={"a": np.array([10.0, 11.0, 16.0, 17.0]),
                                                 "b": np.array([5.0, 5.1, 5.2, 5.3])})
        out = filter_table(table, quantile_level=0.5)
        assert out.columns["a"][-1] == 17.0
        np.testing.assert_allclose(out.columns["b"], table.columns["b"])


class TestWindowize:
    def test_counts(self):
        import datetime as dt
        n = 241
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        table = PriceTable(dates=dates, columns={"x": np.linspace(1, 2, n)})
        batch = windowize(table, length=30, stride=1)
        assert batch.values.shape == (212, 30, 1)
        np.testing.assert_array_equal(batch.values[0, :, 0], table.columns["x"][:30])
        np.testing.assert_array_equal(batch.values[-1, :, 0], table.columns["x"][-30:])

    def test_stride(self):
        import datetime as dt
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(10)]
        table = PriceTable(dates=dates, columns={"x": np.arange(1.0, 11.0)})
        batch = windowize(table, length=4, stride=3)
        assert batch.n_samples == 3
        np.testing.assert_array_equal(batch.values[:, 0, 0], [1.0, 4.0, 7.0])

    def test_too_short(self):
        import datetime as dt
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(10)]
        table = PriceTable(dates=dates, columns={"x": np.arange(1.0, 11.0)})
        with pytest.raises(DataError, match="exceeds"):
            windowize(table, length=30)


class TestNormalizer:
    def batch(self):
        rng = np.random.default_rng(5)
        vals = np.exp(rng.standard_normal((8, 6, 2)) * 0.1) * np.array([10.0, 50.0])
        return PathBatch(values=vals, labels=["gas", "coal"])

    def test_initial_value_ratio_starts_at_one(self):
        b = self.batch()
        norm = fit_normalizer(b)
        scaled = norm.apply(b)
        np.testing.assert_array_equal(scaled.values[:, 0, :], np.ones((8, 2)))

    def test_initial_value_ratio_invert_restores_scale(self):
        b = self.batch()
        norm = fit_normalizer(b)
        back = norm.invert(norm.apply(b))
        # per-dimension mean start level is restored exactly
        np.testing.assert_allclose(back.values[:, 0, :].mean(axis=0),
                                   b.values[:, 0, :].mean(axis=0), rtol=1e-12)
        # and a batch whose starts all equal the reference level roundtrips exactly
        flat = b.values / b.values[:, :1, :] * norm.scale
        fb = PathBatch(values=flat, labels=b.labels)
        np.testing.assert_allclose(norm.invert(norm.apply(fb)).values, fb.values, rtol=1e-12)

    def test_dimension_mismatch(self):
        b = self.batch()
        norm = fit_normalizer(b)
        other = PathBatch(values=np.ones((2, 3, 3)), labels=["a", "b", "c"])
        with pytest.raises(DataError, match="dimensions"):
            norm.apply(other)

    def test_serialization_roundtrip(self):
        norm = fit_normalizer(self.batch())
        again = Normalizer.from_dict(norm.to_dict())
        np.testing.assert_array_equal(again.scale, norm.scale)
        assert again.to_dict() == norm.to_dict()


class TestPathBatch:
    def test_validation(self):
        with pytest.raises(DataError):
            PathBatch(values=np.ones((2, 1, 1)), labels=["x"])  # seq_len < 2
        with pytest.raises(DataError):
            PathBatch(values=np.ones((2, 3)), labels=["x"])  # not 3-d
        with pytest.raises(DataError):
            PathBatch(values=np.full((1, 3, 1), np.inf), labels=["x"])
        with pytest.raises(DataError):
            PathBatch(values=np.ones((1, 3, 2)), labels=["x"])  # label count
