import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import skew as scipy_skew

from conftest import make_traj
from f0priv import trajectory
from f0priv.trajectory import (
    FRAME_HOP_MIN_S,
    TIME_MAX_S,
    VOICED_MAX_HZ,
    VOICED_MIN_HZ,
    CsvFormatError,
    F0Trajectory,
    NoVoicedFramesError,
    format_f0_csv,
    read_f0_csv,
    stats,
    validate,
    voiced_mean,
    write_f0_csv,
)
from oracles import format_f0_csv_reference, read_f0_csv_reference, stats_reference, validate_reference


class TestValidate:
    def test_valid(self):
        assert validate(make_traj([0, 110, 120])) == []

    def test_sub_40_voiced(self):
        problems = validate(make_traj([0, 35, 120]))
        assert len(problems) == 1
        assert "voiced value < 40 Hz at frame 1" in problems[0]

    def test_non_finite(self):
        problems = validate(make_traj([0, np.nan]))
        assert any("non-finite at frame 1" in p for p in problems)
        assert any("non-finite" in p for p in validate(make_traj([np.inf, 100])))

    def test_negative(self):
        assert any("negative" in p for p in validate(make_traj([-5.0, 100])))

    def test_empty_and_bad_hop(self):
        assert any("empty" in p for p in validate(make_traj([])))
        assert any("frame_hop" in p for p in validate(make_traj([100.0], hop=0.0)))

    def test_boundary_value_is_valid(self):
        assert validate(make_traj([40.0, 0.0])) == []
        assert validate(make_traj([VOICED_MAX_HZ, 0.0], hop=FRAME_HOP_MIN_S)) == []

    def test_above_the_valid_range(self):
        assert validate(make_traj([0.0, 120.0, np.nextafter(VOICED_MAX_HZ, np.inf), 1e308])) == [
            "voiced value > 128000 Hz at frame 2: 128000.00000000001", "voiced value > 128000 Hz at frame 3: 1e+308"]

    @pytest.mark.parametrize("values, problem", [
        ([128000.3, 0.0], "voiced value > 128000 Hz at frame 0: 128000.3"),
        ([0.0, 39.9999999], "voiced value < 40 Hz at frame 1: 39.9999999"),
        ([128000.58, 0.0], "voiced value > 128000 Hz at frame 0: 128001"),
        ([0.0, 39.9], "voiced value < 40 Hz at frame 1: 39.9"),
    ])
    def test_value_next_to_a_bound_is_told_apart_from_it(self, values, problem):
        # Where :g would print the bound itself, the value is printed in full.
        assert validate(make_traj(values)) == [problem]

    @pytest.mark.parametrize("hop", [0.0, -0.01, 5e-324, np.nextafter(FRAME_HOP_MIN_S, 0.0), np.nan, np.inf])
    def test_hop_below_the_csv_resolution_or_infinite(self, hop):
        assert validate(make_traj([100.0, 110.0], hop=hop)) == [
            f"frame_hop must be finite and at least 1e-06 s, got {hop}"]

    def test_last_frame_before_the_time_bound(self):
        assert validate(make_traj([100.0, 0.0], hop=np.nextafter(TIME_MAX_S, 0.0))) == []
        assert validate(make_traj([100.0, 0.0, 110.0], hop=TIME_MAX_S / 2)) == [
            "last frame must lie before 2147483648 s, got 2147483648.0 s"]
        assert validate(make_traj([100.0], hop=1e300)) == []  # one frame lies at 0 s

    @given(
        hop=st.sampled_from([0.0, -0.01, np.nan, np.inf, 1e-7, FRAME_HOP_MIN_S, 0.01, TIME_MAX_S / 2, 1e300]),
        values=st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, -5.0, -1e-300, 39.9999999, 40.0,
                             VOICED_MAX_HZ, 128000.3, 1e308]),
            st.floats(VOICED_MIN_HZ, VOICED_MAX_HZ),
        ), max_size=12),
    )
    @example(hop=0.01, values=[-5.0, 100.0, np.nan])
    def test_matches_the_per_frame_reference(self, hop, values):
        # Problems come in frame order, whatever mix of kinds a contour holds.
        assert validate(make_traj(values, hop=hop)) == validate_reference(hop, values)


class TestVoicedMean:
    def test_example(self, traj_fixture):
        assert voiced_mean(traj_fixture) == pytest.approx(110.0, abs=0)

    def test_constant(self):
        assert voiced_mean(make_traj([220.0, 220.0])) == 220.0

    def test_no_voiced_frames(self):
        with pytest.raises(NoVoicedFramesError):
            voiced_mean(make_traj([0.0, 0.0]))


class TestStats:
    def test_constant_voiced(self):
        st = stats(make_traj([100.0] * 10))
        assert st.log_f0_var == 0.0
        assert st.log_f0_skew == 0.0
        assert st.rise_rate_hz_s == 0.0
        assert st.voiced_mean_hz == pytest.approx(100.0)
        assert st.log_f0_mean == pytest.approx(np.log(100.0))
        assert st.voiced_fraction == 1.0

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 100])
    def test_constant_exact_zero_any_length(self, n):
        # Some lengths make the float mean round off the sample value; the
        # spread statistics must still be exactly zero.
        st = stats(make_traj([100.0] * n))
        assert st.log_f0_var == 0.0
        assert st.log_f0_skew == 0.0

    @pytest.mark.parametrize("base", [1.0, VOICED_MIN_HZ, 123.4, VOICED_MAX_HZ, 1e300])
    def test_near_constant_skew_is_finite(self, base):
        # One ulp apart is the least spread a contour can have; its skew
        # comes from the formula without a floating-point fault. ln(F0)
        # values are spaced most finely near 1 Hz.
        up = np.nextafter(base, np.inf)
        with np.errstate(all="raise"):
            for values in ([base] * 4 + [up], [base, up] * 5, [up] * 7 + [base]):
                assert np.isfinite(stats(make_traj(values)).log_f0_skew)
            assert stats(make_traj([base] * 6)).log_f0_skew == 0.0

    def test_rise_rate_hand_computed(self):
        # Deltas +10, -5, +10; mean positive delta 10 over a 10 ms hop.
        st = stats(make_traj([100.0, 110.0, 105.0, 115.0], hop=0.01))
        assert st.rise_rate_hz_s == pytest.approx(1000.0, rel=1e-12)

    def test_rise_rate_skips_run_boundaries(self):
        # The 90 -> 200 jump crosses an unvoiced gap and must not count.
        st = stats(make_traj([80.0, 90.0, 0.0, 200.0, 210.0], hop=0.01))
        assert st.rise_rate_hz_s == pytest.approx(1000.0, rel=1e-12)

    def test_all_unvoiced(self):
        st = stats(make_traj([0.0, 0.0, 0.0]))
        assert st.voiced_fraction == 0.0
        assert st.voiced_mean_hz is None
        assert st.log_f0_var is None
        assert not st.complete

    def test_below_three_voiced_frames_absent(self):
        st = stats(make_traj([100.0, 120.0, 0.0]))
        assert st.voiced_mean_hz is None
        assert st.voiced_fraction == pytest.approx(2.0 / 3.0)

    def test_invariant_under_appended_unvoiced(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(80, 300, 50)
        a = stats(make_traj(values))
        b = stats(make_traj(np.concatenate([values, np.zeros(20)])))
        for name in ("voiced_mean_hz", "log_f0_mean", "log_f0_var", "log_f0_skew", "rise_rate_hz_s"):
            assert getattr(a, name) == getattr(b, name)
        assert b.voiced_fraction < a.voiced_fraction

    def test_skewness_matches_scipy_convention(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(80, 300, 200)
        st = stats(make_traj(values))
        expected = scipy_skew(np.log(values), bias=False)
        assert st.log_f0_skew == pytest.approx(expected, rel=1e-12)

    def test_vector_roundtrip(self):
        st = stats(make_traj([100.0, 150.0, 120.0, 130.0]))
        vec = st.as_vector()
        assert vec.shape == (6,)
        assert vec[0] == st.voiced_mean_hz
        with pytest.raises(ValueError):
            stats(make_traj([0.0, 0.0])).as_vector()


voiced_hz = st.floats(VOICED_MIN_HZ, VOICED_MAX_HZ)
stats_contours = st.one_of(
    st.lists(st.one_of(st.just(0.0), voiced_hz), min_size=1, max_size=400),
    st.builds(lambda v, n: [v] * n, voiced_hz, st.integers(1, 400)),  # constant
    # Three voiced frames, the fewest with statistics, between unvoiced runs.
    st.builds(lambda voiced, gaps: [x for v, gap in zip(voiced + [0.0], gaps) for x in [0.0] * gap + [v]][:-1],
              st.lists(voiced_hz, min_size=3, max_size=3), st.lists(st.integers(0, 99), min_size=4, max_size=4)),
    st.lists(st.just(0.0), min_size=1, max_size=400),  # all unvoiced
)


def field_bits(fields):
    return [None if v is None else np.float64(v).tobytes() for v in fields]


class TestStatsProperties:
    @settings(deadline=None)
    @given(values=stats_contours, hop=st.floats(FRAME_HOP_MIN_S, 1.0))
    @example(values=[100.0] * 7, hop=0.01)
    @example(values=[VOICED_MIN_HZ] * 4 + [np.nextafter(VOICED_MIN_HZ, np.inf)], hop=0.01)
    @example(values=[0.0, 120.0, 0.0, 130.0, 125.0], hop=FRAME_HOP_MIN_S)
    @example(values=[0.0, 0.0, 0.0], hop=1.0)
    def test_equals_the_reference_bit_for_bit(self, values, hop):
        got = stats(make_traj(values, hop=hop))
        want = stats_reference(hop, values)
        assert field_bits(getattr(got, name) for name in got.FIELD_ORDER) == field_bits(want)


class TestCsv:
    def test_round_trip(self, tmp_path, traj_fixture):
        path = tmp_path / "t.csv"
        write_f0_csv(traj_fixture, path)
        back = read_f0_csv(path)
        assert back.frame_hop == traj_fixture.frame_hop
        assert np.array_equal(back.values, traj_fixture.values)
        assert back.recording_id == "t"

    def test_round_trip_quantized_random(self, tmp_path):
        rng = np.random.default_rng(17)
        for i in range(10):
            values = np.round(rng.uniform(40, 400, rng.integers(2, 60)), 6)
            values[rng.random(len(values)) < 0.3] = 0.0
            traj = make_traj(values, hop=0.01, rid=f"r{i}")
            path = tmp_path / f"r{i}.csv"
            write_f0_csv(traj, path)
            back = read_f0_csv(path)
            assert np.array_equal(back.values, traj.values)
            assert back.frame_hop == pytest.approx(traj.frame_hop, abs=1e-9)

    def test_written_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_f0_csv(make_traj([0.0, 110.5]), path)
        text = path.read_bytes().decode("utf-8")
        assert text == "time_s,f0_hz\n0.000000,0.000000\n0.010000,110.500000\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time_s,f0_hz\n")
        with pytest.raises(CsvFormatError, match="empty trajectory"):
            read_f0_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,100.0\n")
        with pytest.raises(CsvFormatError, match="header"):
            read_f0_csv(path)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(CsvFormatError, match="^line 1: missing header$"):
            read_f0_csv(path)

    def test_non_numeric_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f0_hz\n0.010,not_a_number\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_f0_csv(path)

    def test_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f0_hz\n0.0,1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="2 columns"):
            read_f0_csv(path)

    def test_single_row_needs_hop(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("time_s,f0_hz\n0.000000,100.000000\n")
        with pytest.raises(CsvFormatError, match="^line 2: cannot infer frame hop from a single row$"):
            read_f0_csv(path)

    def test_single_row_after_a_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("time_s,f0_hz\n\n0.000000,100.000000\n\n")
        with pytest.raises(CsvFormatError, match="^line 3: cannot infer frame hop from a single row$"):
            read_f0_csv(path)

    def test_time_offset_refused(self, tmp_path):
        path = tmp_path / "late.csv"
        for rows, message in [
            ("1.000000,100.0\n1.010000,100.0\n1.020000,100.0\n", "line 2: time column starts at 1 s, not 0"),
            ("0.010000,100.0\n", "line 2: time column starts at 0.01 s, not 0"),
            # Error lines count every line of the file, blank ones too.
            ("\n0.010000,100.0\n0.020000,100.0\n", "line 3: time column starts at 0.01 s, not 0"),
            ("   \n\n1.000000,100.0\n", "line 4: time column starts at 1 s, not 0"),
        ]:
            path.write_text("time_s,f0_hz\n" + rows)
            with pytest.raises(CsvFormatError, match=f"^{message}$"):
                read_f0_csv(path)

    def test_non_uniform_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        for rows, message in [
            ("0.000000,100.0\n0.010000,100.0\n0.030000,100.0\n", "line 4: non-uniform time steps"),
            ("0.000000,100.000000\n\n0.010000,100.000000\n0.020000,100.000000\n0.040000,100.000000\n",
             "line 6: non-uniform time steps"),
            ("0.000000,100.0\n0.010000,100.0\n\n\n0.020000,100.0\n\n0.050000,100.0\n",
             "line 8: non-uniform time steps"),
            ("0.000000,100.0\n0.000000,100.0\n", r"line 3: non-increasing time column \(hop 0\)"),
            ("0.000000,100.0\n \n\t\n-0.010000,100.0\n", r"line 5: non-increasing time column \(hop -0.01\)"),
        ]:
            path.write_text("time_s,f0_hz\n" + rows)
            with pytest.raises(CsvFormatError, match=f"^{message}$"):
                read_f0_csv(path)

    @pytest.mark.parametrize("rows", ["", "\n", "\n  \n\t\n", "\r\n \r\n"],
                             ids=["none", "one-empty", "blank", "crlf-blank"])
    def test_no_data_rows_is_empty_without_a_warning(self, tmp_path, rows):
        path = tmp_path / "empty.csv"
        path.write_text("time_s,f0_hz\n" + rows, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="empty trajectory: no data rows"):
                read_f0_csv(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_writer_refuses_fewer_than_two_frames(self, tmp_path, n):
        message = f"^a contour CSV needs 2 frames to give its frame hop, got {n}$"
        with pytest.raises(ValueError, match=message):
            format_f0_csv(make_traj([120.0] * n))
        with pytest.raises(ValueError, match=message):
            write_f0_csv(make_traj([120.0] * n), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


class TestCsvReader:
    # 16 kHz hops of an odd sample count end in a 5 at the 7th decimal, so
    # their timestamps sit on rounding ties.
    @pytest.mark.parametrize(
        "sample_rate, hop_samples", [(22050, 220), (44100, 441), (16000, 13), (16000, 949)]
    )
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 10, 30, 100, 1001, 4716, 20000])
    def test_rewrite_is_byte_identical(self, tmp_path, sample_rate, hop_samples, n):
        hop = hop_samples / sample_rate
        text = format_f0_csv(make_traj(np.full(n, 120.0), hop=hop))
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        back = read_f0_csv(path)
        assert format_f0_csv(back) == text
        assert abs(back.frame_hop - hop) <= 1e-6 / (n - 1)

    def test_exact_hop_keeps_its_bits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_f0_csv(make_traj(np.full(300, 120.0), hop=0.01), path)
        assert read_f0_csv(path).frame_hop == 0.01

    def test_hop_of_the_largest_times_stays_finite(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text(f"time_s,f0_hz\n0.000000,100.0\n{1.7e308:.6f},100.0\n")
        traj = read_f0_csv(path)
        assert traj.frame_hop == 1.7e308
        assert validate(traj) == ["last frame must lie before 2147483648 s, got 1.7e+308 s"]

    def test_one_and_three_columns_are_refused(self, tmp_path):
        # As many commas as rows, but not one per row.
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f0_hz\n0.000000\n0.010000,100.0,1.0\n")
        with pytest.raises(CsvFormatError, match="line 2: expected 2 columns, got 1"):
            read_f0_csv(path)

    def test_float_syntax_is_kept_where_numpy_differs(self, tmp_path):
        # numpy refuses 1_0 and full-width digits, which float() reads, and
        # reads a "\x1f" before a number as a space, which float() refuses.
        path = tmp_path / "t.csv"
        path.write_text("time_s,f0_hz\n0.000000,1_20.5\n0.010000,\uff11\uff10\uff10\n", encoding="utf-8")
        assert read_f0_csv(path).values.tolist() == [120.5, 100.0]
        path.write_text("time_s,f0_hz\n0.000000,100.0\n0.010000,\x1f100.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match=r"^line 3: could not convert string to float: '\\x1f100\.0'$"):
            read_f0_csv(path)

    def test_non_finite_time_is_non_uniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f0_hz\n0.000000,100.0\n0.010000,100.0\nnan,100.0\n")
        with pytest.raises(CsvFormatError, match="line 4: non-uniform"):
            read_f0_csv(path)


SAMPLE_RATES = (8000, 16000, 22050, 44100, 48000)

contours = st.lists(st.one_of(st.just(0.0), st.floats(40.0, 1000.0)), min_size=2, max_size=300)
hops = st.builds(
    lambda sr, k: k / sr, st.sampled_from(SAMPLE_RATES), st.integers(1, 2048)
)
# Every hop of a contour with at least two frames before the time bound.
valid_hops = st.one_of(hops, st.floats(FRAME_HOP_MIN_S, TIME_MAX_S / 2, exclude_max=True))

# Row corruptions: each turns one well-formed row into something the reader
# must either accept as float() would or refuse with a line-numbered error.
CORRUPTIONS = (
    lambda row: "",
    lambda row: "   ",
    lambda row: row.partition(",")[0],
    lambda row: row + ",1.0",
    lambda row: row.replace(",", ",abc"),
    lambda row: "x" + row,
    lambda row: row.partition(",")[0] + ",nan",
    lambda row: row.partition(",")[0] + ",inf",
    lambda row: "inf," + row.partition(",")[2],
    lambda row: "nan," + row.partition(",")[2],
    lambda row: row.partition(",")[0] + ",1_0",
    lambda row: row.partition(",")[0] + ",\uff11",  # a full-width 1
    lambda row: row.partition(",")[0] + ",\x1f1",  # numpy reads "\x1f" as a space, float() does not
    lambda row: " " + row.replace(",", " ,\t") + " ",
    lambda row: row.partition(",")[0] + ",",
    lambda row: "0.5," + row.partition(",")[2],
)


def outcome(read, path):
    try:
        result = read(path)
    except CsvFormatError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(result, F0Trajectory):
        result = (result.frame_hop, result.values, result.recording_id)
    hop, values, rid = result
    return ("ok", np.float64(hop).tobytes(), np.asarray(values, dtype=float).tobytes(), rid)


class TestCsvProperties:
    @settings(deadline=None)
    @given(values=contours, hop=valid_hops)
    def test_format_read_format_is_byte_identical(self, tmp_path_factory, values, hop):
        traj = make_traj(values[: int(TIME_MAX_S / hop)], hop=hop)  # the frames before the bound
        assert validate(traj) == []
        text = format_f0_csv(traj)
        assert text == format_f0_csv_reference(hop, traj.values)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text)
        assert format_f0_csv(read_f0_csv(path)) == text

    @settings(deadline=None)
    @given(
        values=contours,
        hop=hops,
        corruptions=st.lists(
            st.tuples(st.integers(0, 299), st.sampled_from(CORRUPTIONS)), max_size=3
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
        trailing_blank=st.booleans(),
    )
    def test_reader_matches_line_by_line_reference(
        self, tmp_path_factory, values, hop, corruptions, newline, trailing_blank
    ):
        rows = format_f0_csv(make_traj(values, hop=hop)).decode().splitlines()
        for index, corrupt in corruptions:
            row = 1 + index % (len(rows) - 1)
            rows[row] = corrupt(rows[row])
        text = newline.join(rows) + newline + (newline if trailing_blank else "")
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_f0_csv, path) == outcome(read_f0_csv_reference, path)


# Decimal-tie hops (k / 16000 s for odd k) put the time column on rounding
# ties; 1/3 s has no finite decimal expansion.
TEMPLATE_HOPS = (0.01, 0.005, 1 / 3, 1 / 16000, 13 / 16000, 161 / 16000, 949 / 16000)


class TestCsvTemplates:
    def test_every_length_matches_reference_with_hops_alternating(self):
        values = np.round(np.random.default_rng(11).uniform(0.0, 400.0, 2000), 6)
        # The reference formats row by row, so its n-row text is a prefix.
        reference = {
            hop: format_f0_csv_reference(hop, values).split(b"\n") for hop in TEMPLATE_HOPS
        }
        # Shuffled lengths both grow and slice each hop's template, and every
        # call switches hop.
        lengths = np.random.default_rng(12).permutation(np.arange(2, 2001))
        for i, n in enumerate(lengths.tolist()):
            hop = TEMPLATE_HOPS[i % len(TEMPLATE_HOPS)]
            expected = b"\n".join(reference[hop][: n + 1]) + b"\n"
            assert format_f0_csv(make_traj(values[:n], hop=hop)) == expected
        for hop in TEMPLATE_HOPS:
            assert format_f0_csv(make_traj(values, hop=hop)) == b"\n".join(reference[hop])

    def test_empty_and_non_positive_hops_match_reference(self):
        for hop in (0.01, 0.0, -0.0, -0.01, float("nan")):
            traj = F0Trajectory(hop, [120.0, 0.0, 130.5])
            assert format_f0_csv(traj) == format_f0_csv_reference(hop, traj.values)
            with pytest.raises(ValueError, match="needs 2 frames"):
                format_f0_csv(F0Trajectory(hop, []))

    def test_cache_bounded_by_hops_not_lengths(self):
        slots = trajectory._template_slot
        slots.cache_clear()
        for n in np.random.default_rng(3).permutation(np.arange(1, 5001)).tolist():
            trajectory._csv_template(0.01, n)
        template, ends = slots(0.01)[0]
        assert slots.cache_info().currsize == 1
        assert len(ends) == 5001 and len(template) == ends[-1]
        for k in range(2, 40):
            format_f0_csv(make_traj([120.0] * k, hop=k / 1000))
        assert slots.cache_info().currsize == slots.cache_info().maxsize


class TestImmutability:
    def test_values_read_only(self, traj_fixture):
        with pytest.raises(ValueError):
            traj_fixture.values[0] = 1.0

    def test_source_array_not_aliased(self):
        source = np.array([100.0, 200.0])
        traj = F0Trajectory(0.01, source, "x")
        source[0] = -1.0
        assert traj.values[0] == 100.0
