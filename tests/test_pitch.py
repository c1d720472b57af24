import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f0priv.pitch import (
    BLOCK_FRAMES,
    SAMPLE_RATE_RANGE,
    AudioBuffer,
    PitchConfig,
    WavReadError,
    _autocorr,
    extract_f0,
    read_wav,
)
from f0priv.synth import tone
from f0priv.trajectory import VOICED_MAX_HZ, validate
from oracles import track_reference


SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def wav_bytes(samples, sample_rate=16000, audio_format=1, bits=16, channels=1, subformat=None):
    """Minimal RIFF/WAVE writer for test fixtures.

    With ``subformat`` set, the file is WAVE_FORMAT_EXTENSIBLE and the
    sample encoding follows that tag.
    """
    codec = audio_format if subformat is None else subformat
    if codec == 1 and bits == 16:
        payload = np.asarray(samples, dtype="<i2").tobytes()
    elif codec == 1 and bits == 24:
        payload = b"".join(int(v).to_bytes(3, "little", signed=True) for v in samples)
    elif codec == 3 and bits == 32:
        payload = np.asarray(samples, dtype="<f4").tobytes()
    else:
        payload = bytes(samples)
    block_align = channels * bits // 8
    tag = audio_format if subformat is None else 0xFFFE
    fmt = struct.pack(
        "<HHIIHH", tag, channels, sample_rate, sample_rate * block_align, block_align, bits
    )
    if subformat is not None:
        fmt += struct.pack("<HHIH", 22, bits, 0, subformat) + SUBFORMAT_GUID_TAIL
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestReadWav:
    def test_silence_pcm16(self, tmp_path):
        path = tmp_path / "silence.wav"
        path.write_bytes(wav_bytes(np.zeros(16000, dtype=np.int16)))
        audio = read_wav(path)
        assert audio.sample_rate == 16000
        assert len(audio.samples) == 16000
        assert np.all(audio.samples == 0.0)

    def test_full_scale_negative_sample(self, tmp_path):
        path = tmp_path / "fs.wav"
        path.write_bytes(wav_bytes(np.array([-32768, 32767], dtype=np.int16)))
        audio = read_wav(path)
        assert audio.samples[0] == -1.0
        assert audio.samples[1] == pytest.approx(32767 / 32768)

    def test_float32(self, tmp_path):
        path = tmp_path / "f32.wav"
        data = np.array([0.25, -0.5, 1.5], dtype=np.float32)
        path.write_bytes(wav_bytes(data, audio_format=3, bits=32))
        audio = read_wav(path)
        assert audio.samples[0] == pytest.approx(0.25)
        assert audio.samples[2] == 1.0  # clipped into [-1, 1]

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "st.wav"
        interleaved = np.array([16384, -16384, 8192, 8192], dtype=np.int16)
        path.write_bytes(wav_bytes(interleaved, channels=2))
        audio = read_wav(path)
        assert audio.samples[0] == pytest.approx(0.0)
        assert audio.samples[1] == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "audio_format, bits, scale",
        [(1, 16, 1.0 / 32768.0), (1, 24, 1.0 / 8388608.0), (3, 32, None)],
        ids=["pcm16", "pcm24", "float32"],
    )
    def test_stereo_downmix_equals_mean(self, tmp_path, audio_format, bits, scale):
        rng = np.random.default_rng(bits)
        if scale is None:
            interleaved = rng.uniform(-1.2, 1.2, 2000).astype(np.float32)
        else:
            top = 2 ** (bits - 1)
            interleaved = rng.integers(-top, top, 2000)
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes(interleaved, audio_format=audio_format, bits=bits, channels=2))
        mean = interleaved.astype(np.float64).reshape(-1, 2).mean(axis=1)
        expected = np.clip(mean, -1.0, 1.0) if scale is None else mean * scale
        assert read_wav(path).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "audio_format, bits", [(1, 16), (1, 24), (3, 32)], ids=["pcm16", "pcm24", "float32"]
    )
    def test_stereo_read_peaks_under_three_times_the_samples(self, tmp_path, audio_format, bits):
        # The file bytes and the mono float64 samples, then AudioBuffer's copy
        # of them; no stereo float64 array or copy of the data chunk.
        interleaved = np.zeros(400_000) if bits == 32 else np.zeros(400_000, dtype=np.int64)
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes(interleaved, audio_format=audio_format, bits=bits, channels=2))
        tracemalloc.start()
        try:
            audio = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * audio.samples.nbytes

    def test_mu_law_unsupported(self, tmp_path):
        path = tmp_path / "mu.wav"
        path.write_bytes(wav_bytes(b"\x00\x01\x02\x03", audio_format=7, bits=8))
        with pytest.raises(WavReadError, match="unsupported codec"):
            read_wav(path)

    def test_pcm24_decodes(self, tmp_path):
        path = tmp_path / "p24.wav"
        path.write_bytes(wav_bytes([-8388608, 8388607, 0, -1, 4194304], bits=24))
        audio = read_wav(path)
        assert audio.samples[0] == -1.0
        assert audio.samples[1] == 8388607 / 8388608
        assert audio.samples[2] == 0.0
        assert audio.samples[3] == -1 / 8388608
        assert audio.samples[4] == 0.5

    def test_pcm24_stereo_downmix(self, tmp_path):
        path = tmp_path / "p24s.wav"
        path.write_bytes(wav_bytes([4194304, -4194304, 2097152, 2097152], bits=24, channels=2))
        assert np.array_equal(read_wav(path).samples, [0.0, 0.25])

    @pytest.mark.parametrize(
        "subformat, bits, samples",
        [(1, 16, [-32768, 16384]), (1, 24, [-8388608, 4194304]), (3, 32, [-1.0, 0.5])],
    )
    def test_extensible_reads_as_its_subformat(self, tmp_path, subformat, bits, samples):
        path = tmp_path / "ext.wav"
        path.write_bytes(wav_bytes(samples, bits=bits, subformat=subformat))
        assert np.array_equal(read_wav(path).samples, [-1.0, 0.5])

    def test_extensible_other_subformat_unsupported(self, tmp_path):
        path = tmp_path / "ext_mu.wav"
        path.write_bytes(wav_bytes(b"\x00\x01\x02\x03", bits=8, subformat=7))
        with pytest.raises(WavReadError, match=r"unsupported codec \(format tag 7, 8 bits\)"):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels, index", [(1, 7), (2, 3)])
    def test_non_finite_float_sample_rejected(self, tmp_path, bad, channels, index):
        data = np.full(20, 0.25, dtype=np.float32)
        data[7:12] = bad  # interleaved position 7 is frame 3 of a stereo file
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_bytes(data, audio_format=3, bits=32, channels=channels))
        with pytest.raises(WavReadError, match=f"non-finite float sample at index {index}$"):
            read_wav(path)

    def test_truncated_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        good = wav_bytes(np.zeros(100, dtype=np.int16))
        path.write_bytes(good[:-50])
        with pytest.raises(WavReadError, match="truncated"):
            read_wav(path)

    def test_zero_length_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(wav_bytes(np.zeros(0, dtype=np.int16)))
        with pytest.raises(WavReadError, match="zero-length"):
            read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavReadError, match="RIFF"):
            read_wav(path)

    def test_sample_rate_out_of_range(self, tmp_path):
        path = tmp_path / "slow.wav"
        path.write_bytes(wav_bytes(np.zeros(10, dtype=np.int16), sample_rate=4000))
        with pytest.raises(WavReadError, match="sample rate"):
            read_wav(path)


class TestExtractF0:
    def test_every_tracked_f0_is_in_the_valid_range(self):
        # F0 = rate / lag, with the lag at least 2 samples less the half
        # sample the parabolic refinement may take off.
        rate = SAMPLE_RATE_RANGE[1]
        assert rate / 2 <= rate / 1.5 == VOICED_MAX_HZ
        # A Nyquist-rate alternation plus a slow component: the refinement
        # moves the 2-sample peak shorter, so F0 lands above rate / 2.
        n = np.arange(rate // 20)
        x = 0.3 * (np.cos(np.pi * n) + 0.3 * np.cos(0.02 * np.pi * n))
        traj = extract_f0(AudioBuffer(rate, x), PitchConfig(f_max=rate / 2))
        assert traj.values.max() > rate / 2
        assert validate(traj) == []

    def test_pure_tone(self):
        traj = extract_f0(tone(220.0, 2.0))
        voiced = traj.values[traj.values > 0]
        assert abs(np.median(voiced) - 220.0) <= 2.0
        assert len(voiced) / traj.n_frames > 0.9

    @pytest.mark.parametrize("freq", [85.0, 140.0, 215.0, 290.0, 345.0])
    def test_tone_grid_sample(self, freq):
        traj = extract_f0(tone(freq, 1.0))
        voiced = traj.values[traj.values > 0]
        assert abs(np.median(voiced) - freq) <= 2.0

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(16000, 0.1 * rng.standard_normal(32000))  # -20 dBFS
        traj = extract_f0(audio)
        assert np.mean(traj.values > 0) < 0.2

    def test_silence_all_unvoiced(self):
        traj = extract_f0(AudioBuffer(16000, np.zeros(16000)))
        assert np.all(traj.values == 0.0)

    def test_deterministic(self):
        audio = tone(173.0, 0.8)
        a = extract_f0(audio)
        b = extract_f0(audio)
        assert np.array_equal(a.values, b.values)

    def test_output_passes_validation(self):
        rng = np.random.default_rng(8)
        samples = 0.4 * np.sin(2 * np.pi * 150 * np.arange(24000) / 16000)
        samples[8000:12000] = 0.02 * rng.standard_normal(4000)
        traj = extract_f0(AudioBuffer(16000, samples))
        assert validate(traj) == []

    def test_frame_hop_recorded(self):
        traj = extract_f0(tone(150.0, 0.5), PitchConfig(frame_hop=0.02))
        assert traj.frame_hop == pytest.approx(0.02)

    def test_audio_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            extract_f0(AudioBuffer(16000, np.zeros(100)))

    def test_config_validation(self):
        audio = tone(150.0, 0.5)
        with pytest.raises(ValueError, match="f_min"):
            extract_f0(audio, PitchConfig(f_min=30.0))
        with pytest.raises(ValueError, match="f_min"):
            extract_f0(audio, PitchConfig(f_max=9001.0))
        with pytest.raises(ValueError, match="voicing_threshold"):
            extract_f0(audio, PitchConfig(voicing_threshold=1.5))
        with pytest.raises(ValueError, match="frame_hop"):
            extract_f0(audio, PitchConfig(frame_hop=0.05, frame_len=0.025))

    def test_hop_under_one_sample_refused(self):
        # 0.5 sample rounds to 0, 0.6 to 1; a zero hop is a zero slice step.
        PitchConfig(frame_hop=0.6 / 8000).check(8000)
        with pytest.raises(ValueError) as info:
            PitchConfig(frame_hop=0.5 / 8000).check(8000)
        assert str(info.value) == (
            "frame_hop=6.25e-05 s rounds to 0 samples at sample_rate=8000; "
            "the minimum is one sample, frame_hop=0.000125 s"
        )

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, True, "0.025", None,
                                       pytest.param(10**400, id="int-beyond-float")])
    @pytest.mark.parametrize("field", ["frame_len", "frame_hop", "f_min", "f_max", "voicing_threshold"])
    def test_non_finite_setting_refused(self, field, value):
        # An infinite frame_len passed every comparison and overflowed in
        # int(round(frame_len * sr)). The config refuses it when it is built.
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
            PitchConfig(**{field: value})

    @pytest.mark.parametrize("fields", [
        {"f_min": 39.0},
        {"f_min": 200.0, "f_max": 200.0},
        {"f_min": 300.0, "f_max": 200.0},
        {"voicing_threshold": 0.0},
        {"voicing_threshold": 1.0},
        {"frame_hop": 0.03, "frame_len": 0.025},
        {"frame_hop": 0.0},
    ])
    def test_rate_independent_rules_checked_when_built(self, fields):
        with pytest.raises(ValueError):
            PitchConfig(**fields)

    def test_rules_reported_in_order(self):
        with pytest.raises(ValueError, match=r"^need 40 <= f_min < f_max, got f_min=300.0, f_max=200.0$"):
            PitchConfig(f_min=300.0, f_max=200.0, voicing_threshold=2.0)
        with pytest.raises(ValueError, match=r"^frame_len must be a finite number, got nan$"):
            PitchConfig(frame_len=np.nan, f_max=np.inf)

    def test_recording_id_passthrough(self):
        traj = extract_f0(tone(150.0, 0.5), recording_id="utt1")
        assert traj.recording_id == "utt1"


def _frames_to_samples(cfg, sr, n_frames):
    frame_len = int(round(cfg.frame_len * sr))
    hop = int(round(cfg.frame_hop * sr))
    return frame_len + (n_frames - 1) * hop + hop // 2


class TestBlockedTracker:
    """The blocked tracker must reproduce the frame-by-frame loop bit for bit."""

    @staticmethod
    def assert_matches_reference(audio, cfg=PitchConfig()):
        values, frame_hop = track_reference(audio, cfg)
        traj = extract_f0(audio, cfg)
        assert traj.frame_hop == frame_hop
        assert traj.values.tobytes() == values.tobytes()
        return traj

    @pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100])
    def test_tones(self, sr):
        t = np.arange(int(1.5 * sr)) / sr
        glide = 0.5 * np.sin(2 * np.pi * (110.0 + 40.0 * t) * t)
        traj = self.assert_matches_reference(AudioBuffer(sr, glide))
        assert np.mean(traj.values > 0) > 0.9

    def test_white_noise(self):
        rng = np.random.default_rng(21)
        self.assert_matches_reference(AudioBuffer(16000, 0.1 * rng.standard_normal(24000)))

    def test_silent_gap(self):
        rng = np.random.default_rng(22)
        samples = 0.4 * np.sin(2 * np.pi * 150 * np.arange(24000) / 16000)
        samples += 0.01 * rng.standard_normal(24000)
        samples[6000:14000] = 0.0
        traj = self.assert_matches_reference(AudioBuffer(16000, samples))
        assert np.any(traj.values == 0.0) and np.any(traj.values > 0.0)

    @pytest.mark.parametrize("n_frames", [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1])
    def test_frame_counts_around_block_size(self, n_frames):
        cfg = PitchConfig()
        n = _frames_to_samples(cfg, 16000, n_frames)
        rng = np.random.default_rng(n_frames)
        samples = 0.4 * np.sin(2 * np.pi * 205 * np.arange(n) / 16000)
        samples += 0.05 * rng.standard_normal(n)
        traj = self.assert_matches_reference(AudioBuffer(16000, samples))
        assert traj.n_frames == n_frames

    def test_custom_config(self):
        cfg = PitchConfig(
            frame_len=0.04, frame_hop=0.005, f_min=50.0, f_max=500.0, voicing_threshold=0.3
        )
        rng = np.random.default_rng(23)
        n = _frames_to_samples(cfg, 22050, 3 * BLOCK_FRAMES + 5)
        t = np.arange(n) / 22050
        samples = 0.3 * np.sin(2 * np.pi * (90.0 + 200.0 * t) * t) + 0.1 * rng.standard_normal(n)
        self.assert_matches_reference(AudioBuffer(22050, samples), cfg)

    @pytest.mark.parametrize("frame_len", [0.025, 0.04])
    @pytest.mark.parametrize("sr", [8000, 16000, 22050, 32000, 44100, 48000, 96000])
    def test_fft_size_does_not_wrap(self, sr, frame_len):
        # The oracle follows the tracker's FFT size, so bit-equality with it
        # cannot catch a size too small for the lags; compare against the
        # size 2 * frame_len, which can never wrap.
        cfg = PitchConfig(frame_len=frame_len)
        n = int(0.5 * sr)
        t = np.arange(n) / sr
        rng = np.random.default_rng(sr)
        samples = 0.4 * np.sin(2 * np.pi * (100.0 + 150.0 * t) * t) + 0.05 * rng.standard_normal(n)
        audio = AudioBuffer(sr, samples)
        wide = 1 << (2 * int(round(frame_len * sr)) - 1).bit_length()
        values, _ = track_reference(audio, cfg, nfft=wide)
        traj = extract_f0(audio, cfg)
        assert np.array_equal(traj.values > 0, values > 0)
        assert np.mean(values > 0) > 0.5
        assert np.max(np.abs(traj.values - values)) <= 1e-9


class TestLagRange:
    """Every lag the tracker scans has a positive window autocorrelation."""

    def test_window_ratio_positive_at_the_longest_allowed_lag(self):
        # The longest lag a frame may hold is frame_len - 5, and the longest
        # lag of all is 192000 / 40. The FFT size follows the tracker's rule.
        for frame_len in range(8, SAMPLE_RATE_RANGE[1] // 40 + 6):
            lag_max = frame_len - 5
            nfft = 1 << (frame_len + lag_max + 1).bit_length()
            window_acf = _autocorr(np.hanning(frame_len), nfft)
            assert window_acf[lag_max + 1] > 0.0, frame_len

    def test_frame_that_cannot_hold_the_longest_lag_is_refused(self):
        # Capped at frame_len - 5 lags, 24 ms frames tracked most of this
        # noise as voiced at f_min = 40 Hz (a 25 ms period).
        noise = AudioBuffer(16000, 0.5 * np.random.default_rng(0).standard_normal(4800))
        with pytest.raises(ValueError, match="^frame too short for the requested f_min$"):
            extract_f0(noise, PitchConfig(frame_len=0.024, f_min=40.0))
        assert not extract_f0(noise).values.any()

    @pytest.mark.parametrize("cfg, sr", [(PitchConfig(f_min=40.0, frame_len=0.024), 16000),
                                         (PitchConfig(f_min=390.0, f_max=400.0), 8000)],
                             ids=["frame-short-of-f_min-lag", "f_min-lag-not-above-f_max-lag"])
    def test_lag_rule_is_checked_with_the_rate(self, cfg, sr):
        # The frame cannot hold the lag of f_min, or that lag is not above the
        # lag of f_max; check() refuses both without any audio.
        with pytest.raises(ValueError, match="^frame too short for the requested f_min$"):
            cfg.check(sr)
        assert PitchConfig().check(16000) == (400, 160, 40, 266)

    def test_defaults_hold_the_longest_lag_at_every_rate(self):
        cfg = PitchConfig()
        assert all(int(np.floor(sr / cfg.f_min)) <= int(round(cfg.frame_len * sr)) - 5
                   for sr in range(SAMPLE_RATE_RANGE[0], SAMPLE_RATE_RANGE[1] + 1))
        for sr in (8000, 11025, 16000, 22050, 44100, 48000, 96000, 192000):
            extract_f0(AudioBuffer(sr, np.zeros(int(round(cfg.frame_len * sr)))), cfg)

    @settings(deadline=None, max_examples=60)
    @given(
        sr=st.integers(*SAMPLE_RATE_RANGE),
        frame_len=st.floats(0.004, 0.03),
        f_min=st.floats(40.0, 100.0),
        freq=st.floats(40.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_low_f_min_contours_are_valid(self, sr, frame_len, f_min, freq, seed):
        cfg = PitchConfig(frame_len=frame_len, frame_hop=frame_len / 2, f_min=f_min)
        n = int(round(frame_len * sr)) * 4
        t = np.arange(n) / sr
        noise = np.random.default_rng(seed).standard_normal(n)
        audio = AudioBuffer(sr, 0.4 * np.sin(2 * np.pi * freq * t) + 0.2 * noise)
        with np.errstate(all="raise"):
            try:
                traj = extract_f0(audio, cfg)
            except ValueError as exc:
                assert str(exc) == "frame too short for the requested f_min"
                return
        assert validate(traj) == []
