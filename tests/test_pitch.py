import struct

import numpy as np
import pytest

from f0priv.pitch import (
    BLOCK_FRAMES,
    AudioBuffer,
    PitchConfig,
    WavReadError,
    extract_f0,
    read_wav,
)
from f0priv.synth import tone
from f0priv.trajectory import validate
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
