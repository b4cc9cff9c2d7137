import struct

import numpy as np
import pytest

from corpusforge.audio import (
    AudioClip,
    AudioError,
    ConcatSpec,
    UnsupportedWavError,
    WavParseError,
    concat,
    read_wav,
    write_wav,
)

from conftest import tone_clip


def test_read_valid_clip_header_arithmetic(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(tone_clip(440, 1.0, rate=16000), path)
    clip = read_wav(path)
    assert clip.duration_samples == 16000
    assert clip.sample_rate == 16000


def test_round_trip_bit_exact(tmp_path):
    original = tone_clip(523, 0.37, rate=22050)
    path = tmp_path / "c.wav"
    write_wav(original, path)
    loaded = read_wav(path)
    assert loaded.sample_rate == original.sample_rate
    assert np.array_equal(loaded.samples, original.samples)


def test_zero_length_clip_round_trips(tmp_path):
    empty = AudioClip(samples=np.zeros(0, dtype=np.int16), sample_rate=16000)
    path = tmp_path / "empty.wav"
    write_wav(empty, path)
    assert read_wav(path).duration_samples == 0


def _patch_fmt(path, audio_format=1, channels=1, bits=16):
    data = bytearray(path.read_bytes())
    # Canonical layout: fmt body starts at byte 20.
    struct.pack_into("<HH", data, 20, audio_format, channels)
    struct.pack_into("<H", data, 34, bits)
    path.write_bytes(bytes(data))


def test_stereo_rejected_naming_field(tmp_path):
    path = tmp_path / "stereo.wav"
    write_wav(tone_clip(440, 0.1), path)
    _patch_fmt(path, channels=2)
    with pytest.raises(UnsupportedWavError, match="channels=2"):
        read_wav(path)


def test_non_pcm_rejected(tmp_path):
    path = tmp_path / "float.wav"
    write_wav(tone_clip(440, 0.1), path)
    _patch_fmt(path, audio_format=3)
    with pytest.raises(UnsupportedWavError, match="audio_format=3"):
        read_wav(path)


def test_wrong_bit_depth_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    write_wav(tone_clip(440, 0.1), path)
    _patch_fmt(path, bits=8)
    with pytest.raises(UnsupportedWavError, match="bits_per_sample=8"):
        read_wav(path)


def test_truncated_data_rejected(tmp_path):
    path = tmp_path / "trunc.wav"
    write_wav(tone_clip(440, 0.1), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(WavParseError, match="data chunk"):
        read_wav(path)


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"ID3\x03 definitely not riff")
    with pytest.raises(WavParseError):
        read_wav(path)


# KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT, as they are stored in a file.
PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def _extensible_twin(path, out, channels=1, valid_bits=16, cb_size=22,
                     subformat=PCM_GUID, fmt_size=40):
    """Rewrite a canonical WAV with a WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    data = path.read_bytes()
    _, _, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", data, 20)
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, byte_rate, align, bits)
    fmt += struct.pack("<HHI", cb_size, valid_bits, 0x4) + subformat
    fmt = fmt[:fmt_size]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + data[36:]
    out.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return out


def test_extensible_pcm_reads_like_its_canonical_twin(tmp_path):
    canonical = tmp_path / "canonical.wav"
    write_wav(tone_clip(523, 0.2, rate=22050), canonical)
    twin = _extensible_twin(canonical, tmp_path / "extensible.wav")
    assert len(twin.read_bytes()) == len(canonical.read_bytes()) + 24
    clip, expected = read_wav(twin), read_wav(canonical)
    assert clip.sample_rate == expected.sample_rate == 22050
    assert np.array_equal(clip.samples, expected.samples)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"subformat": FLOAT_GUID},
         "subformat=00000003-0000-0010-8000-00aa00389b71, want PCM"),
        ({"channels": 2}, "channels=2"),
        ({"valid_bits": 12}, "valid_bits_per_sample=12, want 16"),
    ],
)
def test_extensible_other_than_pcm_mono_16_bit_rejected(tmp_path, fields, message):
    canonical = tmp_path / "canonical.wav"
    write_wav(tone_clip(440, 0.1), canonical)
    path = _extensible_twin(canonical, tmp_path / "x.wav", **fields)
    with pytest.raises(UnsupportedWavError, match=message):
        read_wav(path)


@pytest.mark.parametrize(
    "fields", [{"fmt_size": 16}, {"fmt_size": 18, "cb_size": 0},
               {"cb_size": 10}, {"fmt_size": 30}],
)
def test_extensible_header_too_short_rejected(tmp_path, fields):
    canonical = tmp_path / "canonical.wav"
    write_wav(tone_clip(440, 0.1), canonical)
    path = _extensible_twin(canonical, tmp_path / "x.wav", **fields)
    with pytest.raises(WavParseError, match="extensible fmt chunk truncated"):
        read_wav(path)


class TestConcat:
    def test_length_arithmetic(self):
        clips = [tone_clip(440, 1.0, 16000), tone_clip(660, 2.0, 16000)]
        out = concat(clips, ConcatSpec(gap_ms=150))
        assert out.duration_samples == 16000 + 32000 + 2400 == 50400

    def test_single_clip_identity(self):
        clip = tone_clip(440, 0.5)
        out = concat([clip], ConcatSpec(gap_ms=150, fade_ms=0))
        assert np.array_equal(out.samples, clip.samples)

    def test_zero_gap_zero_fade_is_raw_concatenation(self):
        a, b = tone_clip(440, 0.2), tone_clip(660, 0.3)
        out = concat([a, b], ConcatSpec(gap_ms=0, fade_ms=0))
        assert np.array_equal(out.samples, np.concatenate([a.samples, b.samples]))

    def test_gap_is_digital_zero(self):
        a, b = tone_clip(440, 0.1, 1000), tone_clip(660, 0.1, 1000)
        out = concat([a, b], ConcatSpec(gap_ms=50))
        assert not np.any(out.samples[100:150])

    def test_mixed_rates_listed_in_error(self):
        clips = [tone_clip(440, 0.5, 16000), tone_clip(440, 0.5, 44100)]
        with pytest.raises(AudioError, match=r"16000.*44100"):
            concat(clips, ConcatSpec())

    def test_fade_ramps_edges(self):
        clip = AudioClip(
            samples=np.full(1000, 10_000, dtype=np.int16), sample_rate=1000
        )
        out = concat([clip], ConcatSpec(gap_ms=0, fade_ms=100))
        assert out.samples[0] == 0
        assert out.samples[-1] < 200
        assert out.samples[500] == 10_000

    def test_fade_longer_than_half_shortest_clip_is_error(self):
        clip = tone_clip(440, 0.1, 1000)  # 100 samples
        with pytest.raises(AudioError, match="fade"):
            concat([clip], ConcatSpec(gap_ms=0, fade_ms=60))

    def test_empty_clip_list_is_error(self):
        with pytest.raises(AudioError):
            concat([], ConcatSpec())

    def test_duration_additivity_integer_samples(self):
        clips = [tone_clip(300 + i * 50, 0.123, 8000) for i in range(5)]
        out = concat(clips, ConcatSpec(gap_ms=37))
        gap = (37 * 8000 + 500) // 1000
        assert out.duration_samples == sum(c.duration_samples for c in clips) + 4 * gap


def test_negative_gap_rejected():
    with pytest.raises(AudioError):
        ConcatSpec(gap_ms=-1)
