import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from corpusforge import audio
from corpusforge.audio import (
    AudioClip,
    AudioError,
    ConcatSpec,
    UnsupportedWavError,
    WavParseError,
    concat,
    read_wav,
    render,
    write_wav,
)
from corpusforge.rechain import SentencePlan

from conftest import tone_clip
from oracles import concat_oracle, wav_file_oracle


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


def test_write_wav_bytes_match_oracle(tmp_path):
    path = tmp_path / "c.wav"
    for clip in (tone_clip(523, 0.37, rate=22050), tone_clip(440, 0.001, rate=8000)):
        write_wav(clip, path)
        assert path.read_bytes() == wav_file_oracle(clip.samples, clip.sample_rate)


def test_big_endian_host_swaps_bytes_on_write_and_read(tmp_path, monkeypatch):
    # Read as big-endian, the int16 values in memory are the byte-swapped
    # ones, and the file holds those values little-endian.
    clip = tone_clip(440, 0.05)
    swapped = clip.samples.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big")
    path = tmp_path / "be.wav"
    write_wav(clip, path)
    assert path.read_bytes() == wav_file_oracle(swapped, clip.sample_rate)
    assert np.array_equal(read_wav(path).samples, clip.samples)


def test_clip_of_no_samples_is_error():
    with pytest.raises(AudioError, match="at least one sample"):
        AudioClip(samples=np.zeros(0, dtype=np.int16), sample_rate=16000)


def test_zero_sample_wav_is_error_naming_file(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(wav_file_oracle([], 16000))
    with pytest.raises(WavParseError) as exc:
        read_wav(path)
    assert str(exc.value) == f"{path}: data chunk holds no samples"


def test_short_data_chunk_is_error_naming_the_overrun(tmp_path):
    # The data chunk declares 100 of its 3,200 bytes, so the walk meets a
    # "chunk" made of samples that declares far more bytes than are left.
    path = tmp_path / "short.wav"
    raw = bytearray(wav_file_oracle(tone_clip(440, 0.1).samples, 16000))
    struct.pack_into("<I", raw, 40, 100)
    path.write_bytes(bytes(raw))
    assert raw[144:148] == b"'\x1b\x14\x16"  # printed escaped
    with pytest.raises(WavParseError) as exc:
        read_wav(path)
    assert str(exc.value) == (
        f"{path}: '\\x1b\\x14\\x16 chunk declares 170004569 bytes, only 3092 present"
    )


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


# 2**31 samples with no memory behind them: one more than fits in a WAV file.
HUGE = 2**31


def _zeros(n: int) -> np.ndarray:
    return np.broadcast_to(np.zeros(1, dtype=np.int16), (n,))


def test_write_wav_too_long_for_riff_is_error_naming_sample_count(tmp_path):
    path = tmp_path / "long.wav"
    with pytest.raises(AudioError, match=f"^{HUGE} samples .*at most {HUGE - 19}"):
        write_wav(AudioClip(samples=_zeros(HUGE), sample_rate=16000), path)
    assert not path.exists()


def test_render_too_long_for_riff_is_error_before_allocating(tmp_path, monkeypatch):
    # The clip's samples are not contiguous, so joining them raises a
    # TypeError instead of filling 4 GiB: the size check must come first.
    half = AudioClip(samples=_zeros(HUGE // 2), sample_rate=16000)
    monkeypatch.setattr(audio, "read_wav", lambda path: half)
    (tmp_path / "a.wav").touch()
    plan = SentencePlan((("a", "a.wav"), ("a", "a.wav")), "manual")
    with pytest.raises(AudioError, match=f"^{HUGE} samples"):
        next(render([plan], tmp_path, ConcatSpec(gap_ms=0)))


# -- render against the per-plan oracle -------------------------------------

# Clips are a few hundred samples at 8 or 16 kHz, so a fade of a few ms is
# often more than half of one. Plans repeat names, and some name a missing
# file, one that is not a WAV or one whose data chunk holds no samples.
@st.composite
def render_cases(draw):
    clips = {}
    for i in range(draw(st.integers(1, 4))):
        rate = draw(st.sampled_from([8000, 8000, 8000, 16000]))
        n = draw(st.integers(1, 400))
        seed = draw(st.integers(0, 2**32 - 1))
        samples = np.random.default_rng(seed).integers(
            -32768, 32768, n, dtype=np.int16
        )
        clips[f"c{i}.wav"] = AudioClip(samples=samples, sample_rate=rate)
    broken = draw(st.sampled_from([[], ["missing.wav"], ["bad.wav"], ["empty.wav"]]))
    refs = st.sampled_from([*clips, *clips, *clips, *clips, *broken])
    plans = draw(st.lists(st.lists(refs, min_size=1, max_size=5), min_size=1, max_size=6))
    spec = ConcatSpec(
        gap_ms=draw(st.sampled_from([0, 2])), fade_ms=draw(st.sampled_from([0, 1, 3, 5]))
    )
    plans = [
        SentencePlan(tuple((f"w{j}", ref) for j, ref in enumerate(p)), "manual")
        for p in plans
    ]
    return clips, plans, spec


def _outcomes(render_plan, plans) -> list:
    """Per plan, the WAV bytes, until the first error: its type and message.

    The clips are all rendered before any becomes bytes, so each must own
    its samples.
    """
    outcomes = []
    try:
        for plan in plans:
            outcomes.append(render_plan(plan))
    except AudioError as exc:
        outcomes.append((type(exc), str(exc)))
    return [
        wav_file_oracle(o.samples, o.sample_rate) if isinstance(o, AudioClip) else o
        for o in outcomes
    ]


@settings(max_examples=300, deadline=None)
@given(render_cases())
def test_render_matches_per_plan_oracle(case):
    clips, plans, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, clip in clips.items():
            write_wav(clip, root / name)
        (root / "bad.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        (root / "empty.wav").write_bytes(wav_file_oracle([], 8000))

        expected = _outcomes(lambda plan: concat_oracle(plan, root, spec), plans)
        rendered = render(plans, root, spec)
        assert _outcomes(lambda plan: next(rendered), plans) == expected

        # concat, the public join, agrees on every plan of clips in memory.
        def joined(plan):
            return concat([clips[ref] for _, ref in plan.words], spec)

        for plan, want in zip(plans, expected):
            if all(ref in clips for _, ref in plan.words):
                assert _outcomes(joined, [plan]) == [want]
        last = expected[-1]
        if isinstance(last, bytes):
            event("every plan rendered")
        else:
            message = re.sub(r"\d+", "N", last[1].replace(tmp, ""))[:40]
            event(f"{message} (plan {'N' if len(expected) > 1 else 0})")
