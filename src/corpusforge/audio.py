"""Reading, concatenating and writing 16-bit mono PCM WAV clips.

Only RIFF/WAVE PCM with one channel and 16 bits per sample is supported,
either as format 1 or as ``WAVE_FORMAT_EXTENSIBLE`` with the PCM subformat;
anything else is rejected with the offending header field named, rather
than resampled or converted behind the caller's back.
Concatenation inserts digital-zero gaps between clips and can apply linear
fades at clip edges. All length arithmetic is in integer samples.
:func:`render` joins many sentence plans the same way, reading and fading
each recording once. Samples stay raw bytes in ``array`` and ``memoryview``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import CorpusForgeError

if TYPE_CHECKING:
    from .rechain import SentencePlan

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM: {00000001-0000-0010-8000-00aa00389b71}.
_SUBTYPE_PCM = bytes.fromhex("0100000000001000800000aa00389b71")


class AudioError(CorpusForgeError):
    """Audio processing failure."""


class WavParseError(AudioError):
    """Structurally broken WAV file (truncated, missing chunks...)."""


class UnsupportedWavError(AudioError):
    """Well-formed WAV with an unsupported format field."""


@dataclass(frozen=True)
class AudioClip:
    """Mono 16-bit PCM samples at a fixed rate, at least one of them.

    `samples` is any 1-D, C-contiguous native-int16 buffer
    (``memoryview(samples).format == "h"``): an ``array('h')``, a cast
    ``memoryview``, another int16 array.
    """

    samples: memoryview | array
    sample_rate: int

    def __post_init__(self):
        view = memoryview(self.samples)
        if view.format != "h" or view.ndim != 1:
            raise AudioError("samples must be a 1-D buffer of int16")
        if not view.c_contiguous:
            # Joining and writing read the buffer as one block of bytes.
            raise AudioError("samples must be a contiguous buffer, not a strided view")
        if not len(view):
            raise AudioError("a clip must hold at least one sample")
        if self.sample_rate <= 0:
            raise AudioError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def duration_samples(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ConcatSpec:
    """Concatenation parameters: inter-word silence and per-edge fade."""

    gap_ms: int = 150
    fade_ms: int = 0

    def __post_init__(self):
        if self.gap_ms < 0 or self.fade_ms < 0:
            raise AudioError("gap_ms and fade_ms must be >= 0")


def _ms_to_samples(ms: int, rate: int) -> int:
    return (ms * rate + 500) // 1000


def _copy(samples) -> array:
    out = array("h")
    out.frombytes(memoryview(samples).cast("B"))
    return out


def _little_endian(samples):
    """`samples` as they are, or byte-swapped if the host is big-endian."""
    if sys.byteorder == "little":
        return samples
    swapped = _copy(samples)
    swapped.byteswap()
    return memoryview(swapped)


def read_wav(path: str | Path) -> AudioClip:
    """Parse a 16-bit mono PCM WAV file into an :class:`AudioClip`.

    Walks the RIFF chunk list, so extra chunks (LIST, fact, ...) are fine.
    Raises :class:`UnsupportedWavError` for non-PCM, multi-channel or
    non-16-bit files and :class:`WavParseError` for structural damage,
    including a chunk that declares more bytes than follow it, or a data
    chunk with no samples. The samples are a view of the file's bytes.
    """
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise WavParseError(f"{path}: too short to be a WAV file")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavParseError(f"{path}: missing RIFF/WAVE signature")

    fmt = pcm = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = memoryview(data)[offset + 8 : offset + 8 + chunk_size]
        if len(body) < chunk_size:
            name = repr(chunk_id)[2:-1]  # printable, whatever the bytes
            raise WavParseError(
                f"{path}: {name} chunk declares {chunk_size} bytes, "
                f"only {len(body)} present"
            )
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavParseError(f"{path}: fmt chunk truncated")
            fmt = bytes(body)
        elif chunk_id == b"data":
            if not body:
                # A clip of no samples would drop its word from an utterance.
                raise WavParseError(f"{path}: data chunk holds no samples")
            pcm = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavParseError(f"{path}: no fmt chunk")
    if pcm is None:
        raise WavParseError(f"{path}: no data chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt
    )
    if audio_format == WAVE_FORMAT_EXTENSIBLE:
        _check_extensible(path, fmt, bits)
    elif audio_format != WAVE_FORMAT_PCM:
        raise UnsupportedWavError(f"{path}: audio_format={audio_format}, want PCM (1)")
    if channels != 1:
        raise UnsupportedWavError(f"{path}: channels={channels}, want mono (1)")
    if bits != 16:
        raise UnsupportedWavError(f"{path}: bits_per_sample={bits}, want 16")
    if len(pcm) % 2:
        raise WavParseError(f"{path}: odd data size for 16-bit samples")
    return AudioClip(_little_endian(pcm.cast("h")), sample_rate)


def _check_extensible(path, fmt: bytes, bits: int) -> None:
    """Accept a WAVE_FORMAT_EXTENSIBLE fmt body only with the PCM subformat.

    Its extension is cbSize (>= 22), valid bits per sample, the channel
    mask and the 16-byte subformat GUID, 40 bytes of fmt body in all.
    """
    cb_size = struct.unpack_from("<H", fmt, 16)[0] if len(fmt) >= 18 else 0
    if cb_size < 22 or len(fmt) < 40:
        raise WavParseError(
            f"{path}: extensible fmt chunk truncated "
            f"(cbSize={cb_size}, {len(fmt)} bytes; want cbSize >= 22, 40 bytes)"
        )
    (valid_bits,) = struct.unpack_from("<H", fmt, 18)
    subformat = fmt[24:40]
    if subformat != _SUBTYPE_PCM:
        import uuid

        guid = uuid.UUID(bytes_le=subformat)
        raise UnsupportedWavError(f"{path}: subformat={guid}, want PCM")
    if valid_bits != bits:
        raise UnsupportedWavError(
            f"{path}: valid_bits_per_sample={valid_bits}, want {bits}"
        )


def _check_wav_size(num_samples: int) -> None:
    """RIFF sizes are 32-bit: the data of one file ends below 4 GiB."""
    if 36 + 2 * num_samples > 0xFFFFFFFF:
        raise AudioError(
            f"{num_samples} samples are too many for one WAV file "
            f"(at most {(0xFFFFFFFF - 36) // 2})"
        )


def write_wav(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as canonical 16-bit mono PCM WAV. Round-trips bit-exactly."""
    n = clip.duration_samples
    _check_wav_size(n)
    rate = clip.sample_rate
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * n, b"WAVE",
        b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16, b"data", 2 * n,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(_little_endian(clip.samples))


def _ramp(fade: int) -> list[float]:
    """The gains of a linear fade over `fade` samples: ``k / fade``."""
    return [k / fade for k in range(fade)]


def _fade(samples, ramp: list[float]):
    """A copy of `samples` ramped over its first and last ``len(ramp)``.

    The sample k from either edge becomes ``round(s * ramp[k])``.
    """
    if not ramp:
        return samples
    out = _copy(samples)
    for k, gain in enumerate(ramp):
        out[k] = round(out[k] * gain)
        out[-1 - k] = round(out[-1 - k] * gain)
    return out


def _layout(clips: Sequence[AudioClip], spec: ConcatSpec) -> tuple[int, int, int]:
    """Check that `clips` can be joined under `spec`.

    Returns the common sample rate and the gap and fade in samples.
    """
    if not clips:
        raise AudioError("nothing to concatenate")
    rates = sorted({c.sample_rate for c in clips})
    if len(rates) > 1:
        raise AudioError(f"mixed sample rates: {rates}")
    rate = rates[0]
    gap = _ms_to_samples(spec.gap_ms, rate)
    fade = _ms_to_samples(spec.fade_ms, rate)
    shortest = min(c.duration_samples for c in clips)
    if fade > shortest // 2:
        raise AudioError(
            f"fade of {fade} samples exceeds half the shortest clip ({shortest})"
        )
    return rate, gap, fade


def _join(pieces: Sequence, gap: int) -> memoryview:
    """`pieces` in order with `gap` zero samples between them."""
    return memoryview(bytes(2 * gap).join(pieces)).cast("h")


def concat(clips: Sequence[AudioClip], spec: ConcatSpec) -> AudioClip:
    """Join clips in order with silence gaps, returning one clip.

    Output length is exactly ``sum(clip lengths) + (n - 1) * gap_samples``.
    With gap 0 and fade 0 this is plain sample-buffer concatenation. Clips
    must share one sample rate; mixing rates is an error, never an implicit
    resample.
    """
    rate, gap, fade = _layout(clips, spec)
    ramp = _ramp(fade)
    pieces = [_fade(clip.samples, ramp) for clip in clips]
    return AudioClip(_join(pieces, gap), rate)


def render(
    plans: Iterable[SentencePlan], audio_root: str | Path, spec: ConcatSpec
) -> Iterator[AudioClip]:
    """Yield ``concat`` of each sentence plan's recordings under `audio_root`.

    A plan's recording references are resolved in order; a missing file is
    an error. Each distinct reference is read and faded once, on its first
    use, and only its faded samples are kept. A plan raises what reading
    and joining its clips one by one would raise, and an utterance too long
    for one WAV file raises before its clips are joined.
    """
    root = Path(audio_root)
    faded: dict[str, AudioClip] = {}
    ramps: dict[int, list[float]] = {}  # by fade length, one per sample rate
    for plan in plans:
        clips = []
        for _, ref in plan.words:
            clip = faded.get(ref)
            if clip is None:
                clip = faded[ref] = _read_faded(root / ref, spec, ramps)
            clips.append(clip)
        rate, gap, _ = _layout(clips, spec)
        _check_wav_size(sum(c.duration_samples for c in clips) + gap * (len(clips) - 1))
        yield AudioClip(_join([c.samples for c in clips], gap), rate)


def _read_faded(
    path: Path, spec: ConcatSpec, ramps: dict[int, list[float]]
) -> AudioClip:
    if not path.is_file():
        raise AudioError(f"recording not found: {path}")
    clip = read_wav(path)
    fade = _ms_to_samples(spec.fade_ms, clip.sample_rate)
    if fade > clip.duration_samples // 2:
        # Too short to fade: every plan that uses it fails _layout's check.
        return clip
    ramp = ramps.get(fade)
    if ramp is None:
        ramp = ramps[fade] = _ramp(fade)
    return AudioClip(_fade(clip.samples, ramp), clip.sample_rate)
