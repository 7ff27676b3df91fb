"""Scalar references for the three baseline modems (FSK, GMSK, AudioQR).

Each ``*_receive_ref`` is the seed's whole-capture decoder for its modem:
one :func:`~repro.dsp.chirp.matched_filter_peak` scan for the markers,
then a per-symbol (FSK, AudioQR) or per-timing-offset (GMSK) decode of
each message in Python loops, the GMSK one re-running the frequency
discriminator from each peak to the end of the capture.  Tests pin the
modems' streaming ``receive`` to them, message list for message list.
``fsk_symbols_ref`` and ``gmsk_decode_bits_ref`` pin two vectorised
kernels on their own.

Each takes the product modem and reads only its templates, tone bank,
pulse and discriminator, so both sides see the same waveform plan.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.chirp import matched_filter_peak
from repro.fec.crc import crc16_ccitt
from repro.modem.audioqr import AudioQrModem
from repro.modem.fsk import FskModem
from repro.modem.gmsk import GmskModem
from repro.util.bits import bits_to_bytes, bytes_to_bits


def _receive(modem, samples: np.ndarray, template: np.ndarray, decode_peak):
    samples = np.asarray(samples, dtype=np.float64)
    peaks = matched_filter_peak(samples, template, threshold=modem.SYNC_THRESHOLD)
    messages: list[bytes] = []
    for start, _score in peaks:
        payload = decode_peak(modem, samples, start)
        if payload is not None:
            messages.append(payload)
    return messages


# -- FSK -----------------------------------------------------------------------


def fsk_receive_ref(modem: FskModem, samples: np.ndarray) -> list[bytes]:
    """Per-symbol scalar FSK decoder."""
    return _receive(modem, samples, modem._preamble, _fsk_decode_peak_ref)


def fsk_symbols_ref(modem: FskModem, message: bytes) -> np.ndarray:
    """Split bytes into tone indices, one byte and one shift at a time."""
    bits_per = modem.config.bits_per_symbol
    data = np.frombuffer(message, dtype=np.uint8)
    symbols = []
    for byte in data:
        for shift in range(8 - bits_per, -1, -bits_per):
            symbols.append((int(byte) >> shift) & (modem.config.num_tones - 1))
    return np.array(symbols, dtype=np.int64)


def _fsk_decode_peak_ref(
    modem: FskModem, samples: np.ndarray, start: int
) -> bytes | None:
    """Scalar decode of the message at one sync peak."""
    cfg = modem.config
    sym_n = cfg.symbol_samples
    per_byte = 8 // cfg.bits_per_symbol
    pos = start + modem._preamble.size
    # Read the length byte first, then the rest.
    if pos + per_byte * sym_n > samples.size:
        return None
    length = _fsk_read_bytes(modem, samples, pos, 1)
    if length is None:
        return None
    n = length[0]
    if n == 0:
        return None
    total = 1 + n + 2
    body = _fsk_read_bytes(modem, samples, pos, total)
    if body is None:
        return None
    payload = body[1 : 1 + n]
    stored = int.from_bytes(body[1 + n : 1 + n + 2], "big")
    if crc16_ccitt(payload) == stored:
        return bytes(payload)
    return None


def _fsk_detect_symbol(modem: FskModem, window: np.ndarray) -> int:
    energies = modem._tones @ window
    return int(np.argmax(np.abs(energies)))


def _fsk_read_bytes(
    modem: FskModem, samples: np.ndarray, pos: int, count: int
) -> bytearray | None:
    cfg = modem.config
    sym_n = cfg.symbol_samples
    per_byte = 8 // cfg.bits_per_symbol
    need = count * per_byte * sym_n
    if pos + need > samples.size:
        return None
    out = bytearray()
    cursor = pos
    for _ in range(count):
        value = 0
        for _ in range(per_byte):
            sym = _fsk_detect_symbol(modem, samples[cursor : cursor + sym_n])
            value = (value << cfg.bits_per_symbol) | sym
            cursor += sym_n
        out.append(value)
    return out


# -- GMSK ----------------------------------------------------------------------


def gmsk_receive_ref(modem: GmskModem, samples: np.ndarray) -> list[bytes]:
    """Scalar GMSK decoder: the discriminator runs from each peak to the
    end of the capture, and timing offsets and sync shifts are walked in
    Python."""
    return _receive(modem, samples, modem._preamble, _gmsk_decode_peak_ref)


def gmsk_decode_bits_ref(
    modem: GmskModem, freq: np.ndarray, delay: int, sps: int
) -> np.ndarray:
    """Integrate frequency over each symbol, one sample offset at a time:
    positive net phase is bit 1."""
    max_bits = (freq.size - delay) // sps
    if max_bits <= 0:
        return np.zeros(0, dtype=np.uint8)
    centers = delay + np.arange(max_bits) * sps
    sums = np.zeros(max_bits)
    for offset in range(sps):
        idx = np.minimum(centers + offset, freq.size - 1)
        sums += freq[idx]
    return (sums > 0).astype(np.uint8)


def _gmsk_decode_peak_ref(
    modem: GmskModem, samples: np.ndarray, start: int
) -> bytes | None:
    """Scalar decode of the message at one sync peak."""
    sps = modem.config.samples_per_symbol
    begin = start + modem._preamble.size
    if begin + 8 * sps >= samples.size:
        return None
    freq = modem._instantaneous_freq(samples[begin:])
    # Group-delay of the pulse shaping centres decisions mid-symbol;
    # sweep sub-symbol offsets for the best timing.
    delay = (modem._pulse.size - 1) // 2
    for k in range(4):
        bits = gmsk_decode_bits_ref(modem, freq, delay + k * sps // 4, sps)
        message = _gmsk_frame_from_bits(modem, bits)
        if message is not None:
            return message
    return None


def _gmsk_frame_from_bits(modem: GmskModem, bits: np.ndarray) -> bytes | None:
    if bits.size < 48:
        return None
    # Bit-level sync search: chirp timing can be off by a few bits.
    sync_bits = bytes_to_bits(modem._SYNC_WORD.to_bytes(2, "big"))
    limit = min(bits.size - 16, modem._SHIFT_LIMIT)
    for shift in range(limit + 1):
        if not np.array_equal(bits[shift : shift + 16], sync_bits):
            continue
        frame = bits[shift + 16 :]
        usable = frame[: (frame.size // 8) * 8]
        if usable.size < 32:
            continue
        stream = bits_to_bytes(usable)
        length = int.from_bytes(stream[0:2], "big")
        if length == 0 or 2 + length + 2 > len(stream):
            continue
        payload = stream[2 : 2 + length]
        stored = int.from_bytes(stream[2 + length : 2 + length + 2], "big")
        if crc16_ccitt(payload) == stored:
            return payload
    return None


# -- AudioQR -------------------------------------------------------------------


def audioqr_receive_ref(modem: AudioQrModem, samples: np.ndarray) -> list[bytes]:
    """Per-bit scalar correlation receiver."""
    return _receive(modem, samples, modem._marker, _audioqr_decode_peak_ref)


def bits_to_bytes_safe(bits: np.ndarray) -> int:
    """MSB-first integer value of a bit vector (typically length 8)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return 0
    padded = np.concatenate([np.zeros((-bits.size) % 8, dtype=np.uint8), bits])
    return int.from_bytes(np.packbits(padded).tobytes(), "big")


def _audioqr_decode_peak_ref(
    modem: AudioQrModem, samples: np.ndarray, start: int
) -> bytes | None:
    """Scalar decode of the message at one marker peak."""
    n_sym = modem.config.symbol_samples
    pos = start + modem._marker.size
    if pos + 8 * n_sym > samples.size:
        return None
    length_bits = _audioqr_read_bits(modem, samples, pos, 8)
    n = int(bits_to_bytes_safe(length_bits))
    if n == 0:
        return None
    total_bits = (1 + n + 2) * 8
    if pos + total_bits * n_sym > samples.size:
        return None
    bits = _audioqr_read_bits(modem, samples, pos, total_bits)
    stream = bits_to_bytes(bits)
    payload = stream[1 : 1 + n]
    stored = int.from_bytes(stream[1 + n : 1 + n + 2], "big")
    if crc16_ccitt(payload) == stored:
        return payload
    return None


def _audioqr_read_bits(
    modem: AudioQrModem, samples: np.ndarray, pos: int, count: int
) -> np.ndarray:
    n_sym = modem.config.symbol_samples
    out = np.zeros(count, dtype=np.uint8)
    for i in range(count):
        window = samples[pos + i * n_sym : pos + (i + 1) * n_sym]
        up = float(np.dot(window, modem._up))
        down = float(np.dot(window, modem._down))
        out[i] = 1 if abs(up) > abs(down) else 0
    return out
