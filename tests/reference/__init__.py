"""Reference implementations that tests pin the product code against.

The product (``src/repro``) computes each operation one way.  Each
module here keeps a second, plainer implementation of one of them — as a
function that takes the product object — so property tests can compare
the two on fresh inputs:

* ``fec`` — the seed's scalar Reed-Solomon codec and Viterbi decoder,
  and the ``np.convolve`` convolutional encoder;
* ``crc`` — the table-driven CRC-32 and CRC-16 that the standard
  library's ``zlib.crc32`` and ``binascii.crc_hqx`` replaced;
* ``swebp`` — the whole-image SWebp encoder and the seed's sequential
  token walk;
* ``modems`` — the seed's per-symbol FSK, GMSK and AudioQR receivers;
* ``streaming_dsp`` — per-block ``fftconvolve`` FIR, correlator and FM
  link;
* ``acoustic`` — the whole-array acoustic channel;
* ``carousel`` — the broadcast carousel that re-sorts its whole queue
  on every enqueue (a class: it keeps its own queue).
"""
