"""The message receiver asks ``decode_attempt`` again only when its
``("need", n)`` answer can have changed.

``decode_attempt(body, eos)`` answers ``("need", n)`` when no body shorter
than ``n`` samples can settle the message, so the receiver calls it for
the head peak again only once ``n`` body samples are buffered, or at the
end of the capture.  A counting stand-in modem fed one sample at a time
shows it: each peak sees one call per distinct ``need`` answer plus the
call that resolves it.
"""

import numpy as np

from repro.dsp.chirp import linear_chirp
from repro.modem.message import MessageStreamingReceiver, PreambleSync


class CountingModem:
    """A 192-sample chirp marker, then a body read in two steps: the
    message settles once 6,000 body samples are buffered."""

    STEPS = (3_000, 6_000)

    def __init__(self) -> None:
        self.sync = PreambleSync(
            linear_chirp(1_000.0, 5_000.0, 0.004, 48_000.0), threshold=0.5
        )
        self.calls: list[tuple[int, bool, tuple]] = []

    def decode_attempt(self, body: np.ndarray, eos: bool):
        answer = ("done", b"ok")
        for n in self.STEPS:
            if body.size < n:
                answer = ("done", None) if eos else ("need", n)
                break
        self.calls.append((body.size, eos, answer))
        return answer


def _capture(modem: CountingModem) -> np.ndarray:
    """Two whole messages, then one the capture cuts 4,000 samples in."""
    marker = modem.sync.template
    return np.concatenate([
        np.zeros(500),
        marker, np.zeros(7_000),
        marker, np.zeros(7_000),
        marker, np.zeros(4_000),
    ])


def _decode(modem, chunks):
    rx = MessageStreamingReceiver(modem)
    out = []
    for chunk in chunks:
        out += rx.push(chunk)
    return out + rx.finish()


def _per_peak(calls):
    """Split the call log at each resolving answer: one group per peak."""
    groups, group = [], []
    for call in calls:
        group.append(call)
        if call[2][0] == "done":
            groups.append(group)
            group = []
    assert group == []
    return groups


class TestNeedRule:
    def test_one_call_per_need_answer_fed_one_sample_at_a_time(self):
        whole = CountingModem()
        wave = _capture(whole)
        assert _decode(whole, [wave]) == [b"ok", b"ok"]

        modem = CountingModem()
        assert _decode(modem, wave[:, None]) == [b"ok", b"ok"]
        groups = _per_peak(modem.calls)
        assert len(groups) == 3
        for group in groups:
            needs = [answer[1] for _, _, answer in group[:-1]]
            # Every call but the resolving one answered a new need ...
            assert needs == sorted(set(needs)), needs
            assert len(group) == len(needs) + 1 <= len(CountingModem.STEPS) + 1
            # ... and the one after a need n saw exactly n body samples.
            for (_, _, (_, n)), (size, eos, _) in zip(group, group[1:]):
                assert eos or size == n
        # The cut message resolves at the end of the capture.
        assert groups[-1][-1][1:] == (True, ("done", None))

    def test_whole_capture_asks_each_peak_once_before_the_end(self):
        """One push settles the whole messages; the cut one waits for
        the end of the capture."""
        modem = CountingModem()
        _decode(modem, [_capture(modem)])
        assert [answer for _, _, answer in modem.calls] == [
            ("done", b"ok"), ("done", b"ok"), ("need", 6_000), ("done", None)
        ]
