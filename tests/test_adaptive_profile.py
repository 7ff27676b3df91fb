"""Adaptive profile selection: RPT feedback in, USE advice out."""

import pytest

from repro.radio.lossmodel import FrameLossModel
from repro.server.scheduler import AdaptiveProfileSelector
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import Location
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.sms.message import SmsMessage
from repro.sms.protocol import (
    LinkReport,
    ProfileAdvice,
    RequestError,
    parse_downlink,
    parse_uplink,
)
from repro.web.sites import SiteGenerator

_LAHORE = Location(31.5204, 74.3587)


def _model(midpoint_db: float) -> FrameLossModel:
    return FrameLossModel(fer_midpoint_db=midpoint_db, fer_scale_db=0.45)


#: A rate ladder shaped like the tournament's frontier: the faster the
#: profile, the more SNR it needs (midpoints 4 dB apart).
LADDER = {
    "sonic-ofdm": (3448.0, _model(3.3)),
    "gmsk": (1477.0, _model(0.5)),
    "fsk": (100.0, _model(-4.0)),
    "audioqr": (79.0, _model(-8.0)),
}


class TestProtocolMessages:
    def test_link_report_roundtrip(self):
        report = LinkReport("gmsk", snr_db=4.2, n_lost=3, n_frames=16)
        parsed = parse_uplink(report.to_text())
        assert parsed == report

    def test_profile_advice_roundtrip(self):
        advice = ProfileAdvice("fsk")
        assert parse_downlink(advice.to_text()) == advice

    def test_malformed_reports_rejected(self):
        for text in ("RPT gmsk SNR x LOSS 1/4", "RPT gmsk SNR 3 LOSS 14",
                     "RPT gmsk LOSS 1/4", "RPT", "RPT gmsk SNR nan LOSS 1/4",
                     "RPT gmsk SNR inf LOSS 1/4", "RPT gmsk SNR -inf LOSS 1/4"):
            with pytest.raises(ValueError):
                parse_uplink(text)
        with pytest.raises(ValueError):
            LinkReport("fsk", 0.0, n_lost=5, n_frames=4)
        with pytest.raises(ValueError):
            LinkReport("fsk", float("nan"), 0, 4)


class TestSelector:
    def test_walks_down_the_rate_ladder(self):
        sel = AdaptiveProfileSelector(LADDER, loss_threshold=0.1)
        assert sel.select(10.0) == "sonic-ofdm"
        assert sel.select(2.5) == "gmsk"
        assert sel.select(-2.0) == "fsk"
        assert sel.select(-6.0) == "audioqr"

    def test_hopeless_channel_falls_back_to_most_robust(self):
        sel = AdaptiveProfileSelector(LADDER, loss_threshold=0.1)
        assert sel.select(-30.0) == "audioqr"

    def test_observe_refits_from_feedback(self):
        """Feedback showing gmsk failing at mid SNRs must push its curve
        right — and flip the advice at an SNR it previously won."""
        sel = AdaptiveProfileSelector(LADDER, loss_threshold=0.1)
        assert sel.select(2.5) == "gmsk"
        refit = False
        for snr, lost in ((2.5, 15), (3.0, 14), (4.0, 12), (8.0, 0), (9.0, 0)):
            refit |= sel.observe(LinkReport("gmsk", snr, lost, 16))
        assert refit
        assert sel.predicted_loss("gmsk", 2.5) > 0.1
        assert sel.select(2.5) == "fsk"

    def test_unknown_profile_reports_ignored(self):
        sel = AdaptiveProfileSelector(LADDER)
        assert not sel.observe(LinkReport("morse", 5.0, 0, 4))

    def test_single_snr_feedback_never_fits(self):
        """Identical-SNR samples cannot constrain a curve; keep the prior."""
        sel = AdaptiveProfileSelector(LADDER)
        before = sel.predicted_loss("fsk", 0.0)
        for _ in range(5):
            assert not sel.observe(LinkReport("fsk", 1.0, 0, 8))
        assert sel.predicted_loss("fsk", 0.0) == before

    def test_from_tournament(self):
        from repro.sim.tournament import TournamentConfig, run_tournament

        result = run_tournament(
            TournamentConfig(
                snr_grid_db=(-4.0, 2.0, 14.0),
                distance_grid_m=(0.2,),
                rssi_grid_dbm=(-70.0,),
                payload_bytes=12,
                n_messages=2,
                master_seed=7,
            ),
            processes=1,
        )
        sel = AdaptiveProfileSelector.from_tournament(result)
        assert set(sel.profiles) == set(result.config.profiles)
        assert sel.profiles[0] == "sonic-ofdm"  # fastest first
        # A clean channel always gets the throughput winner.
        assert sel.select(30.0) == "sonic-ofdm"


def _adaptive_server():
    gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
    generator = SiteGenerator(seed=2, n_sites=2)
    registry = TransmitterRegistry(
        [Transmitter("lhr", _LAHORE, 93.7, coverage_km=30.0)]
    )
    server = SonicServer(
        generator,
        registry,
        gateway,
        ServerConfig(render_width=360, max_pixel_height=1_000),
        profile_selector=AdaptiveProfileSelector(LADDER, loss_threshold=0.1),
    )
    return gateway, server


@pytest.fixture()
def adaptive_env():
    return _adaptive_server()


class TestEndToEndAdaptation:
    def _report(self, gateway, server, profile, snr, lost, frames, now):
        text = LinkReport(profile, snr, lost, frames).to_text()
        gateway.submit(
            SmsMessage("+92300123", server.config.sms_number, text, submitted_at=now),
            now,
        )
        gateway.deliver_due(now + 60.0)
        replies = gateway.deliver_due(now + 600.0)
        assert len(replies) == 1
        return parse_downlink(replies[0].text)

    def test_advice_switches_as_channel_degrades(self, adaptive_env):
        """The whole loop over the SMS uplink: as a receiver's reported
        SNR walks down, successive USE replies descend the rate ladder."""
        gateway, server = adaptive_env
        # (snr, frames lost of 16 under sonic-ofdm, expected advice):
        # the losses are what ofdm's own curve predicts, so the refit
        # the feedback triggers does not move the advice off the ladder.
        degrading = [(12.0, 0, "sonic-ofdm"), (2.5, 14, "gmsk"),
                     (-2.0, 16, "fsk"), (-6.0, 16, "audioqr")]
        now = 0.0
        for snr, lost, expected in degrading:
            advice = self._report(
                gateway, server, "sonic-ofdm", snr, lost, 16, now
            )
            assert advice == ProfileAdvice(expected), snr
            now += 3600.0
        assert server.stats.link_reports == len(degrading)
        assert server.stats.profile_switches == len(degrading)

    def test_non_finite_report_rejected_without_poisoning_advice(self):
        """A NaN SNR over SMS gets the malformed reply and never reaches
        the selector: the next finite report gets the advice it gets
        without the NaN."""
        advice = {}
        for hostile in (False, True):
            gateway, server = _adaptive_server()
            now = 0.0
            for snr in (14.0, 15.0):
                self._report(gateway, server, "sonic-ofdm", snr, 0, 16, now)
                now += 3600.0
            if hostile:
                text = "RPT sonic-ofdm SNR nan LOSS 0/16"
                gateway.submit(
                    SmsMessage("+92300123", server.config.sms_number, text), now
                )
                gateway.deliver_due(now + 60.0)
                reply = parse_downlink(gateway.deliver_due(now + 600.0)[0].text)
                assert reply == RequestError("-", "malformed")
                assert server.stats.rejected == 1
                now += 3600.0
            advice[hostile] = self._report(
                gateway, server, "sonic-ofdm", 16.0, 0, 16, now
            )
        assert advice[True] == advice[False] == ProfileAdvice("sonic-ofdm")

    def test_no_selector_yields_error_reply(self):
        gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
        server = SonicServer(
            SiteGenerator(seed=2, n_sites=2),
            TransmitterRegistry(
                [Transmitter("lhr", _LAHORE, 93.7, coverage_km=30.0)]
            ),
            gateway,
            ServerConfig(render_width=360, max_pixel_height=1_000),
        )
        text = LinkReport("gmsk", 3.0, 1, 8).to_text()
        gateway.submit(
            SmsMessage("+92300123", server.config.sms_number, text), 0.0
        )
        gateway.deliver_due(60.0)
        replies = gateway.deliver_due(600.0)
        assert len(replies) == 1
        err = parse_downlink(replies[0].text)
        assert isinstance(err, RequestError)
        assert err.reason == "no-adaptation"
