"""Full-system simulation: the Figure 3 workflow, end to end.

``SonicSystem`` wires together everything this repository builds: the
synthetic web, the SONIC server, SMS gateway, FM transmitters with
broadcast carousels, and a population of clients with different
capabilities (users A/B/C).  Frame transport uses the calibrated
:class:`repro.radio.lossmodel.FrameLossModel` so hours of simulated
airtime run in seconds; the audio-true path is available through
:mod:`repro.core.pipeline` for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.client.client import ClientProfile, SonicClient
from repro.core.config import SystemConfig
from repro.radio.lossmodel import FrameLossModel
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.clock import SimClock
from repro.sim.geometry import Location
from repro.sms.gateway import SmsGateway
from repro.transport.framing import Frame
from repro.web.sites import SiteGenerator

__all__ = ["SonicSystem"]

_LAHORE = Location(31.5204, 74.3587)


class SonicSystem:
    """A runnable SONIC deployment."""

    def __init__(
        self,
        config: SystemConfig = SystemConfig(),
        transmitters: list[Transmitter] | None = None,
        profiles: list[ClientProfile] | None = None,
    ) -> None:
        self.config = config
        self.clock = SimClock()
        self.gateway = SmsGateway(seed=config.seed)
        self.generator = SiteGenerator(seed=config.seed, n_sites=config.n_sites)
        self.registry = TransmitterRegistry(
            transmitters
            if transmitters is not None
            else [
                Transmitter(
                    "lahore-93.7",
                    _LAHORE,
                    93.7,
                    coverage_km=30.0,
                    rate_bps=config.broadcast_rate_bps,
                )
            ]
        )
        self.server = SonicServer(
            self.generator,
            self.registry,
            self.gateway,
            ServerConfig(
                sms_number=config.sms_number,
                render_width=config.render_width,
                max_pixel_height=config.max_pixel_height,
            ),
        )
        self.loss_model = FrameLossModel(seed=config.seed)
        self.clients: list[SonicClient] = []
        for profile in profiles if profiles is not None else self.default_profiles():
            self.add_client(profile)
        self._loss_calls = 0
        if config.auto_hourly_push:
            self.server.hourly_push(0.0)
            self.clock.schedule_every(3600.0, self.server.hourly_push)

    @staticmethod
    def default_profiles() -> list[ClientProfile]:
        """The paper's three user classes (Figure 3)."""
        return [
            ClientProfile(
                "user-a", _LAHORE, connection="air", distance_m=1.0, has_sms=False
            ),
            ClientProfile("user-b", _LAHORE, connection="cable", has_sms=False),
            ClientProfile(
                "user-c",
                _LAHORE,
                connection="cable",
                has_sms=True,
                phone_number="+923001112223",
            ),
        ]

    def add_client(self, profile: ClientProfile) -> SonicClient:
        client = SonicClient(
            profile, gateway=self.gateway, server_number=self.config.sms_number
        )
        self.clients.append(client)
        return client

    def client(self, name: str) -> SonicClient:
        for c in self.clients:
            if c.profile.name == name:
                return c
        raise KeyError(f"no client named {name!r}")

    # -- time advancement ------------------------------------------------------------

    def step(self, seconds: float = 1.0) -> None:
        """Advance the simulation: SMS delivery, then frame broadcast."""
        self.clock.advance(seconds)
        now = self.clock.now
        self.gateway.deliver_due(now)

        n_frames = int(seconds * self.config.frames_per_second)
        if n_frames == 0:
            return
        for tx in self.registry.all():
            emitted: list[Frame] = [f for _, f in tx.carousel.emit_frames(n_frames)]
            if not emitted:
                continue
            for client in self.clients:
                if not tx.covers(client.profile.location):
                    continue
                self._loss_calls += 1
                distance = (
                    client.profile.distance_m
                    if client.profile.connection == "air"
                    else 0.0
                )
                lost = self.loss_model.frame_losses_at_distance(
                    len(emitted), distance, call=self._loss_calls
                )
                delivered: list[Frame | None] = [
                    None if was_lost else frame
                    for frame, was_lost in zip(emitted, lost)
                ]
                client.on_frames(delivered, now)

    def run(self, seconds: float, step_s: float = 1.0) -> None:
        """Run the simulation for ``seconds`` of simulated time."""
        remaining = seconds
        while remaining > 0:
            self.step(min(step_s, remaining))
            remaining -= step_s

    # -- audio-true streaming ----------------------------------------------

    def open_stream(
        self,
        station_id: str = "lahore-93.7",
        frames_per_burst: int = 16,
        chunk_samples: int | None = None,
        channel=None,
    ):
        """Audio-true chunked broadcast of one station's carousel.

        Where :meth:`step` moves frames through the calibrated loss
        model, the returned :class:`~repro.core.stream.StreamSession`
        actually modulates the queue one burst at a time, runs the audio
        through ``channel`` (a ``process``/``finish`` stream from
        :mod:`repro.radio.streams`, or None for a clean wire),
        demodulates it chunk by chunk, and feeds every covered client
        via :meth:`SonicClient.on_received_frames` — driven by the audio
        clock, in O(chunk + burst) memory.  A sent burst is not kept:
        the station's 64-entry encode cache would hold 64 MB of bursts
        that a carousel cycle, far longer than 64 bursts, never reaches
        again before eviction.
        """
        from repro.core.stream import (
            DEFAULT_CHUNK_SAMPLES,
            CarouselFrameSource,
            StreamSession,
            WaveformSource,
        )
        from repro.modem.modem import Modem
        from repro.modem.streaming import StreamingReceiver

        tx = self.registry.get(station_id)
        modem = Modem()
        covered = [
            c for c in self.clients if tx.covers(c.profile.location)
        ]

        def deliver(frames, now: float) -> None:
            for client in covered:
                client.on_received_frames(frames, now)

        source = WaveformSource(
            CarouselFrameSource(tx.carousel, frames_per_burst=frames_per_burst),
            modem,
            chunk_samples=chunk_samples or DEFAULT_CHUNK_SAMPLES,
        )
        receiver = StreamingReceiver(modem, frames_per_burst=frames_per_burst)
        return StreamSession(
            source,
            receiver,
            channel=channel,
            carousel=tx.carousel,
            on_frames=deliver,
        )
