"""Command-line interface: ``python -m repro <command>``.

The operational face of the reproduction — what a radio station or a
curious user would actually run:

* ``profiles``             list modem profiles and their rates
* ``corpus``               list the synthetic .pk corpus
* ``render URL``           render a corpus page to PPM (+ click map)
* ``encode / decode``      SWebp image compression
* ``modem-tx / modem-rx``  bytes <-> playable WAV audio
* ``simulate``             run the end-to-end system and report
* ``fleet``                one broadcast to N simulated receivers (+ population)
* ``stream``               live chunked broadcast: carousel -> audio -> pages
* ``catalog``              top-N catalog: render -> encode -> modem -> decode
* ``serve``                batched SMS request front end over a simulated day
* ``network``              multi-station broadcast day over N workers
* ``tournament``           race the modem profiles across the channel matrix

Performance is measured by the separate ``python3 -m bench`` harness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_profiles(args: argparse.Namespace) -> int:
    from repro.modem.modem import Modem
    from repro.modem.profiles import get_profile, list_profiles

    print(f"{'profile':22} {'raw PHY bps':>12} {'net bps':>10} {'band kHz':>14} {'order':>6}")
    for name in list_profiles():
        profile = get_profile(name)
        cfg = profile.ofdm
        lo = cfg.first_bin * cfg.sample_rate / cfg.fft_size / 1000
        hi = lo + cfg.bandwidth_hz / 1000
        print(
            f"{name:22} {profile.raw_bit_rate():12.0f} {profile.net_bit_rate():10.0f} "
            f"{lo:6.1f}-{hi:5.1f} {cfg.constellation_order:>6}"
        )
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.web.sites import INTERNAL_PAGES_PER_SITE, SiteGenerator

    generator = SiteGenerator(seed=args.seed, n_sites=args.sites)
    print(f"{'rank':>4} {'category':12} domain")
    for site in generator.websites():
        print(f"{site.rank:>4} {site.category:12} {site.domain}")
    print(f"\n{len(generator.all_urls())} pages "
          f"({args.sites} landing + {args.sites * INTERNAL_PAGES_PER_SITE} internal)")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.imaging.pnm import write_ppm
    from repro.web.render import PageRenderer
    from repro.web.sites import SiteGenerator

    generator = SiteGenerator(seed=args.seed)
    renderer = PageRenderer(width=args.width, max_height=args.max_height)
    try:
        result = renderer.render(generator.page(args.url, hour=args.hour))
    except KeyError:
        print(f"error: {args.url!r} is not in the corpus "
              f"(try `python -m repro corpus`)", file=sys.stderr)
        return 1
    write_ppm(args.out, result.image)
    print(f"rendered {args.url} at hour {args.hour}: "
          f"{result.image.shape[0]}x{result.image.shape[1]} "
          f"(full height {result.full_height}) -> {args.out}")
    if args.clickmap:
        with open(args.clickmap, "w") as f:
            for region in result.clickmap:
                f.write(f"{region.x} {region.y} {region.width} {region.height} {region.href}\n")
        print(f"click map ({len(result.clickmap)} regions) -> {args.clickmap}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.imaging.codec import SWebpCodec
    from repro.imaging.pnm import read_pnm

    image = read_pnm(args.input)
    data = SWebpCodec(args.quality).encode(image)
    Path(args.output).write_bytes(data)
    print(f"{args.input} ({image.nbytes} B raw) -> {args.output} "
          f"({len(data)} B, Q{args.quality}, {image.nbytes / len(data):.1f}x)")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from repro.imaging.codec import CodecError, SWebpCodec
    from repro.imaging.pnm import write_pgm, write_ppm

    try:
        image = SWebpCodec().decode(Path(args.input).read_bytes())
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if image.ndim == 3:
        write_ppm(args.output, image)
    else:
        write_pgm(args.output, image)
    print(f"{args.input} -> {args.output} ({image.shape[0]}x{image.shape[1]})")
    return 0


def _cmd_modem_tx(args: argparse.Namespace) -> int:
    from repro.dsp.wav import write_wav
    from repro.modem.modem import Modem

    data = Path(args.input).read_bytes()
    modem = Modem(args.profile)
    size = modem.frame_payload_size
    payloads = [
        data[i : i + size].ljust(size, b"\0") for i in range(0, len(data), size)
    ]
    if not payloads:
        print("error: input file is empty", file=sys.stderr)
        return 1
    wave_out = modem.transmit_burst(payloads)
    write_wav(args.output, wave_out, int(modem.profile.ofdm.sample_rate))
    seconds = wave_out.size / modem.profile.ofdm.sample_rate
    print(f"{len(data)} B -> {len(payloads)} frames -> {args.output} "
          f"({seconds:.2f}s of audio at {args.profile})")
    return 0


def _cmd_modem_rx(args: argparse.Namespace) -> int:
    from repro.dsp.wav import read_wav
    from repro.modem.modem import Modem

    samples, rate = read_wav(args.input)
    modem = Modem(args.profile)
    expected = int(modem.profile.ofdm.sample_rate)
    if rate != expected:
        print(f"warning: WAV is {rate} Hz, profile expects {expected} Hz",
              file=sys.stderr)
    frames = modem.receive(samples)
    good = [f.payload for f in frames if f.ok]
    if args.output:
        Path(args.output).write_bytes(b"".join(good))
    print(f"{len(frames)} frames detected, {len(good)} decoded "
          f"({100 * (1 - len(good) / max(len(frames), 1)):.0f}% loss)"
          + (f" -> {args.output}" if args.output else ""))
    return 0 if good else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.config import SystemConfig
    from repro.core.system import SonicSystem

    system = SonicSystem(
        SystemConfig(
            n_sites=args.sites,
            render_width=args.width,
            max_pixel_height=args.max_height,
            broadcast_rate_bps=args.rate,
        )
    )
    if args.request:
        system.client("user-c").request_page(args.request, system.clock.now)
    system.run(seconds=args.seconds, step_s=5.0)

    print(f"simulated {args.seconds:.0f}s at {args.rate / 1000:.0f} kbps, "
          f"{len(system.generator.all_urls())} corpus pages")
    stats = system.server.stats
    print(f"server: {stats.renders} renders, {stats.pushes} pushes, "
          f"{stats.requests} requests, {stats.store_hits} store hits")
    for client in system.clients:
        print(f"  {client.profile.name:8} cache {len(client.cache.urls()):3} pages, "
              f"frame loss {client.frame_loss_rate * 100:5.1f}%, "
              f"acks {len(client.acks)}")
    return 0


def _print_population_report(result) -> None:
    """Population distributions of a two-tier fleet run."""
    pop = result.population
    model = result.calibration
    print(
        f"\ncalibration: FER midpoint {model.fer_midpoint_db:.2f} dB, "
        f"scale {model.fer_scale_db:.2f} dB (fitted from tier 1)"
    )
    cfg = pop.config
    print(
        f"population:  {pop.n_receivers:,} receivers x {cfg.hours:.0f} h "
        f"({pop.frames_per_receiver:,} frames each, "
        f"{cfg.pages}-page carousel, {cfg.geometry.radius_km:.1f} km disc)"
    )
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    loss = pop.loss_quantiles(qs)
    read = pop.readability_quantiles(qs)
    header = "".join(f"p{int(q * 100):>2}" + " " * 6 for q in qs)
    print(f"\n{'':14}{header}mean")
    print("frame loss    " + "".join(f"{100 * v:7.2f}% " for v in loss)
          + f"{100 * pop.mean_loss_rate:6.2f}%")
    print("readability   " + "".join(f"{v:7.2f}  " for v in read)
          + f"{float(pop.readability.mean()):6.2f}")
    full = float((pop.pages_decoded == cfg.pages).mean())
    print(
        f"\npages: mean {float(pop.pages_decoded.mean()):.1f}/{cfg.pages} "
        f"decoded, {100 * full:.1f}% of receivers hold the full catalog"
    )
    print(f"\n{'distance':>14} {'receivers':>10} {'mean loss':>10}")
    for lo, hi, mean, n in pop.loss_by_distance(8):
        if n == 0:
            continue
        print(f"{lo:6.0f}-{hi:4.0f} m {n:>10,} {100 * mean:>9.2f}%")
    print(
        f"\ntier 2: {pop.receiver_frames:,} receiver-frames in "
        f"{pop.elapsed_s:.2f}s ({pop.receiver_frames_per_s:,.0f}/s)"
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Broadcast one waveform to a fleet of simulated receivers."""
    from repro.modem.modem import Modem
    from repro.sim.receivers import FleetConfig, run_fleet
    from repro.util.rng import derive_rng

    from repro.core.stream import WaveformSource

    modem = Modem(args.profile)
    rng = derive_rng(args.seed, "fleet-payload")
    size = modem.frame_payload_size

    def bursts():
        for i in range(0, args.frames, args.frames_per_burst):
            yield [
                rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                for _ in range(min(args.frames_per_burst, args.frames - i))
            ]

    supply = bursts()
    # Streaming TX engine: guard blocks between bursts only, so the
    # broadcast ends on its last payload symbol, not on silence.
    wave = WaveformSource(lambda: next(supply, None), modem).read_all()

    population = None
    if args.population > 0:
        from repro.sim.geometry import PopulationGeometry
        from repro.sim.population import PopulationConfig

        population = PopulationConfig(
            n_receivers=args.population,
            hours=args.hours,
            pages=args.pages,
            geometry=PopulationGeometry(radius_km=args.radius_km),
            shadowing_sigma_db=args.shadowing_db,
            chunk_receivers=args.chunk_receivers,
        )

    config = FleetConfig(
        n_receivers=args.receivers,
        master_seed=args.seed,
        profile=args.profile,
        # Tier-1 calibration must sweep the FER transition region, so
        # population mode pins the fleet to a wide AWGN spread around
        # the threshold instead of the demo's comfortable 14 dB.
        impairment="awgn" if population else args.impairment,
        frames_per_burst=args.frames_per_burst,
        snr_db=args.cal_snr_db if population else args.snr_db,
        snr_spread_db=args.cal_spread_db if population else 6.0,
        distance_m=args.distance_m,
        population=population,
    )
    result = run_fleet(wave, config, processes=args.processes)

    audio_s = wave.size / modem.profile.ofdm.sample_rate
    unit = {"clean": "", "awgn": " dB", "acoustic": " m"}[config.impairment]
    print(f"{'rx':>4} {'channel':>10} {'frames':>7} {'ok':>5} {'loss':>7}")
    for r in result.reports:
        print(
            f"{r.receiver_id:>4} {r.channel_param:>9.2f}{unit or ' '} "
            f"{r.n_frames:>7} {r.n_ok:>5} {r.frame_loss_rate * 100:>6.1f}%"
        )
    print(
        f"\n{result.n_receivers} receivers x {audio_s:.1f}s broadcast on "
        f"{result.processes} process(es): {result.elapsed_s:.2f}s "
        f"({result.receivers_per_s:.1f} receivers/s, "
        f"mean loss {result.mean_loss_rate * 100:.1f}%)"
    )
    if result.population is not None:
        _print_population_report(result)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Run a live chunked broadcast: carousel -> audio -> channel -> pages.

    The whole Figure 4(c) schedule executes as a dataflow: the hourly
    re-render schedule enqueues pages, the streaming transmitter
    modulates them burst by burst, the audio crosses a chunk-capable
    channel, and a streaming receiver plus page assembler consume it —
    all in O(chunk) memory, so ``--hours 48 --pages 200`` runs without
    ever materialising the multi-gigabyte capture.
    """
    from repro.client.streaming import StreamingPageAssembler
    from repro.core.stream import CarouselFrameSource, StreamSession, WaveformSource
    from repro.modem.modem import Modem
    from repro.modem.streaming import StreamingReceiver
    from repro.sim.workload import BroadcastWorkload, WorkloadConfig
    from repro.transport.bundle import BundleTransport
    from repro.transport.carousel import BroadcastCarousel
    from repro.util.rng import derive_rng

    modem = Modem(args.profile)
    sample_rate = modem.profile.ofdm.sample_rate
    chunk_samples = max(1, int(args.chunk_s * sample_rate))
    duration_s = args.hours * 3600.0
    n_chunks = max(1, int(np.ceil(duration_s * sample_rate / chunk_samples)))
    total_samples = n_chunks * chunk_samples

    n_hours = max(1, int(np.ceil(args.hours)))
    workload = BroadcastWorkload(
        WorkloadConfig(
            rate_bps=args.rate, n_pages=args.pages, n_hours=n_hours, seed=args.seed
        )
    )
    urls = workload.generator.all_urls()
    if args.max_page_kb:
        # Real modelled pages are hundreds of kB — hours of airtime each
        # at FM rates.  Capping keeps short runs meaningful; the byte
        # accounting stays consistent because the cap goes through the
        # size model, not around it.
        cap = args.max_page_kb * 1024
        workload.size_model.calibrate(
            {u: min(workload.size_model.base_size(u), cap) for u in urls}
        )
    page_ids = {u: i for i, u in enumerate(urls)}
    carousel = BroadcastCarousel(args.rate)
    transport = BundleTransport()

    def make_frames(item):
        """Synthetic page payload, deterministic per (url, enqueue time)."""
        rng = derive_rng(args.seed, "stream-payload", item.url, int(item.enqueued_at))
        data = rng.integers(0, 256, item.size_bytes, dtype=np.uint8).tobytes()
        return transport.chunk(data, page_id=page_ids[item.url], version=0)

    hour_state = {"next": 0}

    def on_advance(now: float) -> None:
        while hour_state["next"] <= int(now // 3600) and hour_state["next"] < n_hours:
            workload.enqueue_hour(carousel, hour_state["next"])
            hour_state["next"] += 1

    channel = None
    if args.impairment != "clean":
        probe = modem.transmit_burst([bytes(modem.frame_payload_size)] * 4)
        if args.impairment == "awgn":
            from repro.radio.streams import AwgnStream

            power = float(np.mean(probe**2))
            sigma = np.sqrt(power / (10.0 ** (args.snr_db / 10.0)))
            channel = AwgnStream(derive_rng(args.seed, "stream-awgn"), sigma)
        elif args.impairment == "acoustic":
            from repro.radio.channels import AcousticChannel

            channel = AcousticChannel(seed=args.seed).stream(
                args.distance_m, total_samples, float(np.mean(probe**2))
            )
        else:  # fm
            from repro.radio.channels import FmRadioLink

            channel = FmRadioLink(seed=args.seed).stream(
                args.rssi_dbm, peak_estimate=float(np.max(np.abs(probe)))
            )

    source = WaveformSource(
        CarouselFrameSource(
            carousel, frames_per_burst=args.frames_per_burst, make_frames=make_frames
        ),
        modem,
        chunk_samples=chunk_samples,
        idle_fill=True,
    )
    receiver = StreamingReceiver(modem, frames_per_burst=args.frames_per_burst)
    assembler = StreamingPageAssembler()
    session = StreamSession(
        source,
        receiver,
        channel=channel,
        carousel=carousel,
        on_frames=lambda frames, now: assembler.push(frames, now),
        on_advance=on_advance,
    )

    def progress(s: StreamSession) -> None:
        st = s.stats
        print(
            f"t={st.audio_seconds:8.1f}s  chunks {st.chunks:>6} "
            f"({st.chunks_per_s:6.1f}/s, {st.realtime_factor:5.1f}x rt)  "
            f"frames {st.frames_ok}/{st.frames_decoded}  "
            f"pages {assembler.pages_completed}  "
            f"backlog {carousel.backlog_bytes() / 1e6:7.2f} MB  "
            f"rxbuf {st.max_rx_buffer_samples / 1000:.0f}k"
        )

    stats = session.run(
        duration_s=duration_s,
        max_chunks=n_chunks,
        progress=progress,
        progress_every=args.progress_every,
    )

    print(
        f"\nstreamed {stats.audio_seconds / 3600:.3f} h of audio "
        f"({args.pages} pages at {args.rate / 1000:.0f} kbps, "
        f"{args.impairment} channel) in {stats.elapsed_s:.1f}s wall "
        f"({stats.realtime_factor:.1f}x realtime)"
    )
    print(
        f"frames: {stats.frames_ok}/{stats.frames_decoded} ok, "
        f"pages completed: {assembler.pages_completed}"
    )
    print(
        f"peak rx buffer: {stats.max_rx_buffer_samples} samples "
        f"({stats.max_rx_buffer_samples * 8 / 1e6:.1f} MB) vs "
        f"{total_samples} total ({total_samples * 8 / 1e6:.1f} MB unchunked)"
    )
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    """Top-N catalog through render -> encode -> modem -> channel -> decode."""
    import time

    from repro.core.pipeline import frames_to_waveform, waveform_to_frames
    from repro.modem.modem import Modem
    from repro.server.cache import BundleStore
    from repro.server.catalog import CatalogConfig, CatalogPipeline
    from repro.transport.bundle import BundleTransport, PageBundle
    from repro.util.parallel import worker_count
    from repro.util.rng import derive_rng

    store = BundleStore(directory=args.store)
    pipeline = CatalogPipeline(
        CatalogConfig(
            seed=args.seed,
            n_sites=args.sites,
            width=args.width,
            max_height=args.max_height,
            quality=args.quality,
        ),
        store=store,
    )
    urls = pipeline.generator.all_urls()[: args.top]
    with pipeline.start(worker_count(args.processes, args.top)):
        result = pipeline.encode_catalog(urls, hour=args.hour)

    modem = Modem(args.profile)
    transport = BundleTransport()
    sample_rate = modem.profile.ofdm.sample_rate
    t_radio = 0.0
    audio_s = 0.0
    n_frames = 0
    rows = []
    ok_pages = 0
    for i, page in enumerate(result.pages):
        t0 = time.perf_counter()
        frames = transport.chunk(page.data, page_id=i, version=page.epoch)
        wave = frames_to_waveform(frames, modem, frames_per_burst=16)
        if args.impairment == "awgn":
            rng = derive_rng(args.seed, "catalog-awgn", i)
            power = float(np.mean(wave**2))
            noise = power / (10.0 ** (args.snr_db / 10.0))
            wave = wave + rng.normal(0.0, np.sqrt(noise), wave.size)
        received = waveform_to_frames(wave, modem, frames_per_burst=16)
        blob = transport.reassemble([f for f in received if f is not None])
        ok = blob == page.data
        if ok:
            PageBundle.from_bytes(blob)  # decode the image end-to-end
            ok_pages += 1
        t_radio += time.perf_counter() - t0
        audio_s += wave.size / sample_rate
        n_frames += len(frames)
        rows.append(
            f"  {page.url:34} {len(page.data):>8} B {len(frames):>5} frames "
            f"{'store' if page.from_store else 'encoded':>7} {'ok' if ok else 'FAIL'}"
        )

    print(f"{'url':36} {'bytes':>8} {'frames':>11} {'source':>7} rx")
    print("\n".join(rows))
    total = result.elapsed_s + t_radio
    print(
        f"\nrender+encode: {result.n_pages} pages in {result.elapsed_s:.2f}s "
        f"({result.pages_per_s:.2f} pages/s, {result.store_hits} store hits, "
        f"{result.encoded} encoded, {result.processes} process(es))"
    )
    print(
        f"radio:         {n_frames} frames / {audio_s:.1f}s of audio in "
        f"{t_radio:.2f}s ({audio_s / t_radio:.1f}x realtime)"
    )
    print(
        f"end-to-end:    {ok_pages}/{result.n_pages} pages ok, "
        f"{result.n_pages / total:.2f} pages/s, "
        f"{audio_s / total:.1f}x realtime overall"
    )
    return 0 if ok_pages == result.n_pages else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a simulated SMS request day through the batched front end."""
    from repro.server.frontend import (
        CatalogResolver,
        FrontendConfig,
        RequestFrontend,
        SizeModelResolver,
    )
    from repro.server.ledger import RequestLedger
    from repro.sim.workload import RequestTraceConfig, generate_requests
    from repro.web.sites import SiteGenerator

    ledger = RequestLedger(args.ledger) if args.ledger else None
    if ledger is not None and len(ledger):
        # A day's request ids restart at 0: they would collide with the
        # rows of the day already in the file.
        print(f"error: ledger {args.ledger} already holds {len(ledger):,} rows; "
              "serve into a new path", file=sys.stderr)
        ledger.close()
        return 1

    pipeline = None
    if args.resolver == "catalog":
        from repro.server.cache import BundleStore
        from repro.server.catalog import CatalogConfig, CatalogPipeline

        pipeline = CatalogPipeline(
            CatalogConfig(
                seed=args.seed,
                n_sites=args.sites,
                width=args.width,
                max_height=args.max_height,
            ),
            store=BundleStore(directory=args.store) if args.store else None,
        )
        # One pool for the whole day: workers fork once and build their
        # renderer once, then serve every resolve.
        resolver = CatalogResolver(pipeline, processes=args.processes)
    else:
        resolver = SizeModelResolver(
            SiteGenerator(seed=args.seed, n_sites=args.sites),
            max_page_bytes=args.max_page_kb * 1024 if args.max_page_kb else None,
        )

    n_pages = min(args.pages, len(resolver.urls))
    trace = generate_requests(
        RequestTraceConfig(
            hours=args.hours,
            n_pages=n_pages,
            rate_per_s=args.rate_per_s,
            n_requests=args.requests,
            seed=args.seed,
        )
    )
    print(
        f"trace: {trace.n_requests:,} requests over {args.hours:.1f} h "
        f"across {n_pages} pages (seed {args.seed})"
    )

    frontend = RequestFrontend(
        resolver,
        FrontendConfig(
            rate_bps=args.rate,
            tick_s=args.tick_s,
            max_batch=args.max_batch,
            max_backlog_bytes=args.max_backlog_kb * 1024,
            defer_capacity=args.defer_capacity,
        ),
        ledger=ledger,
    )

    def progress(f: RequestFrontend) -> None:
        h = f.health()
        print(
            f"t={h['sim_hours']:5.1f}h  submitted {int(h['submitted']):>9,}  "
            f"queue {int(h['queue_depth_pages']):>4} pages / "
            f"{h['backlog_mb']:6.2f} MB  deferred {int(h['deferred']):>5}  "
            f"coalesce {h['coalesce_ratio'] * 100:5.1f}%  "
            f"shed {int(h['shed']):>6}"
        )

    result = frontend.run(
        trace, serial=args.serial, progress=progress,
        progress_every=args.progress_every,
    )
    frontend.ledger.reconcile()

    stats = result.stats
    mode = "serial" if args.serial else "batched"
    print(
        f"\n{mode}: {result.n_requests:,} requests in {result.elapsed_s:.2f}s "
        f"({result.requests_per_s:,.0f} req/s, "
        f"{stats.batches:,} batches of {stats.mean_batch_size:.1f})"
    )
    print(
        f"latency: p50 {result.p50_latency_s:.1f}s  "
        f"p90 {result.p90_latency_s:.1f}s  p99 {result.p99_latency_s:.1f}s  "
        f"(request -> broadcast, {100 * result.served_fraction:.1f}% served)"
    )
    print(
        f"pages: {stats.enqueued_pages:,} transmissions for "
        f"{stats.submitted:,} requests "
        f"({100 * stats.coalesce_ratio:.1f}% coalesced, "
        f"{stats.replaced_pages} epoch replacements), "
        f"store {result.store_hits}/{result.store_hits + result.store_misses} hits"
    )
    print(
        f"backpressure: {stats.deferred:,} deferred "
        f"({stats.retried:,} retried), {stats.shed:,} shed, "
        f"peak backlog {stats.peak_backlog_bytes / 1e6:.2f} MB"
    )
    if pipeline is not None:
        print(
            f"render pool: prefetch "
            f"{pipeline.prefetch_used}/{pipeline.prefetch_submitted} "
            f"speculative renders used"
        )
        pipeline.close()
    print(f"ledger digest: {frontend.ledger.digest()}")
    if args.ledger:
        print(f"ledger: {len(frontend.ledger):,} rows -> {args.ledger}")
    frontend.ledger.close()
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    """Simulate a multi-region broadcast day over N worker processes."""
    import json
    import time

    from repro.server.network import NetworkConfig, network_coverage, run_network
    from repro.util.parallel import worker_count

    config = NetworkConfig(
        n_stations=args.stations,
        hours=args.hours,
        n_pages=args.pages,
        seed=args.seed,
        tick_s=args.tick_s,
        pages_per_station=args.pages_per_station,
        request_rate_per_s=args.rate,
    )
    processes = worker_count(args.processes, config.n_stations)
    t0 = time.perf_counter()
    result = run_network(config, processes)
    elapsed = time.perf_counter() - t0
    print(
        f"{config.n_stations} stations x {config.hours}h "
        f"({config.n_pages}-page corpus) in {elapsed:.2f}s, "
        f"{processes} process(es)"
    )
    print(
        f"{'station':<12} {'requests':>9} {'broadcast':>9} {'shed':>6} "
        f"{'goodput':>9} {'peak blog':>10} {'p50':>7} {'p99':>8} "
        f"{'sw':>3} {'profile':>8}"
    )
    for s in result.stations:
        print(
            f"{s.station_id:<12} {s.n_requests:>9,} {s.n_broadcast:>9,} "
            f"{s.n_shed:>6,} {s.goodput_bps / 1e3:>7.1f}kb {s.peak_backlog_mb:>8.2f}MB "
            f"{s.latency_p50_s:>6.0f}s {s.latency_p99_s:>7.0f}s "
            f"{s.profile_switches:>3} {s.final_profile:>8}"
        )
    lookups = result.store_hits + result.store_misses
    hit_pct = 100.0 * result.store_hits / lookups if lookups else 0.0
    print(
        f"shared store: {result.store_hits}/{lookups} hits ({hit_pct:.0f}%) — "
        f"pages encoded once, broadcast by every demanding station"
    )
    print(f"network digest: {result.network_digest()}")

    if args.verify:
        other = worker_count(2 if processes == 1 else 1, config.n_stations)
        if run_network(config, other).network_digest() != result.network_digest():
            print(
                f"error: {processes}- and {other}-process runs diverged "
                f"(digest mismatch)",
                file=sys.stderr,
            )
            return 1
        print(
            f"determinism: {processes} process(es) == {other} process(es) "
            f"(digest match)"
        )
    coverage = []
    if args.coverage:
        coverage = network_coverage(config, args.coverage, result=result)
        print(f"\nper-station coverage ({args.coverage:,} Tier-2 listeners):")
        for cov in coverage:
            print(
                f"  {cov.station:<12} {cov.n_receivers:>7,} listeners  "
                f"loss {100 * cov.mean_loss_rate:5.1f}%  "
                f"readability {cov.mean_readability:4.1f}/10  "
                f"pages {100 * cov.mean_pages_fraction:5.1f}%"
            )
    if args.json:
        payload = result.to_json_dict()
        if args.coverage:
            payload["coverage"] = [cov.to_json_dict() for cov in coverage]
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nreports -> {args.json}")
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Sweep every modem profile across the channel matrix."""
    from repro.sim.tournament import (
        TournamentConfig,
        run_tournament,
        write_frontier_report,
    )

    def _floats(text: str) -> tuple[float, ...]:
        return tuple(float(v) for v in text.split(",") if v.strip())

    config = TournamentConfig(
        profiles=tuple(p.strip() for p in args.profiles.split(",") if p.strip()),
        snr_grid_db=_floats(args.snr_db),
        distance_grid_m=_floats(args.distance_m),
        rssi_grid_dbm=_floats(args.rssi_dbm),
        payload_bytes=args.payload_bytes,
        n_messages=args.messages,
        master_seed=args.seed,
        loss_threshold=args.loss_threshold,
        store_dir=args.store,
    )
    result = run_tournament(config, processes=args.processes)
    print(
        f"swept {len(result.cells)} cells ({result.n_cached} from store) "
        f"in {result.elapsed_s:.1f}s with {result.processes} process(es)"
    )
    for axis, unit in (("awgn", "dB SNR"), ("acoustic", "m"), ("fm", "dBm")):
        print(f"\n{axis} axis ({unit}):")
        for profile in config.profiles:
            cells = result.cells_for(profile, axis)
            losses = "  ".join(
                f"{c.value:>7g}: {100 * c.loss_rate:3.0f}%" for c in cells
            )
            print(f"  {profile:<12} {losses}")
    print("\nrate-vs-robustness frontier "
          f"(loss <= {config.loss_threshold:g}):")
    print(f"  {'profile':<12} {'net bps':>9}  {'min SNR':>8}  "
          f"{'max dist':>9}  {'min RSSI':>9}")
    for row in result.frontier():
        fmt = lambda v, suffix: "-" if v is None else f"{v:g}{suffix}"
        print(
            f"  {row['profile']:<12} {row['net_bps']:>9.0f}  "
            f"{fmt(row['min_snr_db'], ' dB'):>8}  "
            f"{fmt(row['max_distance_m'], ' m'):>9}  "
            f"{fmt(row['min_rssi_dbm'], ''):>9}"
        )
    if args.json or args.svg:
        json_path = Path(args.json) if args.json else Path("frontier.json")
        write_frontier_report(
            result, json_path, Path(args.svg) if args.svg else None
        )
        print(f"\nfrontier -> {json_path}" + (f", {args.svg}" if args.svg else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SONIC reproduction: connect the unconnected via FM radio & SMS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profiles", help="list modem profiles").set_defaults(func=_cmd_profiles)

    p = sub.add_parser("corpus", help="list the synthetic .pk corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sites", type=int, default=25)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("render", help="render a corpus page to PPM")
    p.add_argument("url")
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--width", type=int, default=1080)
    p.add_argument("--max-height", type=int, default=10_000)
    p.add_argument("--out", default="page.ppm")
    p.add_argument("--clickmap", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("encode", help="compress a PPM/PGM image to SWebp")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--quality", type=int, default=10)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decompress SWebp back to PPM/PGM")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("modem-tx", help="encode a file as modem audio (WAV)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--profile", default="sonic-ofdm")
    p.set_defaults(func=_cmd_modem_tx)

    p = sub.add_parser("modem-rx", help="decode modem audio (WAV) to bytes")
    p.add_argument("input")
    p.add_argument("--output", default=None)
    p.add_argument("--profile", default="sonic-ofdm")
    p.set_defaults(func=_cmd_modem_rx)

    p = sub.add_parser(
        "tournament",
        help="sweep every modem profile across the channel matrix and "
             "report the rate-vs-robustness frontier",
    )
    p.add_argument("--profiles", default="sonic-ofdm,fsk,gmsk,audioqr",
                   help="comma-separated profiles to race")
    p.add_argument("--snr-db", default="0,4,8,14",
                   help="comma-separated AWGN SNR grid (dB)")
    p.add_argument("--distance-m", default="0.3,0.8,1.3",
                   help="comma-separated acoustic distance grid (m)")
    p.add_argument("--rssi-dbm", default="-70,-85,-91",
                   help="comma-separated FM RSSI grid (dBm)")
    p.add_argument("--payload-bytes", type=int, default=32,
                   help="probe message size for the baseline modems")
    p.add_argument("--messages", type=int, default=4,
                   help="probe messages (or OFDM frames) per cell")
    p.add_argument("--loss-threshold", type=float, default=0.1,
                   help="frontier operating point (max loss rate)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--processes", type=int, default=None,
                   help="worker processes (default: one per core; 1 = serial)")
    p.add_argument("--store", default=None,
                   help="SweepStore directory for memoised cells")
    p.add_argument("--json", default=None, help="write the frontier JSON here")
    p.add_argument("--svg", default=None, help="write the frontier SVG here")
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser(
        "fleet", help="broadcast one waveform to N simulated receivers"
    )
    p.add_argument("--receivers", type=int, default=8)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--frames-per-burst", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="sonic-ofdm")
    p.add_argument("--impairment", choices=["clean", "awgn", "acoustic"],
                   default="awgn")
    p.add_argument("--snr-db", type=float, default=14.0)
    p.add_argument("--distance-m", type=float, default=0.9)
    p.add_argument("--processes", type=int, default=None)
    p.add_argument("--population", type=int, default=0,
                   help="two-tier mode: also simulate N statistical "
                        "receivers calibrated from the full-modem fleet "
                        "(0 = off)")
    p.add_argument("--hours", type=float, default=48.0,
                   help="population carousel horizon in hours")
    p.add_argument("--pages", type=int, default=200,
                   help="population catalog size (paper's N=200)")
    p.add_argument("--radius-km", type=float, default=1.0,
                   help="population coverage-disc radius")
    p.add_argument("--shadowing-db", type=float, default=4.0,
                   help="log-normal shadowing sigma for population RSSI")
    p.add_argument("--chunk-receivers", type=int, default=65_536,
                   help="population receivers per vectorised batch")
    p.add_argument("--cal-snr-db", type=float, default=4.0,
                   help="tier-1 calibration fleet centre SNR (population "
                        "mode; sweeps the FER transition)")
    p.add_argument("--cal-spread-db", type=float, default=10.0,
                   help="tier-1 calibration fleet SNR spread (population mode)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "network",
        help="simulate a multi-region broadcast day "
             "(demand-driven page scheduling)",
    )
    p.add_argument("--stations", type=int, default=4,
                   help="regional stations (defaults cover Pakistani metros)")
    p.add_argument("--hours", type=int, default=24,
                   help="simulated broadcast hours (one scheduler epoch each)")
    p.add_argument("--pages", type=int, default=100,
                   help="corpus pages shared by all stations (multiple of 4)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tick-s", type=float, default=60.0,
                   help="simulation step; must divide the 3600 s epoch")
    p.add_argument("--pages-per-station", type=int, default=24,
                   help="per-epoch airtime budget of each station")
    p.add_argument("--rate", type=float, default=None,
                   help="override every region's SMS request rate (req/s)")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes stepping each epoch's stations")
    p.add_argument("--verify", action="store_true",
                   help="re-run on 2 workers (on 1 if --processes is not 1) "
                        "and compare digests")
    p.add_argument("--coverage", type=int, default=0, metavar="N",
                   help="also report per-station Tier-2 coverage for N listeners")
    p.add_argument("--json", default=None,
                   help="write per-station reports to this JSON file")
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser(
        "stream",
        help="run a live chunked broadcast (carousel -> audio -> pages)",
    )
    p.add_argument("--hours", type=float, default=0.02,
                   help="audio hours to stream (48 for the Fig. 4(c) horizon)")
    p.add_argument("--rate", type=float, default=20_000.0)
    p.add_argument("--pages", type=int, default=8,
                   help="corpus pages (multiple of 4; 200 for the paper's N=200)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", default="sonic-ofdm")
    p.add_argument("--frames-per-burst", type=int, default=16)
    p.add_argument("--chunk-s", type=float, default=0.1,
                   help="audio chunk size in seconds")
    p.add_argument("--impairment",
                   choices=["clean", "awgn", "acoustic", "fm"], default="clean")
    p.add_argument("--snr-db", type=float, default=14.0)
    p.add_argument("--distance-m", type=float, default=0.5)
    p.add_argument("--rssi-dbm", type=float, default=-70.0)
    p.add_argument("--max-page-kb", type=int, default=12,
                   help="cap synthetic page size (0 = real modelled sizes)")
    p.add_argument("--progress-every", type=int, default=200,
                   help="print live counters every N chunks")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "catalog",
        help="push the top-N catalog through render -> encode -> modem -> decode",
    )
    p.add_argument("--top", type=int, default=3, help="how many catalog pages")
    p.add_argument("--sites", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--width", type=int, default=720)
    p.add_argument("--max-height", type=int, default=1_600)
    p.add_argument("--quality", type=int, default=10)
    p.add_argument("--profile", default="sonic-ofdm")
    p.add_argument("--impairment", choices=["clean", "awgn"], default="clean")
    p.add_argument("--snr-db", type=float, default=14.0)
    p.add_argument("--processes", type=int, default=None,
                   help="pool size for render+encode (default: cpu count)")
    p.add_argument("--store", default=None,
                   help="directory for the persistent bundle store")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "serve",
        help="serve a simulated SMS request day through the batched front end",
    )
    p.add_argument("--hours", type=float, default=24.0,
                   help="simulated request-day length")
    p.add_argument("--requests", type=int, default=None,
                   help="exact request count (default: Poisson at --rate-per-s)")
    p.add_argument("--rate-per-s", type=float, default=12.0,
                   help="mean SMS arrival rate (requests/second)")
    p.add_argument("--pages", type=int, default=100,
                   help="distinct pages in the Zipf request mix")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sites", type=int, default=25)
    p.add_argument("--rate", type=float, default=20_000.0,
                   help="FM broadcast rate in bits/s")
    p.add_argument("--tick-s", type=float, default=10.0,
                   help="batch window / carousel drain granularity")
    p.add_argument("--max-batch", type=int, default=8192,
                   help="max requests per dispatch batch")
    p.add_argument("--max-backlog-kb", type=int, default=4_000,
                   help="carousel saturation threshold (backpressure)")
    p.add_argument("--defer-capacity", type=int, default=20_000,
                   help="parked requests before shedding")
    p.add_argument("--max-page-kb", type=int, default=12,
                   help="cap modelled page size (0 = real modelled sizes)")
    p.add_argument("--resolver", choices=["size-model", "catalog"],
                   default="size-model",
                   help="size-model prices pages; catalog renders+encodes them")
    p.add_argument("--store", default=None,
                   help="bundle store directory (catalog resolver)")
    p.add_argument("--processes", type=int, default=None,
                   help="render+encode pool size (catalog resolver)")
    p.add_argument("--width", type=int, default=360,
                   help="render width in pixels (catalog resolver)")
    p.add_argument("--max-height", type=int, default=1_200,
                   help="crop rendered pages to this height (catalog resolver)")
    p.add_argument("--ledger", default=None,
                   help="new sqlite path to journal the request ledger to "
                        "(default: in-memory only)")
    p.add_argument("--serial", action="store_true",
                   help="one-request-at-a-time reference mode")
    p.add_argument("--progress-every", type=int, default=2000,
                   help="print service health every N batches")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("simulate", help="run the end-to-end system")
    p.add_argument("--seconds", type=float, default=1_800.0)
    p.add_argument("--rate", type=float, default=10_000.0)
    p.add_argument("--sites", type=int, default=2)
    p.add_argument("--width", type=int, default=360)
    p.add_argument("--max-height", type=int, default=1_200)
    p.add_argument("--request", default=None, help="URL for user-c to request")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
