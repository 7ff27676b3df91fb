"""Command-line interface."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.dsp.wav import read_wav, write_wav
from repro.imaging.pnm import read_pnm, write_ppm


class TestWav:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.8, 0.8, 4_800)
        path = tmp_path / "x.wav"
        write_wav(path, samples, 48_000)
        restored, rate = read_wav(path)
        assert rate == 48_000
        assert np.max(np.abs(restored - samples)) < 1e-3

    def test_clipping_normalised(self, tmp_path):
        path = tmp_path / "loud.wav"
        write_wav(path, np.array([0.0, 2.0, -2.0]), 8_000)
        restored, _ = read_wav(path)
        assert np.max(np.abs(restored)) <= 1.0

    def test_mono_required(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(tmp_path / "x.wav", np.zeros((10, 2)))


class TestCli:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "sonic-ofdm" in out
        assert "audible-7k" in out

    def test_corpus(self, capsys):
        assert main(["corpus", "--sites", "4"]) == 0
        out = capsys.readouterr().out
        assert "16 pages" in out

    def test_render_and_codec_pipeline(self, tmp_path, capsys):
        from repro.web.sites import SiteGenerator

        url = SiteGenerator(seed=42).all_urls()[0]
        page_ppm = tmp_path / "page.ppm"
        clicks = tmp_path / "page.clicks"
        assert main([
            "render", url, "--width", "480", "--max-height", "600",
            "--out", str(page_ppm), "--clickmap", str(clicks),
        ]) == 0
        assert page_ppm.exists()
        assert clicks.read_text().strip()

        swebp = tmp_path / "page.swebp"
        out_ppm = tmp_path / "decoded.ppm"
        assert main(["encode", str(page_ppm), str(swebp), "--quality", "30"]) == 0
        assert main(["decode", str(swebp), str(out_ppm)]) == 0
        original = read_pnm(page_ppm)
        decoded = read_pnm(out_ppm)
        assert decoded.shape == original.shape

    def test_render_unknown_url(self, tmp_path, capsys):
        assert main(["render", "nonsense.example/", "--out", str(tmp_path / "x.ppm")]) == 1

    def test_modem_tx_rx(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"connect the unconnected" * 8)
        wav = tmp_path / "tx.wav"
        out = tmp_path / "rx.bin"
        assert main(["modem-tx", str(payload), str(wav)]) == 0
        assert main(["modem-rx", str(wav), "--output", str(out)]) == 0
        assert out.read_bytes().startswith(payload.read_bytes())

    def test_modem_tx_empty_file(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["modem-tx", str(empty), str(tmp_path / "x.wav")]) == 1

    def test_decode_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.swebp"
        bad.write_bytes(b"not an image at all")
        assert main(["decode", str(bad), str(tmp_path / "o.ppm")]) == 1

    def test_catalog_end_to_end(self, capsys):
        assert main([
            "catalog", "--top", "1", "--sites", "2",
            "--width", "240", "--max-height", "600", "--processes", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "end-to-end" in out

    def test_catalog_warm_store(self, tmp_path, capsys):
        args = [
            "catalog", "--top", "1", "--sites", "2",
            "--width", "240", "--max-height", "600", "--processes", "1",
            "--store", str(tmp_path / "bundles"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # second run decodes straight from the store
        out = capsys.readouterr().out
        assert "1 store hits" in out

    def test_simulate(self, capsys):
        # The Figure 3 run, without and with user C's SMS request: the
        # requested page was pushed at hour 0, so it is a store hit and
        # user C gets one ACK.
        base = [
            "simulate", "--seconds", "120", "--sites", "2",
            "--width", "360", "--max-height", "800",
        ]
        for extra, requests, acks in (
            ([], "0 requests, 0 store hits", 0),
            (["--request", "cricketpk.pk/sports/story-1"],
             "1 requests, 1 store hits", 1),
        ):
            assert main(base + extra) == 0
            out = capsys.readouterr().out
            assert f"server: 8 renders, 8 pushes, {requests}" in out
            user_c = next(line for line in out.splitlines() if "user-c" in line)
            assert user_c.endswith(f"acks {acks}")

    def test_stream(self, capsys):
        assert main([
            "stream", "--hours", "0.01", "--pages", "4",
            "--progress-every", "100",
        ]) == 0
        out = capsys.readouterr().out
        # Live counters: chunk rate, frames decoded, carousel backlog.
        assert "chunks" in out
        assert "backlog" in out
        assert "frames" in out
        assert "streamed 0.010 h of audio" in out
        assert "pages completed: 1" in out  # first page lands inside 36 s

    def test_stream_awgn(self, capsys):
        assert main([
            "stream", "--hours", "0.002", "--pages", "4",
            "--impairment", "awgn", "--snr-db", "18",
            "--progress-every", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "awgn channel" in out
        assert "peak rx buffer" in out

    def test_stream_fm(self, capsys):
        assert main([
            "stream", "--hours", "0.002", "--pages", "4",
            "--impairment", "fm", "--rssi-dbm", "-70",
            "--progress-every", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "fm channel" in out
        ok, decoded = re.search(r"frames: (\d+)/(\d+) ok", out).groups()
        assert int(decoded) > 0 and int(ok) == int(decoded)

    def test_serve(self, tmp_path, capsys):
        ledger = tmp_path / "requests.sqlite"
        assert main([
            "serve", "--hours", "0.5", "--requests", "3000",
            "--progress-every", "30", "--ledger", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "\nbatched: 3,000 requests" in out
        assert "latency: p50" in out
        assert "coalesce" in out
        assert "backpressure:" in out
        assert ledger.exists()
        from repro.server.ledger import RequestLedger

        reopened = RequestLedger(ledger)
        assert sum(reopened.reconcile().values()) == 3000
        reopened.close()

    def test_serve_refuses_a_ledger_that_holds_rows(self, tmp_path, capsys):
        ledger = tmp_path / "requests.sqlite"
        args = ["serve", "--hours", "0.5", "--requests", "2000", "--pages", "20",
                "--max-page-kb", "12", "--ledger", str(ledger)]
        assert main(args) == 0
        capsys.readouterr()
        # The second day runs as a user runs it, so a traceback would show.
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert str(ledger) in line and "2,000 rows" in line

    def test_network_sharded_verify_json(self, tmp_path, capsys):
        report = tmp_path / "stations.json"
        assert main([
            "network", "--stations", "3", "--hours", "6", "--tick-s", "120",
            "--seed", "42", "--processes", "2", "--verify",
            "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 process(es) == 1 process(es) (digest match)" in out
        stations = json.loads(report.read_text())["stations"]
        assert len(stations) == 3
        assert all(s["ledger_digest"] for s in stations)

    def test_network_coverage_computed_once(self, tmp_path, capsys, monkeypatch):
        import repro.server.network as network_mod

        calls = []
        coverage = network_mod.network_coverage

        def counted(*args, **kwargs):
            calls.append(args)
            return coverage(*args, **kwargs)

        monkeypatch.setattr(network_mod, "network_coverage", counted)
        report = tmp_path / "stations.json"
        assert main([
            "network", "--stations", "2", "--hours", "1", "--tick-s", "600",
            "--coverage", "400", "--json", str(report),
        ]) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert "per-station coverage (400 Tier-2 listeners)" in out
        assert len(json.loads(report.read_text())["coverage"]) == 2

    def test_serve_48_hour_day_digest_pinned(self, capsys):
        # The longest default-size day: page versions and sizes from
        # more than a day back are read again, and no ledger row moves.
        assert main([
            "serve", "--hours", "48", "--requests", "300000",
            "--progress-every", "100000",
        ]) == 0
        out = capsys.readouterr().out
        assert (
            "ledger digest: "
            "448a05dcbc83575748b3f74692cb50ff613bb3c2e3b1131569bf6d6b3f033f7c"
        ) in out

    def test_tournament_frontier_json_and_svg(self, tmp_path, capsys):
        from tests.test_sim_tournament import TINY

        def grid(key):
            return ",".join(str(v) for v in TINY[key])

        frontier_json = tmp_path / "frontier.json"
        frontier_svg = tmp_path / "frontier.svg"
        assert main([
            "tournament",
            f"--snr-db={grid('snr_grid_db')}",
            f"--distance-m={grid('distance_grid_m')}",
            f"--rssi-dbm={grid('rssi_grid_dbm')}",
            "--payload-bytes", str(TINY["payload_bytes"]),
            "--messages", str(TINY["n_messages"]),
            "--seed", str(TINY["master_seed"]),
            "--processes", "1",
            "--json", str(frontier_json), "--svg", str(frontier_svg),
        ]) == 0
        assert frontier_svg.exists()
        frontier = json.loads(frontier_json.read_text())["frontier"]
        assert {row["profile"] for row in frontier} == {
            "sonic-ofdm", "fsk", "gmsk", "audioqr",
        }

    def test_serve_catalog_resolver_closes_its_pool(self, capsys):
        assert main([
            "serve", "--resolver", "catalog", "--processes", "2",
            "--hours", "0.25", "--requests", "200", "--pages", "8",
            "--sites", "2", "--width", "240", "--max-height", "300",
        ]) == 0
        assert "render pool: prefetch" in capsys.readouterr().out
        assert multiprocessing.active_children() == []

    def test_fleet_two_tier(self, capsys):
        assert main([
            "fleet", "--receivers", "3", "--frames", "8", "--processes", "1",
            "--population", "2000", "--hours", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "(fitted from tier 1)" in out
        assert re.search(r"^calibration: FER midpoint ", out, re.M)
        assert re.search(r"^tier 2: [\d,]+ receiver-frames", out, re.M)

    def test_serve_serial_mode(self, capsys):
        assert main([
            "serve", "--hours", "0.1", "--requests", "200", "--serial",
            "--progress-every", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "serial: 200 requests" in out
