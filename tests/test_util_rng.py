"""Deterministic RNG derivation and the counter-based population streams."""

import hashlib

import numpy as np

from repro.util.rng import counter_normals, counter_uniforms, derive_key, derive_rng


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        a = derive_rng(1, "channel", 0).random(5)
        b = derive_rng(1, "channel", 0).random(5)
        assert (a == b).all()

    def test_different_labels_differ(self):
        a = derive_rng(1, "channel", 0).random(5)
        b = derive_rng(1, "channel", 1).random(5)
        assert (a != b).any()

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(2, "x").random(5)
        assert (a != b).any()

    def test_label_types_mix(self):
        a = derive_rng(0, "page", "dawn.pk", 3)
        b = derive_rng(0, "page", "dawn.pk", "3")
        # Int 3 and string "3" stringify identically by design: stable keys.
        assert a.random() == b.random()

    def test_nested_vs_flat_labels_differ(self):
        a = derive_rng(0, "ab").random()
        b = derive_rng(0, "a", "b").random()
        assert a != b


class TestDeriveKey:
    def test_key_matches_derive_rng_material(self):
        # Same path derivation: changing any label changes the key.
        assert derive_key(1, "a", 2) == derive_key(1, "a", 2)
        assert derive_key(1, "a", 2) != derive_key(1, "a", 3)
        assert derive_key(1, "a") != derive_key(2, "a")
        assert 0 <= derive_key(0) < 2**64


class TestCounterStreams:
    def test_uniforms_in_unit_interval(self):
        u = counter_uniforms(derive_key(0, "u"), np.arange(100_000))
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_uniform_moments(self):
        u = counter_uniforms(derive_key(0, "m"), np.arange(200_000))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - (1.0 / 12.0) ** 0.5) < 0.005

    def test_partition_invariance(self):
        """The defining property: any slicing of the counter space
        reproduces the monolithic stream bit-for-bit."""
        key = derive_key(7, "partition")
        whole = counter_uniforms(key, np.arange(10_000))
        pieces = np.concatenate(
            [
                counter_uniforms(key, np.arange(0, 1_234)),
                counter_uniforms(key, np.arange(1_234, 7_777)),
                counter_uniforms(key, np.arange(7_777, 10_000)),
            ]
        )
        assert np.array_equal(whole, pieces)
        # Order of evaluation is irrelevant too.
        shuffled = counter_uniforms(key, np.array([5, 3, 8]))
        assert shuffled[1] == whole[3]

    def test_keys_give_independent_streams(self):
        c = np.arange(1_000)
        a = counter_uniforms(derive_key(0, "s", 0), c)
        b = counter_uniforms(derive_key(0, "s", 1), c)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_shape_preserved(self):
        u = counter_uniforms(derive_key(0, "2d"), np.arange(12).reshape(3, 4))
        assert u.shape == (3, 4)

    def test_normal_moments(self):
        z = counter_normals(derive_key(0, "n"), np.arange(200_000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        # Tail sanity: ~2.3% beyond +2 sigma.
        assert 0.015 < float((z > 2.0).mean()) < 0.03

    def test_normals_partition_invariant(self):
        key = derive_key(1, "np")
        whole = counter_normals(key, np.arange(1_000))
        halves = np.concatenate(
            [counter_normals(key, np.arange(500)),
             counter_normals(key, np.arange(500, 1_000))]
        )
        assert np.array_equal(whole, halves)

    def test_values_pinned(self):
        """Both streams over 10^5 counters of one key, pinned bit for bit."""
        counters = np.arange(100_000)
        key = derive_key(2024, "pin")
        uniforms = counter_uniforms(key, counters)
        normals = counter_normals(key, counters)
        assert hashlib.sha256(uniforms.tobytes()).hexdigest() == (
            "85b0caf0cd2f4b334f02ca29e41a20df2f2d483e996aed13f1fe869b7bb7d772"
        )
        assert hashlib.sha256(normals.tobytes()).hexdigest() == (
            "cd0e83452732f069fed1bff2e6da9d037adff4773477548a5cfeed950eace5ea"
        )

    def test_caller_counters_untouched(self):
        counters = np.arange(1_000, dtype=np.uint64)
        before = counters.copy()
        counter_uniforms(derive_key(0, "ro"), counters)
        counter_normals(derive_key(0, "ro"), counters)
        assert np.array_equal(counters, before)
