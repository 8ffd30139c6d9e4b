"""Synthetic data: patterns, homographies, warps, labels, and PNM IO."""

import re

import numpy as np
import pytest

from matchformer import data as D


def erode(mask, iterations=1):
    m = mask.copy()
    for _ in range(iterations):
        p = np.pad(m, 1, constant_values=False)
        m = (p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
             & p[1:-1, 1:-1])
    return m


def smooth_image(seed, h=64, w=64):
    spec = np.fft.rfft2(np.random.default_rng(seed).normal(size=(h, w)))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    spec *= np.hypot(fy, fx) < 0.12
    img = np.fft.irfft2(spec, s=(h, w))
    return (img - img.min()) / (img.max() - img.min())


class TestGenPattern:
    def test_deterministic(self):
        assert np.array_equal(D.gen_pattern(7, 64, 64), D.gen_pattern(7, 64, 64))

    def test_std_above_floor_for_100_seeds(self):
        stds = [D.gen_pattern(s, 64, 64).std() for s in range(100)]
        assert min(stds) > 0.05

    def test_different_seeds_differ(self):
        a, b = D.gen_pattern(0, 64, 64), D.gen_pattern(1, 64, 64)
        assert np.abs(a - b).max() > 0.1

    def test_range(self):
        img = D.gen_pattern(3, 64, 96)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestHomApply:
    def test_batched_equals_per_matrix_calls(self):
        rng = np.random.default_rng(2)
        h = np.stack([D.random_homography(s, size=(64, 64)) for s in range(5)])
        pts = rng.uniform(0, 63, size=(5, 7, 2))
        stacked = D.hom_apply(h, pts)
        one_set = D.hom_apply(h, pts[0])
        for k in range(5):
            assert np.array_equal(stacked[k], D.hom_apply(h[k], pts[k]))
            assert np.array_equal(one_set[k], D.hom_apply(h[k], pts[0]))


class TestRandomHomography:
    def test_zero_bounds_give_identity(self):
        h = D.random_homography(0, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(h, np.eye(3))

    def test_inverse_composition(self):
        h = D.random_homography(5, size=(64, 64))
        assert np.abs(h @ np.linalg.inv(h) - np.eye(3)).max() < 1e-10

    def test_determinants_over_1000_draws(self):
        dets = [abs(np.linalg.det(D.random_homography(s, size=(64, 64))))
                for s in range(1000)]
        assert min(dets) > 1e-3

    def test_normalized_scale(self):
        h = D.random_homography(9, size=(64, 64))
        assert h[2, 2] == 1.0

    def test_majority_of_frame_stays_valid(self):
        for seed in range(20):
            pair = D.make_pair(seed, 64, 64)
            _, valid = D.warp(pair.image_a, pair.h_mat)
            assert valid.mean() > 0.5


class TestWarp:
    def test_identity(self):
        img = D.gen_pattern(0, 64, 64)
        out, mask = D.warp(img, np.eye(3))
        assert np.array_equal(out, img) and mask.all()

    def test_pure_translation_shifts_columns(self):
        img = D.gen_pattern(1, 64, 64)
        h = np.eye(3)
        h[0, 2] = 3.0
        out, mask = D.warp(img, h)
        assert np.abs(out[:, 3:] - img[:, :-3]).max() < 1e-12
        assert not mask[:, :3].any() and mask[:, 3:].all()

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_on_band_limited_content(self, seed):
        # bilinear round trips are only tight away from step edges, so the
        # bound is asserted on smooth content with the mask eroded by the
        # interpolation footprint
        img = smooth_image(seed)
        h = D.random_homography(seed + 100, size=(64, 64))
        fwd, m1 = D.warp(img, h)
        back, m2 = D.warp(fwd, np.linalg.inv(h))
        both = erode(m1 & m2, 2)
        assert np.abs(back - img)[both].max() < 0.05

    def test_singular_matrix_rejected(self):
        h = np.eye(3)
        h[0, 0] = 0.0
        h[0, 1] = 0.0
        with pytest.raises(ValueError):
            D.warp(np.zeros((32, 32)), h * np.array([[1, 1, 0]]).T)


class TestCoarseLabels:
    def test_identity_assignment(self):
        labels = D.gt_coarse_labels(np.eye(3), (64, 64), 4)
        assert np.array_equal(labels, np.arange(256))

    def test_translation_by_one_cell(self):
        h = np.eye(3)
        h[0, 2] = 4.0
        labels = D.gt_coarse_labels(h, (64, 64), 4)
        cols = np.arange(256) % 16
        expect = np.where(cols + 1 < 16, np.arange(256) + 1, -1)
        assert np.array_equal(labels, expect)

    @pytest.mark.parametrize("seed", range(100))
    def test_consistent_with_point_mapping_oracle(self, seed):
        h = D.random_homography(seed, size=(64, 64))
        labels = D.gt_coarse_labels(h, (64, 64), 4)
        rows, cols = np.divmod(np.arange(256), 16)
        centers = np.stack([(cols + 0.5) * 4 - 0.5, (rows + 0.5) * 4 - 0.5], 1)
        mapped = D.hom_apply(h, centers)
        for i in np.flatnonzero(labels >= 0):
            cx = int(np.floor((mapped[i, 0] + 0.5) / 4))
            cy = int(np.floor((mapped[i, 1] + 0.5) / 4))
            assert labels[i] == cy * 16 + cx

    def test_labels_form_partial_injection(self):
        for seed in range(10):
            h = D.random_homography(seed, size=(64, 64), max_scale=0.3)
            labels = D.gt_coarse_labels(h, (64, 64), 4)
            used = labels[labels >= 0]
            assert len(used) == len(set(used.tolist()))


class TestImageIO:
    def test_pgm_roundtrip_quantized(self, tmp_path):
        img = D.gen_pattern(0, 64, 64)
        path = tmp_path / "img.pgm"
        D.write_pgm(path, img)
        back = D.read_pgm(path)
        assert np.array_equal(back, np.floor(img * 255 + 0.5) / 255.0)

    def test_known_bytes(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = D.read_pgm(path)
        assert img.tolist() == [[0.0, 1.0], [128 / 255, 64 / 255]]

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment line\n2 1\n255\n" + bytes([10, 20]))
        assert D.read_pgm(path).shape == (1, 2)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(D.ImageFormatError, match="offset 0"):
            D.read_pgm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(D.ImageFormatError, match="offset"):
            D.read_pgm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes(2))
        with pytest.raises(D.ImageFormatError, match="maxval"):
            D.read_pgm(path)

    def test_ppm_shape_check(self, tmp_path):
        with pytest.raises(ValueError):
            D.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_write_is_round_half_up(self, tmp_path):
        path = tmp_path / "q.pgm"
        D.write_pgm(path, np.array([[0.5 / 255, 1.49 / 255, 1.5 / 255]]))
        assert path.read_bytes()[-3:] == bytes([1, 1, 2])


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [(7, D.random_homography(7, size=(64, 64))),
                   (8, D.random_homography(8, size=(64, 64)))]
        path = tmp_path / "manifest.tsv"
        D.save_manifest(path, entries)
        back = D.load_manifest(path)
        assert [s for s, _ in back] == [7, 8]
        for (_, a), (_, b) in zip(entries, back):
            assert np.array_equal(a, b)

    def test_manifest_without_samples_names_the_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no sample lines")):
            D.load_manifest(path)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("5\t1 2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            D.load_manifest(path)

    @pytest.mark.parametrize("line", ["x\t1 0 0 0 1 0 0 0 1", "1.5\t1 0 0 0 1 0 0 0 1",
                                      "5\t1 0 0 0 1 0 0 0 inf",
                                      "5\tnan 0 0 0 1 0 0 0 1",
                                      "-1\t1 0 0 0 1 0 0 0 1",
                                      "5\t0 0 0 0 0 0 0 0 0", "5\t1 2 3 2 4 6 0 0 1"])
    def test_bad_seed_or_non_finite_entry_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text("7\t1 0 0 0 1 0 0 0 1\n\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ")):
            D.load_manifest(path)
