"""Data layer: sampling, patches, synthetic scenes, file round-trips."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import extract_patch, mirror_index
from tvseg.data import (LabeledImage, SparseLabelSet, SynthConfig, UNLABELED,
                        load_dataset, load_image, load_labels, load_prob_map,
                        load_sparse, merge_sparse, pad_mirror,
                        sample_sparse_labels, save_dataset, save_image,
                        save_labels, save_prob_map, save_sparse,
                        synth_dataset, synth_generate)
from tvseg.pnm import PnmError, read_pnm, write_pnm


def _dense(h=8, w=8, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, k, size=(h, w)).astype(np.uint8)


# -- sparse sampling ----------------------------------------------------------


def test_sample_zero_is_empty():
    assert len(sample_sparse_labels(_dense(), 0, seed=1)) == 0


def test_sample_full_image_hits_every_pixel_once():
    labels = _dense(4, 4)
    s = sample_sparse_labels(labels, 16, seed=2)
    positions = {(r, c) for _, r, c, _ in s.entries}
    assert len(positions) == 16
    for _, r, c, cls in s.entries:
        assert cls == labels[r, c]


def test_sample_seed_determinism():
    labels = _dense(64, 64)
    a = sample_sparse_labels(labels, 10, seed=5)
    b = sample_sparse_labels(labels, 10, seed=5)
    c = sample_sparse_labels(labels, 10, seed=6)
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_sample_skips_unlabeled():
    labels = np.full((6, 6), UNLABELED, dtype=np.uint8)
    labels[2, 3] = 1
    s = sample_sparse_labels(labels, 1, seed=0)
    assert s.entries == [("image", 2, 3, 1)]
    with pytest.raises(ValueError):
        sample_sparse_labels(labels, 2, seed=0)


def test_sample_too_many_raises():
    with pytest.raises(ValueError):
        sample_sparse_labels(_dense(4, 4), 17, seed=0)


def test_sample_accepts_labeled_image():
    li = synth_generate(SynthConfig(height=16, width=16, seed=3))
    s = sample_sparse_labels(li, 5, seed=1)
    assert len(s) == 5


def test_sample_uniformity():
    # 1e4 single draws from a 16x16 image; every cell within 5 sigma
    labels = np.zeros((16, 16), dtype=np.uint8)
    counts = np.zeros(256)
    n = 10000
    for seed in range(n):
        s = sample_sparse_labels(labels, 1, seed=seed)
        _, r, c, _ = s.entries[0]
        counts[16 * r + c] += 1
    p = 1.0 / 256
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 5 * sigma


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        SparseLabelSet([("a", 1, 1, 0), ("a", 1, 1, 1)])


def test_merge_sparse_keeps_all():
    a = SparseLabelSet([("a", 0, 0, 1)])
    b = SparseLabelSet([("b", 0, 0, 0)])
    assert len(merge_sparse([a, b])) == 2


# -- patch extraction ---------------------------------------------------------


def _patch(img, center, patch_size):
    """The patch the trainer and predict_image cut out of the padded image."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim == 2:
        a = a[:, :, None]
    r, c = center
    return pad_mirror(a, patch_size // 2)[r:r + patch_size, c:c + patch_size]


def test_patch_interior_is_subwindow():
    img = np.arange(64.0).reshape(8, 8) / 64.0
    p = _patch(img, (4, 4), 5)
    assert np.array_equal(p[:, :, 0], img[2:7, 2:7])


def test_patch_corner_mirrors():
    img = np.arange(9.0).reshape(3, 3) / 9.0
    p = _patch(img, (0, 0), 3)
    # index -1 reflects onto 0 (edge value repeated)
    expect = img[np.ix_([0, 0, 1], [0, 0, 1])]
    assert np.array_equal(p[:, :, 0], expect)


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.sampled_from([1, 3]),
       patch_size=st.integers(0, 15).map(lambda k: 2 * k + 1), seed=st.integers(0, 2 ** 16))
def test_patch_mirror_matches_reflection_oracle(h, w, channels, patch_size, seed):
    # every center, against index mirroring by hand; margins up to 15
    # exceed the image size, so the reflection wraps more than once
    img = np.random.default_rng(seed).uniform(size=(h, w, channels))
    padded = pad_mirror(img, patch_size // 2)
    for r in range(h):
        for c in range(w):
            assert np.array_equal(padded[r:r + patch_size, c:c + patch_size],
                                  extract_patch(img, (r, c), patch_size))


def test_pad_mirror_agrees_with_extract_patch():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(6, 7, 1))
    padded = pad_mirror(img, 2)
    for r in range(6):
        for c in range(7):
            assert np.array_equal(padded[r:r + 5, c:c + 5],
                                  extract_patch(img, (r, c), 5))


def test_reflect_index_periodic():
    # self-check of the oracle above: period 2n, edge value repeated
    assert [mirror_index(i, 3) for i in range(-3, 6)] == [2, 1, 0, 0, 1, 2, 2, 1, 0]
    assert [mirror_index(i, 1) for i in range(-3, 4)] == [0] * 7
    assert [mirror_index(i, 2) for i in range(-6, 8)] == [1, 0, 0, 1] * 3 + [1, 0]


# -- synthetic scenes ---------------------------------------------------------


def test_synth_empty_scene_is_constant_background():
    li = synth_generate(SynthConfig(num_shapes=0, noise_std=0.0, seed=1))
    assert np.all(li.labels == 0)
    assert np.all(li.image == 0.0)


def test_synth_seed_determinism():
    a = synth_generate(SynthConfig(seed=9))
    b = synth_generate(SynthConfig(seed=9))
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.labels, b.labels)


def test_synth_values_in_range():
    li = synth_generate(SynthConfig(seed=2, num_classes=3))
    assert li.image.min() >= 0.0 and li.image.max() <= 1.0
    assert li.labels.max() <= 2


def test_synth_plain_shades_threshold_learnable():
    # with the shade spread disabled each class sits at its mean intensity,
    # so a 0.5 threshold separates the two classes nearly perfectly
    for seed in (0, 1, 2):
        cfg = SynthConfig(seed=seed, shade_split=0.0, shade_jitter=0.0)
        li = synth_generate(cfg)
        pred = (li.image[:, :, 0] > 0.5).astype(np.uint8)
        err = (pred != li.labels).mean()
        assert err < 0.05


def test_synth_dataset_distinct_images():
    imgs = synth_dataset(SynthConfig(height=16, width=16, seed=0), 3, "t")
    assert sorted(imgs) == ["t_000", "t_001", "t_002"]
    assert not np.array_equal(imgs["t_000"].image, imgs["t_001"].image)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(height=0)
    with pytest.raises(ValueError):
        SynthConfig(num_classes=1)
    with pytest.raises(ValueError):
        SynthConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(shade_split_prob=1.0)


# -- labeled image validation -------------------------------------------------


def test_labeled_image_checks():
    with pytest.raises(ValueError):
        LabeledImage(np.zeros((4, 4)), np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        LabeledImage(np.full((4, 4), 2.0), np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        LabeledImage(np.zeros((4, 4)), np.zeros((4, 4), dtype=np.float64))
    li = LabeledImage(np.zeros((4, 5)), np.zeros((4, 5), dtype=np.int64))
    assert li.channels == 1 and li.height == 4 and li.width == 5


# -- file I/O -----------------------------------------------------------------


def test_pgm_hand_fixture(tmp_path):
    raw = b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])
    path = tmp_path / "tiny.pgm"
    path.write_bytes(raw)
    samples, maxval = read_pnm(path)
    assert maxval == 255
    assert np.array_equal(samples, np.array([[0, 64], [128, 255]], dtype=np.uint8))
    img = load_image(path)
    assert img[1, 1, 0] == 1.0 and img[0, 0, 0] == 0.0


def test_pgm_comment_and_16bit(tmp_path):
    raw = b"P5\n# a comment\n2 1\n65535\n" + bytes([1, 0, 255, 255])
    path = tmp_path / "deep.pgm"
    path.write_bytes(raw)
    samples, maxval = read_pnm(path)
    assert maxval == 65535
    assert samples.tolist() == [[256, 65535]]


_HEADER_COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pnm_roundtrip_property(tmp_path, data):
    # PGM at any maxval (8- and 16-bit), PPM at 8 bits; sides 1..8
    color = data.draw(st.booleans())
    maxval = data.draw(st.integers(1, 255 if color else 65535))
    shape = (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))) + ((3,) if color else ())
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    samples = np.random.default_rng(seed).integers(0, maxval, size=shape, endpoint=True)
    path = tmp_path / "x.pnm"
    write_pnm(path, samples, maxval)
    back, back_max = read_pnm(path)
    assert back_max == maxval and np.array_equal(back, samples)
    # the same bytes with comment lines after the magic, after the width
    # and after the dimensions line; a comment after the maxval line would
    # be pixel data, so none goes there
    magic, dims, rest = path.read_bytes().split(b"\n", 2)
    width, height = dims.split(b" ")
    notes = [b"#" + data.draw(_HEADER_COMMENT).encode() + b"\n" for _ in range(3)]
    path.write_bytes(magic + b"\n" + notes[0] + width + b"\n" + notes[1] + height
                     + b"\n" + notes[2] + rest)
    back, back_max = read_pnm(path)
    assert back_max == maxval and np.array_equal(back, samples)
    # and with a comment attached to each token: a # starts a comment
    # anywhere in the header, and the newline that ends the one after the
    # maxval is the single whitespace byte before the raster
    maxval_text, raster = rest.split(b"\n", 1)
    notes = [b"#" + data.draw(_HEADER_COMMENT).encode() + b"\n" for _ in range(4)]
    path.write_bytes(magic + notes[0] + width + notes[1] + height + notes[2]
                     + maxval_text + notes[3] + raster)
    back, back_max = read_pnm(path)
    assert back_max == maxval and np.array_equal(back, samples)


def test_pnm_malformed(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(PnmError):
        read_pnm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00\x00")  # truncated payload
    with pytest.raises(PnmError):
        read_pnm(p)
    with pytest.raises(PnmError):
        write_pnm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.int64) - 1, 255)


_BAD_READS = {
    "truncated header": b"P5\n2 2",
    "bad header token": b"P5\n2 x\n255\n\x00\x00\x00\x00",
    "missing whitespace after header": b"P5\n2 2\n255",
    "bad dimensions": b"P5\n0 2\n255\n",
    "bad maxval": b"P5\n2 2\n0\n\x00\x00\x00\x00",
    "sample value exceeds maxval": b"P5\n2 1\n3\n\x00\x04",
}
_BAD_WRITES = {
    "bad maxval": (np.zeros((2, 2), dtype=np.uint16), 65536),
    "cannot encode shape": (np.zeros((2, 2, 2), dtype=np.uint8), 255),
    "16-bit PPM not supported": (np.zeros((2, 2, 3), dtype=np.uint16), 65535),
    "samples must be integers": (np.zeros((2, 2)), 255),
}


@pytest.mark.parametrize("op, message", [("read", m) for m in _BAD_READS]
                         + [("write", m) for m in _BAD_WRITES])
def test_pnm_rejects_each_malformed_input(tmp_path, op, message):
    path = tmp_path / "x.pnm"
    if op == "read":
        path.write_bytes(_BAD_READS[message])
        with pytest.raises(PnmError, match=message):
            read_pnm(path)
    else:
        with pytest.raises(PnmError, match=message):
            write_pnm(path, *_BAD_WRITES[message])
        assert not path.exists()


def test_image_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(3)
    img = np.rint(rng.uniform(size=(5, 6, 1)) * 255) / 255.0
    path = tmp_path / "img.pgm"
    save_image(path, img)
    assert np.abs(load_image(path) - img).max() < 1e-12


def test_color_image_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    img = np.rint(rng.uniform(size=(4, 4, 3)) * 255) / 255.0
    path = tmp_path / "img.ppm"
    save_image(path, img)
    assert np.abs(load_image(path) - img).max() < 1e-12


def test_labels_roundtrip_with_sentinel(tmp_path):
    lab = _dense(5, 5, 3)
    lab[0, 0] = UNLABELED
    path = tmp_path / "lab.pgm"
    save_labels(path, lab)
    assert np.array_equal(load_labels(path), lab)


def test_prob_map_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    p = rng.uniform(size=(6, 6, 3))
    p /= p.sum(axis=2, keepdims=True)
    paths = save_prob_map(tmp_path / "m", p)
    assert [x.name for x in paths] == ["m_class0.pgm", "m_class1.pgm", "m_class2.pgm"]
    back = load_prob_map(paths)
    # 16-bit quantization plus renormalization
    assert np.abs(back - p).max() < 1e-4


def test_sparse_roundtrip(tmp_path):
    s = SparseLabelSet([("img_a", 1, 2, 0), ("img_b", 3, 4, 1)])
    path = tmp_path / "s.csv"
    save_sparse(s, path)
    assert load_sparse(path).entries == s.entries
    header = path.read_text().splitlines()[0]
    assert header == "image_id,row,col,class"


def test_sparse_bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("image_id,row,col,class\na,1,1,0\na,1,1,1\n")
    with pytest.raises(ValueError):
        load_sparse(path)
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        load_sparse(path)


@pytest.mark.parametrize("body, message", [
    ("a,0,0,1\na,1,1\n", ":3: expected 4 fields"),
    ("a,0,0,1\na,1,x,0\n", ":3: bad integer field"),
    ("a,0,0,1\n" + "a" * 200_000 + ",1,1,0\n", ":3: field larger than field limit (131072)"),
], ids=["three_fields", "bad_integer", "oversized_field"])
def test_sparse_bad_line_is_named(tmp_path, body, message):
    # the message names the file and the line
    path = tmp_path / "bad.csv"
    path.write_text("image_id,row,col,class\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        load_sparse(path)


_SPARSE_ID = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from("\r\n,\" ")),
                     max_size=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(st.tuples(_SPARSE_ID, st.integers(0, 10 ** 6),
                                  st.integers(0, 10 ** 6), st.integers(0, UNLABELED - 1)),
                        max_size=5, unique_by=lambda e: e[:3]))
def test_sparse_csv_roundtrip_property(tmp_path, entries):
    # an id holding a carriage return is refused before the file is
    # opened; every other set reads back equal
    sls = SparseLabelSet(entries)
    path = tmp_path / "s.csv"
    path.unlink(missing_ok=True)
    if any("\r" in image_id for image_id, _, _, _ in entries):
        with pytest.raises(ValueError, match="carriage return"):
            save_sparse(sls, path)
        assert not path.exists()
    else:
        save_sparse(sls, path)
        assert load_sparse(path).entries == sls.entries


def test_dataset_roundtrip(tmp_path):
    imgs = synth_dataset(SynthConfig(height=12, width=10, seed=5), 2, "v")
    # quantize to the 8-bit grid the files store
    imgs = {n: LabeledImage(np.rint(li.image * 255) / 255.0, li.labels)
            for n, li in imgs.items()}
    save_dataset(tmp_path / "d", imgs)
    back = load_dataset(tmp_path / "d")
    assert sorted(back) == sorted(imgs)
    for n in imgs:
        assert np.abs(back[n].image - imgs[n].image).max() < 1e-12
        assert np.array_equal(back[n].labels, imgs[n].labels)


def test_load_dataset_requires_structure(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(tmp_path)
