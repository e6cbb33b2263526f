"""Images, labels, sparse supervision sets, and the synthetic dataset.

Images are (H, W, C) float64 arrays with values in [0, 1], C in {1, 3}.
Label maps are (H, W) uint8 arrays; 255 is the UNLABELED sentinel, so
class indices stop at 254.  Sparse label CSVs use the header
``image_id,row,col,class``.
"""

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import check_finite, check_int_fields
from .pnm import PnmError, read_pnm, write_pnm
from .rng import mix_seed

UNLABELED = 255


@dataclass
class LabeledImage:
    image: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        if img.ndim == 2:
            img = img[:, :, None]
        if img.ndim != 3 or img.shape[2] not in (1, 3):
            raise ValueError(f"image must be (H, W, 1|3), got {img.shape}")
        if not np.isfinite(img).all() or img.min() < 0 or img.max() > 1:
            raise ValueError("image values must be finite and in [0, 1]")
        lab = np.asarray(self.labels)
        if lab.shape != img.shape[:2]:
            raise ValueError(f"label shape {lab.shape} does not match image {img.shape[:2]}")
        if not np.issubdtype(lab.dtype, np.integer):
            raise ValueError("labels must be integers")
        if lab.min(initial=0) < 0 or lab.max(initial=0) > UNLABELED:
            raise ValueError(f"label values must lie in [0, {UNLABELED}]")
        self.image = img
        self.labels = lab.astype(np.uint8)

    @property
    def height(self) -> int:
        return self.image.shape[0]

    @property
    def width(self) -> int:
        return self.image.shape[1]

    @property
    def channels(self) -> int:
        return self.image.shape[2]


@dataclass
class SparseLabelSet:
    """Supervised pixel set: (image_id, row, col, class) entries."""
    entries: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        norm = []
        for image_id, row, col, cls in self.entries:
            key = (str(image_id), int(row), int(col))
            if key in seen:
                raise ValueError(f"duplicate sparse entry for {key}")
            seen.add(key)
            if row < 0 or col < 0:
                raise ValueError(f"negative position in sparse entry {key}")
            if not 0 <= cls < UNLABELED:
                raise ValueError(f"sparse class {cls} out of range")
            norm.append((key[0], int(row), int(col), int(cls)))
        self.entries = norm

    def __len__(self) -> int:
        return len(self.entries)


def sample_sparse_labels(dense, n: int, seed: int,
                         image_id: str = "image") -> SparseLabelSet:
    """Draw n distinct labeled pixels uniformly without replacement.

    ``dense`` is a LabeledImage or a 2-d label array; UNLABELED pixels
    are never drawn.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    labels = dense.labels if isinstance(dense, LabeledImage) else np.asarray(dense)
    if labels.ndim != 2:
        raise ValueError(f"labels must be 2-d, got shape {labels.shape}")
    flat = np.flatnonzero(labels != UNLABELED)
    if n > flat.size:
        raise ValueError(f"requested {n} labels but only {flat.size} pixels are labeled")
    rng = np.random.default_rng(seed)
    picks = rng.choice(flat, size=n, replace=False)
    entries = []
    width = labels.shape[1]
    for p in sorted(int(v) for v in picks):
        r, c = divmod(p, width)
        entries.append((image_id, r, c, int(labels[r, c])))
    return SparseLabelSet(entries)


def merge_sparse(sets) -> SparseLabelSet:
    entries = []
    for s in sets:
        entries.extend(s.entries)
    return SparseLabelSet(entries)


# -- patch extraction ---------------------------------------------------------


def pad_mirror(image: np.ndarray, margin: int) -> np.ndarray:
    """Symmetric-pad an (H, W, C) image on both spatial axes."""
    return np.pad(image, ((margin, margin), (margin, margin), (0, 0)), mode="symmetric")


# -- synthetic data -----------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    height: int = 64
    width: int = 64
    num_shapes: int = 8
    noise_std: float = 0.1
    num_classes: int = 2
    seed: int = 0
    channels: int = 1
    # Shape shades are drawn around the class mean so that single pixels
    # are ambiguous between classes while the pixels of one shape stay
    # mutually consistent.  A shape's shade starts from one of two modes
    # kept mean-balanced around the class mean: with probability
    # shade_split_prob the low mode (class mean minus shade_split scaled
    # by the class spacing), otherwise the high mode (raised so the
    # class mean is preserved exactly).  shade_jitter then adds per-shape
    # Gaussian spread around the chosen mode.  Setting shade_split and
    # shade_jitter to 0 gives every shape exactly its class mean.
    shade_split: float = 0.75
    shade_split_prob: float = 0.35
    shade_jitter: float = 0.15

    def __post_init__(self):
        check_int_fields(SynthConfig, vars(self))
        if self.height < 1 or self.width < 1:
            raise ValueError("degenerate image dimensions")
        check_finite("noise_std", self.noise_std)
        if not 2 <= self.num_classes < UNLABELED:
            raise ValueError(f"num_classes must be in [2, {UNLABELED - 1}]")
        if self.num_shapes < 0:
            raise ValueError("num_shapes must be non-negative")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        check_finite("shade_jitter", self.shade_jitter)
        check_finite("shade_split", self.shade_split)
        if not 0 <= self.shade_split_prob < 1:
            raise ValueError("shade_split_prob must be in [0, 1)")


def synth_generate(cfg: SynthConfig) -> LabeledImage:
    """Piecewise-constant scene: class-0 background plus random shapes.

    Shapes are axis-aligned rectangles and circles; later shapes
    overwrite earlier ones.  Class k has mean intensity k/(K-1) on
    every channel; each shape's own shade is drawn around that mean
    per the SynthConfig shade fields, then i.i.d. Gaussian noise of
    noise_std is added and the result clamped to [0, 1].
    """
    rng = np.random.default_rng(cfg.seed)
    h, w, k = cfg.height, cfg.width, cfg.num_classes
    labels = np.zeros((h, w), dtype=np.uint8)
    shades = np.zeros((h, w))
    lo = max(3, min(h, w) // 4)
    hi = max(lo + 1, min(h, w) * 2 // 3)
    rr, cc = np.mgrid[0:h, 0:w]
    split = cfg.shade_split / (k - 1)
    p_low = cfg.shade_split_prob
    for _ in range(cfg.num_shapes):
        cls = int(rng.integers(1, k))
        shade = cls / (k - 1)
        if split > 0:
            if rng.uniform() < p_low:
                shade -= split
            else:
                shade += split * p_low / (1.0 - p_low)
        if cfg.shade_jitter > 0:
            shade += rng.normal(0.0, cfg.shade_jitter)
        if rng.integers(0, 2) == 0:
            sh = int(rng.integers(lo, hi + 1))
            sw = int(rng.integers(lo, hi + 1))
            top = int(rng.integers(0, max(1, h - sh + 1)))
            left = int(rng.integers(0, max(1, w - sw + 1)))
            mask = np.zeros((h, w), dtype=bool)
            mask[top:top + sh, left:left + sw] = True
        else:
            radius = int(rng.integers(max(2, lo // 2), max(3, hi // 2) + 1))
            cy = int(rng.integers(0, h))
            cx = int(rng.integers(0, w))
            mask = (rr - cy) ** 2 + (cc - cx) ** 2 <= radius ** 2
        labels[mask] = cls
        shades[mask] = shade
    image = np.repeat(shades[:, :, None], cfg.channels, axis=2)
    if cfg.noise_std > 0:
        image = image + rng.normal(0.0, cfg.noise_std, size=image.shape)
    return LabeledImage(np.clip(image, 0.0, 1.0), labels)


def check_split_sizes(num_train: int, num_test: int) -> None:
    """A synthetic dataset has at least one train and one test image."""
    if num_train < 1 or num_test < 1:
        raise ValueError("num_train and num_test must be at least 1")


def synth_dataset(cfg: SynthConfig, count: int, prefix: str,
                  seed_offset: int = 0) -> dict[str, LabeledImage]:
    """Generate ``count`` images with per-image seeds derived from cfg.seed."""
    out = {}
    for i in range(count):
        per = replace(cfg, seed=mix_seed(cfg.seed, seed_offset, i))
        out[f"{prefix}_{i:03d}"] = synth_generate(per)
    return out


# -- file I/O -----------------------------------------------------------------


def load_image(path) -> np.ndarray:
    samples, maxval = read_pnm(path)
    img = samples.astype(np.float64) / maxval
    if img.ndim == 2:
        img = img[:, :, None]
    return img


def save_image(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    if img.min(initial=0) < 0 or img.max(initial=0) > 1:
        raise ValueError("image values must lie in [0, 1]")
    write_pnm(path, np.rint(img * 255).astype(np.uint8), 255)


def load_labels(path) -> np.ndarray:
    samples, maxval = read_pnm(path)
    if samples.ndim != 2 or maxval > 255:
        raise PnmError(f"{path}: label maps must be 8-bit PGM")
    return samples.astype(np.uint8)


def save_labels(path, labels: np.ndarray) -> None:
    lab = np.asarray(labels)
    if lab.ndim != 2 or not np.issubdtype(lab.dtype, np.integer):
        raise ValueError("labels must be a 2-D integer array")
    classes = lab[lab != UNLABELED]
    if classes.size and (classes.min() < 0 or classes.max() > UNLABELED - 1):
        raise ValueError(f"label classes must fit in [0, {UNLABELED - 1}]")
    write_pnm(path, lab.astype(np.uint8), 255)


def save_prob_map(prefix, probs: np.ndarray) -> list[Path]:
    """Write one 16-bit PGM per class: <prefix>_class<k>.pgm."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 3:
        raise ValueError(f"probability map must be (H, W, K), got {p.shape}")
    # check before the first file is written, so a bad map leaves none behind
    if not np.isfinite(p).all() or p.min(initial=0) < 0 or p.max(initial=0) > 1:
        raise ValueError("probability map must be finite and in [0, 1]")
    paths = []
    for k in range(p.shape[2]):
        out = Path(f"{prefix}_class{k}.pgm")
        write_pnm(out, np.rint(p[:, :, k] * 65535).astype(np.uint16), 65535)
        paths.append(out)
    return paths


def load_prob_map(paths) -> np.ndarray:
    """Assemble per-class 16-bit PGMs (in class order) into an (H, W, K) map."""
    channels = []
    for path in paths:
        samples, maxval = read_pnm(path)
        if samples.ndim != 2:
            raise PnmError(f"{path}: probability channels must be PGM")
        channels.append(samples.astype(np.float64) / maxval)
    p = np.stack(channels, axis=2)
    sums = np.maximum(p.sum(axis=2, keepdims=True), 1e-12)
    return p / sums


def save_sparse(sls: SparseLabelSet, path) -> None:
    """Write ``sls`` as CSV.  Image ids may not hold a carriage return: the
    csv writer leaves it unquoted, and the reader would split the row."""
    for image_id, _, _, _ in sls.entries:
        if "\r" in image_id:
            raise ValueError(f"sparse image id {image_id!r} holds a carriage return")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "row", "col", "class"])
        for entry in sls.entries:
            writer.writerow(entry)


def load_sparse(path) -> SparseLabelSet:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if rows[:1] != [["image_id", "row", "col", "class"]]:
        raise ValueError(f"{path}: expected header image_id,row,col,class")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"{path}:{line_no}: expected 4 fields")
        try:
            entries.append((row[0], int(row[1]), int(row[2]), int(row[3])))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad integer field") from exc
    return SparseLabelSet(entries)


def load_dataset(directory) -> dict[str, LabeledImage]:
    """Load a directory with images/ and labels/ subdirectories.

    Images and label maps pair by file stem; every image must have a
    matching label PGM.  Keys are stems in sorted order.
    """
    root = Path(directory)
    img_dir, lab_dir = root / "images", root / "labels"
    if not img_dir.is_dir() or not lab_dir.is_dir():
        raise ValueError(f"{root}: expected images/ and labels/ subdirectories")
    out = {}
    for img_path in sorted(img_dir.iterdir()):
        if img_path.suffix not in (".pgm", ".ppm"):
            continue
        lab_path = lab_dir / (img_path.stem + ".pgm")
        if not lab_path.exists():
            raise ValueError(f"no label map for {img_path.name}")
        out[img_path.stem] = LabeledImage(load_image(img_path), load_labels(lab_path))
    if not out:
        raise ValueError(f"{img_dir}: no PGM/PPM images found")
    return out


def save_dataset(directory, images: dict[str, LabeledImage]) -> None:
    root = Path(directory)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    for name, li in images.items():
        suffix = ".ppm" if li.channels == 3 else ".pgm"
        save_image(root / "images" / (name + suffix), li.image)
        save_labels(root / "labels" / (name + ".pgm"), li.labels)
