"""Reference for the synthetic fixture: the whole-split ``_sample`` it replaced.

``idx.synthesize_arrays`` once drew each split's noise as one ``(n, d)``
array and scaled, rounded and clipped it in fresh whole-split arrays.  It
now does the same steps in fixed row blocks, which continue the same
generator stream, and must give the same bytes and labels as this copy.
"""

import numpy as np

from arcgate.idx import Dataset, PixelRows


def synthesize_arrays(n_train: int = 5000, n_test: int = 1000, n_classes: int = 10,
                      side: int = 28, seed: int = 2024,
                      contrast: float = 0.15, mask_pixels: int = 40,
                      pixel_noise: float = 0.10) -> Dataset:
    rng = np.random.default_rng(seed)
    d = side * side
    base = rng.uniform(0.35, 0.65, size=d)
    templates = np.tile(base, (n_classes, 1))
    for k in range(n_classes):
        idx = rng.choice(d, size=mask_pixels, replace=False)
        signs = rng.choice([-1.0, 1.0], size=mask_pixels)
        templates[k, idx] += contrast * signs

    def _sample(n: int) -> tuple[PixelRows, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        imgs = templates[labels] + rng.normal(0.0, pixel_noise, size=(n, d))
        bytes_ = np.clip(np.rint(imgs * 255.0), 0, 255).astype(np.uint8)
        return PixelRows(bytes_), labels.astype(np.int64)

    x_train, y_train = _sample(n_train)
    x_test, y_test = _sample(n_test)
    return Dataset(x_train, y_train, x_test, y_test)
