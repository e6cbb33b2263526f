"""Regenerate protocol_ref.json: the protocol workload's test errors for
every input variant, as the reference that later code must stay near.

    PYTHONPATH=src python3 perfbench/make_protocol_ref.py

Run it only on the commit whose values are meant to be the reference;
the checked-in file was made on the commit that introduced perfbench.
"""

import json

import tvseg.evaluate
from worker import HERE, Protocol, Sizes, protocol_inputs, protocol_sizes

# Summation-order changes move training trajectories by rounding only.
# Perturbing the learning rate by 1e-12 (relative, far above rounding)
# moved no error of any variant at all, and one misclassified pixel is
# 1/8192 here.  0.003 (about 25 pixels) leaves room for that drift,
# while a broken gradient or TV term moves errors by tenths and
# skipping ICM moves mrf_post by more than 0.003 on 2 of the 16 variants.
TOLERANCE = 0.003


def main() -> None:
    sizes = Sizes()
    errors = {}
    for variant in range(Protocol.variants):
        cfg, train_images, test_images = protocol_inputs(variant, sizes)
        res = tvseg.evaluate.run_experiment(cfg, train_images, test_images)
        errors[str(variant)] = {r.mode: r.trial_errors[0] for r in res.rows}
        print(variant, errors[str(variant)], flush=True)
    ref = {"sizes": protocol_sizes(sizes), "tolerance": TOLERANCE, "errors": errors}
    (HERE / "protocol_ref.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
