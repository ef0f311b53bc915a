"""The recorder of ``pins.py`` rewrites exactly the entries that disagree."""

import copy

import pytest

import pins

# (pin, row, perturbation of its output, size of the perturbation)
PERTURBATIONS = [
    (pins.WALK_SPEEDS, 4, lambda output: [output[0] + 0.25, output[1]], 0.25),
    (pins.HUMAN_DECISIONS, 3, lambda output: output + 1e-3, 1e-3),
]


def test_refresh_rewrites_only_the_perturbed_entry():
    for pin, row, perturb, size in PERTURBATIONS:
        committed = pin.load()
        perturbed = copy.deepcopy(committed)
        perturbed["rows"][row]["output"] = perturb(committed["rows"][row]["output"])

        document, summary = pins.refresh(pin, perturbed)

        assert summary == (len(committed["rows"]), 1, pytest.approx(size, abs=1e-6))
        assert document["description"] == committed["description"]
        for index, (old, new) in enumerate(zip(committed["rows"], document["rows"], strict=True)):
            if index != row:
                # Kept as committed, although the human modes computed
                # today differ from the recorded ones in the last digits.
                assert new == old
        inputs, output = document["rows"][row]["inputs"], document["rows"][row]["output"]
        assert output == pin.compute(inputs)
        assert pin.agrees(inputs, committed["rows"][row]["output"], output)
