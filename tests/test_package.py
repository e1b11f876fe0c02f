"""The package's export list."""

import pbrsim

# The single-state density-matrix API (evolution lives in pbrsim.simulate only),
# the simulated forbidden-map discovery (the map is closed-form) and the
# readout map on finished distributions (a run folds readout into its read).
REMOVED = (
    "DensityMatrix",
    "ForbiddenMap",
    "NormalizationError",
    "apply_channel",
    "apply_readout",
    "apply_unitary",
    "discover_forbidden_map",
    "ground_state",
    "input_angles",
    "marginal_distribution",
    "measurement_probs",
    "pure_density",
    "simulate_circuit",
)


def test_export_list():
    exported = pbrsim.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(pbrsim, name), name
    for name in REMOVED:
        assert name not in exported
        assert not hasattr(pbrsim, name), name
