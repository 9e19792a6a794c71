"""The package's public surface.

``dickesim`` exports the user API only.  The dense reference operators and
the gate kernel's building blocks stay importable from their own modules,
where the tests and the benchmark tracer read them.
"""

import importlib

import dickesim

PUBLIC = [
    "AdamState",
    "Ansatz",
    "BlockLedger",
    "Circuit",
    "CircuitParseError",
    "CollectiveState",
    "DEFAULT_TNT_COUPLING",
    "DegenerateFrameError",
    "DomainError",
    "FitResult",
    "GATE_KINDS",
    "GateSpec",
    "MeanSpinFrame",
    "NumericError",
    "OBSERVABLES",
    "OptimizerConfig",
    "ProbTable",
    "ResourceError",
    "ShotCounts",
    "TNT_COUPLING_READINGS",
    "UnsupportedConfigError",
    "adam_step",
    "apply_circuit",
    "apply_gate",
    "build_ledger",
    "circuit_from_json",
    "circuit_to_json",
    "collective_dimension",
    "cost",
    "css_state",
    "degeneracy",
    "depolarize",
    "excited_state",
    "expval",
    "fit",
    "fubini_study_metric",
    "gd_step",
    "get_xi_2_R",
    "get_xi_2_S",
    "ghz_state",
    "grad_findiff",
    "ground_state",
    "husimi_csv",
    "husimi_grid",
    "prob_table_csv",
    "shot_counts_csv",
    "mean_spin_frame",
    "probabilities",
    "qng_step",
    "rho_prime",
    "sample",
    "tnt_coupling_value",
    "__version__",
]


def test_package_exports_exactly_the_user_api():
    assert dickesim.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(dickesim, name), name


def test_reference_names_resolve_from_their_modules():
    for module, names in (
        ("dickesim.dicke", ("op_jx", "op_jy", "op_jz", "op_jplus", "op_jminus")),
        ("dickesim.gates", ("exponentiate", "generator")),
    ):
        found = importlib.import_module(module)
        for name in names:
            assert callable(getattr(found, name, None)), f"{module}.{name}"
            assert name not in dickesim.__all__ and not hasattr(dickesim, name), name
