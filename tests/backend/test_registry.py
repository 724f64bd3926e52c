"""Backend registry and ``SimulationConfig.backend`` plumbing tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    available_backends,
    get_backend,
    register_backend,
    torch_available,
)
from repro.backend.core import _FACTORIES
from repro.simulator import SimulationConfig


class TestRegistry:
    def test_numpy_backend_always_available(self):
        # one numpy backend, plus torch only where torch imports
        expected = ["numpy"] + (["torch"] if torch_available() else [])
        assert available_backends() == expected

    def test_merged_backend_name_is_gone(self):
        with pytest.raises(ValueError, match="registered: numpy, torch"):
            get_backend("numpy_fused")

    def test_torch_listed_only_when_importable(self):
        assert ("torch" in available_backends()) == torch_available()

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("cupy_nonexistent")

    def test_torch_factory_registered_even_without_torch(self):
        # the registry entry exists so the config error message names it;
        # construction raises ImportError when torch is absent
        assert "torch" in _FACTORIES
        if not torch_available():
            with pytest.raises(ImportError):
                get_backend("torch")

    def test_register_custom_backend(self):
        class Custom(ArrayBackend):
            name = "custom_test"

        register_backend("custom_test", Custom)
        try:
            assert get_backend("custom_test").name == "custom_test"
        finally:
            from repro.backend.core import _INSTANCES

            _FACTORIES.pop("custom_test", None)
            _INSTANCES.pop("custom_test", None)

    def test_backend_attributes(self):
        numpy_bk = get_backend("numpy")
        assert numpy_bk.name == "numpy"
        assert numpy_bk.xp is np
        assert not numpy_bk.is_device


class TestConfigPlumbing:
    def test_default_backend_is_numpy(self):
        config = SimulationConfig()
        config.validate()
        assert config.backend == "numpy"

    def test_removed_fused_backend_rejected(self):
        with pytest.raises(ValueError, match=r"registered: numpy, torch"):
            SimulationConfig(backend="numpy_fused").validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationConfig(backend="jax").validate()

    def test_scalar_core_only_runs_numpy_backend(self):
        with pytest.raises(ValueError, match="scalar core"):
            SimulationConfig(vectorized=False, backend="torch").validate()

    def test_experiment_spec_carries_backend(self):
        from repro.experiments.configs import ExperimentSpec
        from repro.experiments.runner import ExperimentRunner

        spec = ExperimentSpec(name="bk", backend="torch")
        config = ExperimentRunner().simulation_config_for(spec)
        assert config.backend == "torch"

    def test_experiment_spec_with_removed_backend_fails_in_runner(self):
        from repro.experiments.configs import ExperimentSpec
        from repro.experiments.runner import ExperimentRunner

        spec = ExperimentSpec(name="bk", backend="numpy_fused", num_flows=20)
        with pytest.raises(ValueError, match=r"registered: numpy, torch"):
            ExperimentRunner().run(spec)


class TestRemovedCoreSelectors:
    @pytest.mark.parametrize("field", ["soa", "cc_blocks", "batched_control"])
    def test_removed_selector_is_not_a_field(self, field):
        with pytest.raises(TypeError, match=field):
            SimulationConfig(**{field: False})
