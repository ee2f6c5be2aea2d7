import json
from pathlib import Path

import pytest

from prbslice import presets
from prbslice.model import NetworkConfig
from prbslice.presets import (
    PRESET_NAMES,
    config_scenario_spec,
    default_scenario_spec,
    preset_config,
    preset_scenario_spec,
)
from prbslice.scenario import ScenarioSpec


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shapes(name):
    s, k, n = (int(x) for x in name.split("-"))
    config = preset_config(name)
    assert (config.num_services, config.num_partitions,
            config.num_slices) == (s, k, n)
    config.validate()


def test_budgets_across_prb_grid():
    # every layout fits 100/200/300 except the largest at 100
    for name in PRESET_NAMES:
        for prbs in (100, 200, 300):
            config = preset_config(name, total_prbs=prbs)
            if name == "5-4-13" and prbs == 100:
                with pytest.raises(Exception):
                    config.validate()
            else:
                config.validate()


def test_default_spec_covers_all_services():
    config = preset_config("5-3-10")
    spec = default_scenario_spec(config)
    assert set(spec.per_service) == {s.service_id for s in config.services}


def test_sibling_spec_else_default(tmp_path):
    config = preset_config("3-2-4")
    path = tmp_path / "net.json"
    path.write_text(config.to_json())
    assert config_scenario_spec(path, config) == default_scenario_spec(config)
    calibrated = preset_scenario_spec("3-2-4")
    (tmp_path / "net.scenario.json").write_text(calibrated.to_json())
    assert config_scenario_spec(path, config) == calibrated


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_spec_is_the_sibling_spec(name):
    # the preset rule and the CLI's sibling rule name the same file
    path = (Path(presets.__file__).with_name("configs")
            / f"config_{name.replace('-', '_')}.json")
    assert preset_scenario_spec(name) == config_scenario_spec(
        path, preset_config(name))


def test_calibration_keeps_residual_un_overused():
    # the default intensities never drive the residual partition below its
    # floor on the reference run, so admissions are never blocked
    from prbslice.oracle import simulate

    config = preset_config("3-2-4")
    scenario = preset_scenario_spec("3-2-4").generate(config, 1)
    trace = simulate(config, scenario)
    assert all(not st.rp_ovr for st in trace.states)
    assert all(st.rp_shr >= config.overuse_floor for st in trace.states)


@pytest.mark.parametrize(
    "path", sorted(Path(presets.__file__).with_name("configs").glob("*.json")),
    ids=lambda path: path.name)
def test_bundled_document_holds_only_what_its_loader_reads(path):
    # a key the loader does not read is lost on the way back
    loader = (ScenarioSpec if path.name.endswith(".scenario.json")
              else NetworkConfig)
    text = path.read_text()
    assert json.loads(loader.from_json(text).to_json()) == json.loads(text)
