import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cachemod import ConfigurationError, cli
from cachemod.cli import parse_config, render_csv, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_user_sweep_script(tmp_path, monkeypatch, capsys):
    script = load_script("run_three_user_sweep")
    out = tmp_path / "sweep.csv"
    argv = ["run_three_user_sweep.py", "--trials", "0", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()

    cfg = replace(parse_config(script.CONFIG.read_text()), trials_per_cell=0)
    assert out.read_text() == render_csv(run_scenario(cfg))
    printed = capsys.readouterr().out
    table = [line for line in printed.splitlines() if re.match(r"\s*\d+ \| ", line)]
    assert len(table) == len(cfg.sweep_db) == 11
    assert printed.rstrip().endswith(f"wrote {out}")


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--trials", "-5", "--seed", "-1"], "trials_per_cell"),
        (["--seed", "-1"], "master_seed"),
        (["--seed", str(2**64)], "master_seed"),
    ],
)
def test_three_user_sweep_script_checks_its_flags(tmp_path, monkeypatch, capsys, flags, field):
    # the flags pass the checks `cachemod run` makes: no silent analytic-only
    # run and no seed reduced mod 2^64
    script = load_script("run_three_user_sweep")
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["run_three_user_sweep.py", *flags, "--out", str(out)])
    assert script.main() == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert not out.exists()


def run_script_into(monkeypatch, out):
    script = load_script("run_three_user_sweep")
    argv = ["run_three_user_sweep.py", "--trials", "0", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    return script.main()


def test_three_user_sweep_script_unwritable_output(tmp_path, monkeypatch, capsys):
    # exit 3 with a `runtime error:` line, as `cachemod run` gives, not a traceback
    out = tmp_path / "missing" / "sweep.csv"
    assert run_script_into(monkeypatch, out) == 3
    assert capsys.readouterr().err.startswith("runtime error:")


def test_three_user_sweep_script_config_error_from_the_run(tmp_path, monkeypatch, capsys):
    def no_plan(cfg):
        raise ConfigurationError("no plan")

    monkeypatch.setattr(cli, "run_scenario", no_plan)
    out = tmp_path / "sweep.csv"
    assert run_script_into(monkeypatch, out) == 2
    assert capsys.readouterr().err.startswith("config error: no plan")
    assert not out.exists()


def test_readme_library_example_runs():
    # README's one python block, run as a user would paste it, with src on the path
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(float(gain) >= 0 for *_, gain in rows)  # the proposed scheme never loses


CI_CHECKS = {
    "test_traced_benchmark_smoke[paper_sweep]",
    "test_traced_benchmark_smoke[large_library]",
    "test_traced_benchmark_smoke[many_users]",
    "test_traced_benchmark_smoke[e2e_check]",
    "test_cli_smoke",
    "test_experiment_script",
    "test_pinned_run[mc_memory_every_cpu]",
    "test_pinned_run[mc_memory_one_cpu]",
    "test_pinned_run[sixteen_users]",
    "test_pinned_run[size_limit]",
    "test_pinned_run[long_sweep]",
    "test_page_fault_gate",
    "test_end_to_end_256_psk_and_qam",
}


def test_ci_checks_collect_and_the_workflow_runs_them():
    # an import or syntax error in the CI checks fails here, not first in CI, and the
    # workflow runs them without an inline check body of its own
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "scripts/ci_checks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert collected.returncode == 0, collected.stdout + collected.stderr
    ids = {line.split("::", 1)[1] for line in collected.stdout.splitlines() if "::" in line}
    assert ids == CI_CHECKS
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<" not in workflow and "python -m pytest -q scripts/ci_checks.py" in workflow
