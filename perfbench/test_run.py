"""Tests of the benchmark driver itself.

Run from the repository root with: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_driver(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_driver_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _, _) in run.END_TO_END.items()
    }
    per_layer = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    per_layer[run.TRACE_OVERHEAD] = "s"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer


def test_layer_table_places_every_per_layer_metric_once():
    listed = [name for names, _, _ in run.LAYER_TABLE for name in names]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])


def _wide_csv(mean, status="ok", stderr=0.035):
    return (
        "snr_db,rho,l_band,m,omega,trials,seed,esrc_mc,esrc_stderr,"
        "esrc_analytic,rel_err,alpha_mean,gof_pass_rate,status\n"
        f"10,0.3,63,0.7,1,{run.WIDE_TRIALS},1,{mean},{stderr},237.7,0.105,25.1,0.97,{status}\n"
    )


def test_wide_gate_rejects_a_mean_beyond_five_standard_errors():
    sigma = (0.035**2 + run.WIDE_REF_STDERR**2) ** 0.5
    assert run.check_wide(_wide_csv(run.WIDE_REF_MEAN + 4.9 * sigma)).items == run.WIDE_TRIALS
    with pytest.raises(run.GateError, match="standard errors"):
        run.check_wide(_wide_csv(run.WIDE_REF_MEAN - 5.1 * sigma))
    with pytest.raises(run.GateError, match="status"):
        run.check_wide(_wide_csv(run.WIDE_REF_MEAN, status="failed"))
    with pytest.raises(run.GateError, match="rows"):
        run.check_wide(_wide_csv(run.WIDE_REF_MEAN).splitlines()[0] + "\n")


def test_pdf_gate_rejects_a_scaled_density(tmp_path):
    from esrc.cli import main

    out = tmp_path / "density.dat"
    betas = run.PDF_BETAS
    argv = ["pdf", "--betas", ",".join(map(repr, betas)), "--points", str(run.PDF_POINTS),
            "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert run.check_pdf(text, betas).items == run.PDF_POINTS

    def scaled(factor):
        lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                lines.append(line)
            else:
                t, f = line.split()
                lines.append(f"{t} {float(f) * factor!r}")
        return "\n".join(lines) + "\n"

    with pytest.raises(run.GateError, match="mass"):
        run.check_pdf(scaled(1.1), betas)
    shifted = [b * 1.05 for b in betas]  # density of other betas: mean misses the closed form
    with pytest.raises(run.GateError, match="closed form"):
        run.check_pdf(text, shifted)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    proc = _run_driver("--workload", "pdf_10db", "--seed", "3", "--seconds", "1",
                       "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert "error_rate 0 " in proc.stdout


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_driver("--workload", "wide_point_fullfit", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_exact_counts_must_repeat_between_traced_invocations():
    def traced(sinr_calls):
        return run.Sample(traced=True, spans={"zf.sinr": {"calls": sinr_calls}}, points=42)

    assert run.exact_count_problems([traced(42000), traced(42000)]) == []
    (problem,) = run.exact_count_problems([traced(42000), traced(42001)])
    assert "zf.sinr_calls" in problem
