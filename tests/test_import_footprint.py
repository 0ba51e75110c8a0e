"""What each entry point loads (docs/internals.md, "Import layering").

An entry point's set-up import loads the modules its run executes, and
the run itself loads no further ``repro`` module: a figures pass, a fleet
sweep and a serve round pay no compile inside their timed work.  Nothing
else comes along: no figure pulls in SQLite, the HTTP stack or the chaos
plane, and ``python -m repro --help`` loads only the parser table.

This process has long since imported everything, so each case runs in a
fresh interpreter and reports back one JSON line.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = f"""\
import json
import sys

sys.path.insert(0, {str(SRC)!r})


def repro_modules():
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro."))


def report(**doc):
    print(json.dumps(doc))
"""

#: Modules no figure needs: the serve plane's SQLite and HTTP stacks, the
#: shard client, the chaos plane and the fuzzer.
NOT_FOR_FIGURES = ("sqlite3", "http.client", "http.server", "urllib.request",
                   "ssl", "repro.serve", "repro.chaos", "repro.verify.fuzz",
                   "repro.fleet.shard")

#: Ceiling on the ``repro`` modules a figures pass has loaded by its end:
#: the simulator, the spec layer and the plan types come to 75.
FIGURES_MODULE_CEILING = 80

PAPER_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11")


def run_fresh(code: str) -> dict:
    """Run ``code`` after :data:`PRELUDE` in a new interpreter and return
    the document its last stdout line holds."""
    proc = subprocess.run([sys.executable, "-c",
                           PRELUDE + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestFigures:
    def test_import_loads_no_service_or_shard_plane(self):
        doc = run_fresh("""
            import repro.analysis.figures
            report(loaded=sorted(sys.modules), repro=repro_modules())
            """)
        assert [m for m in NOT_FOR_FIGURES if m in doc["loaded"]] == []
        assert len(doc["repro"]) <= FIGURES_MODULE_CEILING

    def test_figures_pass_loads_nothing_after_setup(self):
        doc = run_fresh(f"""
            import repro.analysis.figures as figures

            before = repro_modules()
            for fig_id in {PAPER_FIGURES!r}:
                figures.FIGURES[fig_id](scale=0.05, runner=None)
            report(before=before, after=repro_modules(),
                   loaded=sorted(sys.modules))
            """)
        assert sorted(set(doc["after"]) - set(doc["before"])) == []
        assert [m for m in NOT_FOR_FIGURES if m in doc["loaded"]] == []
        assert len(doc["after"]) <= FIGURES_MODULE_CEILING

    def test_figure_point_is_called_through_the_module_binding(self):
        """The benchmark's stopwatch patches ``figures.run_spec``: a point
        must go through that module attribute."""
        doc = run_fresh("""
            import repro.analysis.figures as figures

            calls = []
            inner = figures.run_spec
            figures.run_spec = lambda spec: calls.append(spec) or inner(spec)
            figures.FIGURES["fig4"](scale=0.05, runner=None)
            report(calls=len(calls))
            """)
        assert doc["calls"] > 0


class TestFleet:
    def test_fleet_sweep_loads_nothing_after_setup(self):
        """A small sweep over every plane a fleet draws: faults, the
        time plane, hypervisor hosts and a bare-metal attacker."""
        doc = run_fresh("""
            from repro.fleet import FleetSpec, run_fleet

            fleet = FleetSpec(hosts=24, guests=2, prevalence=0.3,
                              scale=0.02, seed=3,
                              fault_mix=((0.0, 0.5), (0.1, 0.5)),
                              sync_mix=((0, 0.5), (2_000_000, 0.5)))
            before = repro_modules()
            report_doc = run_fleet(fleet, jobs=1).report()
            report(before=before, after=repro_modules(),
                   loaded=sorted(sys.modules),
                   failed=report_doc["failed_runs"])
            """)
        assert doc["failed"] == 0
        assert sorted(set(doc["after"]) - set(doc["before"])) == []
        for module in ("repro.faults.injectors", "repro.timesync.host",
                       "repro.virt.hypervisor"):
            assert module in doc["before"], module
        for module in ("sqlite3", "http.client", "urllib.request",
                       "repro.fleet.shard", "repro.chaos", "repro.serve"):
            assert module not in doc["loaded"], module


class TestServe:
    def test_serve_round_loads_nothing_after_setup(self, tmp_path):
        """Set-up boots the daemon and serves one job; the round then
        submits fresh and repeated work and reads every bill view over
        HTTP."""
        doc = run_fresh(f"""
            import http.client

            from repro.serve.api import ReproServer
            from repro.serve.service import MeteringService
            from repro.serve.store import UsageStore

            service = MeteringService(UsageStore({str(tmp_path / "u.db")!r}),
                                      jobs=1)
            server = ReproServer(service)
            server.start_background()
            port = server.server_address[1]

            def call(method, path, body=None):
                conn = http.client.HTTPConnection("127.0.0.1", port)
                conn.request(method, path,
                             body=None if body is None else json.dumps(body),
                             headers={{"Content-Type": "application/json"}})
                response = conn.getresponse()
                doc = json.loads(response.read() or b"null")
                conn.close()
                assert response.status < 300, (path, response.status, doc)
                return doc

            def submit(tid, loops):
                return call("POST", f"/v1/tenants/{{tid}}/jobs",
                            {{"spec": {{"program": "W",
                                       "program_kwargs": {{"loops": loops}}}},
                             "wait": True}})

            tid = call("POST", "/v1/tenants", {{"name": "alpha"}})["tenant_id"]
            submit(tid, 40)
            before = repro_modules()
            jobs = [submit(tid, 40), submit(tid, 41)]
            for job in jobs:
                for view in ("", "/invoice", "/trust", "/audit"):
                    call("GET", f"/v1/jobs/{{job['job_id']}}{{view}}")
            for view in ("", "/usage", "/jobs"):
                call("GET", f"/v1/tenants/{{tid}}{{view}}")
            after = repro_modules()
            server.shutdown()
            server.server_close()
            service.close()
            report(before=before, after=after,
                   cached=[job["cached"] for job in jobs])
            """)
        assert doc["cached"] == [True, False]
        assert sorted(set(doc["after"]) - set(doc["before"])) == []


class TestCli:
    def test_help_loads_only_the_parser(self):
        """``python -m repro --help`` itself, read from ``-X importtime``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage: repro" in proc.stdout
        loaded = {line.rpartition("|")[2].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert sorted(m for m in loaded if m.startswith("repro")) == [
            "repro", "repro._lazy"]
        for module in ("sqlite3", "http.client", "ssl", "multiprocessing"):
            assert module not in loaded, module

    def test_subcommand_loads_only_its_own_modules(self):
        doc = run_fresh("""
            from repro.__main__ import main

            main(["comparison"])
            report(repro=repro_modules(), loaded=sorted(sys.modules))
            """)
        for module in ("sqlite3", "http.client", "multiprocessing",
                       "repro.serve", "repro.fleet", "repro.runner",
                       "repro.verify"):
            assert module not in doc["loaded"], module


PACKAGES = ("repro", "repro.verify", "repro.fleet", "repro.serve",
            "repro.runner", "repro.analysis", "repro.metering",
            "repro.timesync", "repro.faults")


class TestPublicNames:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves(self, package):
        doc = run_fresh(f"""
            import importlib

            module = importlib.import_module({package!r})
            missing = [name for name in module.__all__
                       if not hasattr(module, name)]
            hidden = sorted(set(module.__all__) - set(dir(module)))
            unknown = hasattr(module, "no_such_name")
            report(missing=missing, hidden=hidden, unknown=unknown,
                   count=len(module.__all__))
            """)
        assert doc["count"] > 0
        assert doc["missing"] == []
        assert doc["hidden"] == []
        assert doc["unknown"] is False

    def test_lazy_name_is_the_defining_module_attribute(self):
        doc = run_fresh("""
            from repro import InvariantChecker, Machine
            from repro.verify import run_fuzz
            import repro.hw.machine
            import repro.verify.fuzz
            import repro.verify.invariants

            report(same=[Machine is repro.hw.machine.Machine,
                         run_fuzz is repro.verify.fuzz.run_fuzz,
                         InvariantChecker
                         is repro.verify.invariants.InvariantChecker])
            """)
        assert doc["same"] == [True, True, True]
