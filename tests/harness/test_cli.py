"""The `python -m repro.harness` command-line runner."""

import pytest

from repro.harness import EXPERIMENTS
from repro.harness.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        """Figures in table (paper) order with their full titles, then
        the soaks."""
        assert main(["--list"]) == 0
        listed = [
            line.split(None, 1) for line in capsys.readouterr().out.splitlines()
        ]
        assert listed == [[s.name, s.title] for s in EXPERIMENTS]
        assert [name for name, _ in listed[:2]] == ["fig4", "fig8"]
        assert listed[-1][0] == "scrub"

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_run_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "rs_van" in out
        assert "encode_us" in out

    def test_run_gossip_small(self, capsys):
        """The SWIM churn soak end to end, shrunk to CI-test size."""
        assert main(["gossip", "--servers", "32", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS  crash: every victim confirmed DEAD" in out
        assert "FAIL" not in out

    def test_run_stripes_small(self, capsys):
        """The stripe-packing soak end to end, shrunk to CI-test size."""
        assert main(
            ["stripes", "--quick", "--objects", "120", "--duration", "0.25",
             "--seeds", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "PASS  stripes.durability" in out
        assert "FAIL" not in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize(
        "soak", ["chaos", "scale", "scrub", "stripes", "overload"]
    )
    def test_unknown_fault_profile_exits_2(self, soak, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([soak, "--quick", "--fault-profile", "bogus"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--fault-profile" in message and "bogus" in message

    @pytest.mark.parametrize("seeds", ["1,x", ","])
    def test_malformed_seed_list_exits_2(self, seeds, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--seeds", seeds])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--seeds" in message

    def test_case_insensitive(self, capsys):
        assert main(["FIG4"]) == 0
        assert "rs_van" in capsys.readouterr().out
