"""Unit tests for the totem-check CLI surface (repro.check.cli).

Exit-code contract: 0 = clean, 1 = violations found, 2 = malformed
arguments (argparse usage error).  ``explore`` runs are covered by
tests/integration/test_explore.py.
"""

import pytest

from repro.check import INVARIANTS, cli


class TestExitCodes:
    def test_rules_exits_zero(self, capsys):
        assert cli.main(["rules"]) == 0
        assert "A1" in capsys.readouterr().out

    def test_rules_lists_full_catalogue(self, capsys):
        assert cli.main(["rules"]) == 0
        out = capsys.readouterr().out
        for name, (requirement, _) in INVARIANTS.items():
            assert name in out
            assert requirement in out

    @pytest.mark.parametrize("argv", [
        ["explore", "--nodes", "0"],
        ["explore", "--nodes", "-2"],
        ["explore", "--nodes", "three"],
        ["explore", "--networks", "0"],
        ["explore", "--max-msgs", "-1"],
        ["explore", "--horizon", "0"],
        ["explore", "--settle", "-0.5"],
        ["explore", "--budget", "0"],
        ["explore", "--style", "quantum"],
    ])
    def test_malformed_arguments_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan"])
        assert exc.value.code == 2
