"""CLI ``--shards`` flag: sharded store streaming; static commands take none."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestShardFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["store"])
        assert args.shards is None
        assert not hasattr(args, "workers")

    @pytest.mark.parametrize("command", ["join", "plan"])
    def test_static_commands_take_no_shard_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--shards", "3"])

    def test_plan_without_shards_is_unsharded(self, capsys):
        assert main(["plan", "--points", "2000", "--regions", "4", "--epsilon", "8"]) == 0
        assert "scatter_gather" not in capsys.readouterr().out

    def test_store_sharded_matches_rebuild(self, capsys):
        code = main(
            [
                "store", "--points", "3000", "--batches", "3",
                "--delete-fraction", "0.1", "--shards", "4",
                "--memtable-capacity", "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "matches from-scratch rebuild  yes" in out
