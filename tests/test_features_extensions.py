"""Tests for the Section 7 "lessons learned" extensions, the
program-level assembler, and the CLI."""

import pytest

from repro.pipeline import Pipeline
from repro.isa import AsmError, format_program, parse_program
from repro.trips import run_trips
from repro.uarch import TripsConfig, run_cycles


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline()


class TestPredicatePrediction:
    def test_correctness_preserved(self, pipeline):
        lowered = pipeline.trips_lowered("a2time")
        config = TripsConfig()
        config.predicate_prediction = True
        result, _ = run_cycles(lowered, config=config)
        assert result == pipeline.expected("a2time")

    def test_helps_predicated_code(self, pipeline):
        lowered = pipeline.trips_lowered("a2time")
        _, base = run_cycles(lowered)
        config = TripsConfig()
        config.predicate_prediction = True
        _, pred = run_cycles(lowered, config=config)
        assert pred.stats.cycles <= base.stats.cycles
        assert pred.stats.predicate_predictions > 0

    def test_mispredictions_counted(self, pipeline):
        # Data-dependent predicates must miss at least sometimes.
        lowered = pipeline.trips_lowered("8b10b")
        config = TripsConfig()
        config.predicate_prediction = True
        result, sim = run_cycles(lowered, config=config)
        assert result == pipeline.expected("8b10b")
        assert sim.stats.predicate_mispredictions > 0

    def test_disabled_by_default(self, pipeline):
        stats = pipeline.trips_cycles("a2time").stats
        assert stats.predicate_predictions == 0


class TestVariableSizeBlocks:
    def test_correctness_preserved(self, pipeline):
        lowered = pipeline.trips_lowered("crc")
        config = TripsConfig()
        config.variable_size_blocks = True
        result, _ = run_cycles(lowered, config=config)
        assert result == pipeline.expected("crc")

    def test_reduces_icache_pressure(self, pipeline):
        lowered = pipeline.trips_lowered("perlbmk")
        _, fixed = run_cycles(lowered)
        config = TripsConfig()
        config.variable_size_blocks = True
        _, variable = run_cycles(lowered, config=config)
        assert variable.stats.icache_misses <= fixed.stats.icache_misses


class TestProgramAssembler:
    def test_round_trip(self, pipeline):
        lowered = pipeline.trips_lowered("rspeed")
        text = format_program(lowered.program)
        reparsed = parse_program(text)
        assert format_program(reparsed) == text

    def test_reparsed_program_executes(self, pipeline):
        lowered = pipeline.trips_lowered("crc")
        reparsed = parse_program(format_program(lowered.program))
        reparsed.globals_image = lowered.program.globals_image
        result, _ = run_trips(reparsed)
        assert result == pipeline.expected("crc")

    def test_errors(self):
        with pytest.raises(AsmError):
            parse_program("block orphan\nend")
        with pytest.raises(AsmError):
            parse_program("func @f entry=a\nblock a\n  i0: ret\nend")
        with pytest.raises(AsmError):
            parse_program("func @f entry=missing\nendfunc")

    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment
        func @main entry=only params=0

        block only
          # inner comment
          i0: geni 7 -> w0
          i1: ret
          w0: write G3
        end
        endfunc
        """
        program = parse_program(text)
        result, _ = run_trips(program)
        assert result == 7


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spec_int" in out and "vadd" in out

    def test_run_interp(self, capsys):
        from repro.__main__ import main
        assert main(["run", "rspeed", "--system", "interp"]) == 0
        out = capsys.readouterr().out
        assert "golden checksum" in out

    def test_run_risc(self, capsys):
        from repro.__main__ import main
        assert main(["run", "crc", "--system", "risc"]) == 0
        assert "instructions" in capsys.readouterr().out

    def test_report_list(self, capsys):
        from repro.__main__ import main
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table3" in out

    def test_report_table2(self, capsys):
        from repro.__main__ import main
        assert main(["report", "table2"]) == 0
        assert "kernels" in capsys.readouterr().out

    def test_asm_block(self, capsys):
        from repro.__main__ import main
        assert main(["asm", "rspeed", "--block", "entry"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("block entry")

    def test_asm_unknown_block(self, capsys):
        from repro.__main__ import main
        assert main(["asm", "rspeed", "--block", "nope"]) == 2


class TestComposableGrid:
    @pytest.mark.parametrize("grid", [2, 4, 8])
    def test_correctness_across_grids(self, pipeline, grid):
        from repro.opt import optimize
        from repro.trips import lower_module
        module = optimize(pipeline.module("crc"), "O2")
        lowered = lower_module(module, grid=grid)
        result, sim = run_cycles(lowered)
        assert result == pipeline.expected("crc")
        # The machine is the array the program was placed on.
        assert sim.topology.grid == grid

    def test_smaller_grid_has_fewer_hops(self, pipeline):
        from repro.opt import optimize
        from repro.trips import lower_module
        module = optimize(pipeline.module("fft"), "O2")
        results = {}
        for grid in (2, 8):
            lowered = lower_module(module, grid=grid)
            _, sim = run_cycles(lowered)
            results[grid] = sim.opn.stats.average_hops()
        assert results[2] < results[8]

    def test_placement_respects_grid_bounds(self, pipeline):
        from repro.trips import place_block
        lowered = pipeline.trips_lowered("crc")
        block = max(lowered.program.all_blocks(),
                    key=lambda b: len(b.instructions))
        for grid in (2, 4, 8):
            placement = place_block(block, "sps", grid=grid)
            assert all(0 <= t < grid * grid
                       for t in placement.tiles.values())
