# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-baseline experiments examples clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis (stablint): fails on any finding not in the committed
# lint-baseline.json (or on stale baseline entries).  Writes the
# machine-readable report and the lint-domains shared-state inventory
# next to it.
lint:
	dune exec bin/lint.exe -- run --json lint-report.json --domains-json lint-domains.json

# Re-absorb the current findings into the baseline.  Use sparingly and
# only with a justification per entry.
lint-baseline:
	dune exec bin/lint.exe -- run --update-baseline

experiments:
	dune exec bin/experiments.exe -- run all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/config_store.exe
	dune exec examples/scoreboard.exe
	dune exec examples/recovery_demo.exe
	dune exec examples/kv_demo.exe

# The final artifacts recorded in the repository.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bin/experiments.exe -- run all 2>&1 | tee experiments_output.txt

clean:
	dune clean
