.PHONY: build test lint cram check check-smoke bench metrics-smoke perfbench-build profile clean

build:
	dune build

test:
	dune runtest

# Source hygiene.  The build image has no ocamlformat, so the lint is
# the closest equivalent: `dune build @check` typechecks every module
# (including ones no executable pulls in), and a grep rejects trailing
# whitespace and tab indentation in OCaml sources.  A second grep
# rejects catch-all exception handlers (`with _ ->`) outside test/:
# they swallow Out_of_memory and Stack_overflow and have twice hidden
# real parse bugs.  A deliberate catch-all must carry the annotation
# `(* lint: allow-catch-all *)` on the same line.
lint:
	dune build @check
	@if grep -rnI --include='*.ml' --include='*.mli' -e ' $$' -e '	' \
	  lib bin test examples bench tools; then \
	  echo "lint: trailing whitespace / tab indentation found"; exit 1; \
	else echo "lint: clean"; fi
	@if grep -rnI --include='*.ml' 'with _ ->' lib bin examples bench tools \
	  | grep -v 'lint: allow-catch-all'; then \
	  echo "lint: catch-all handler; name the exception or annotate" \
	    "with (* lint: allow-catch-all *)"; exit 1; \
	else echo "lint: no catch-all handlers"; fi

# The session/mutation cram tests, re-run even when dune's cache is
# warm: these pin the CLI surface of stable link ids (stale-id updates
# are script errors) and the warm-replan output format.
cram:
	dune test --force test/cli.t

# One-stop verification: lint, build, the full test suite (unit +
# property + cram, including the exact pin of the Table 2 search
# counters), an explicit uncached run of the session/mutation cram, the
# static-analysis smoke, the metrics smoke, and a build of the perfbench
# benchmark against the current lib/.
check:
	$(MAKE) lint
	dune build
	dune runtest
	$(MAKE) cram
	$(MAKE) check-smoke
	$(MAKE) metrics-smoke
	$(MAKE) perfbench-build

# Benchmark build guard: perfbench/run.py mirrors lib/ into .bench_build/
# and builds the benchmark there in release mode.  Run with no arguments
# it builds, then stops on the usage error (exit 2); exit 3 means the
# build failed.  Catches a lib/ change that breaks the benchmark's build.
perfbench-build:
	@out=$$(python3 perfbench/run.py 2>&1 >/dev/null); rc=$$?; \
	if [ $$rc -eq 2 ]; then echo "perfbench-build: ok"; \
	else echo "$$out"; \
	  echo "perfbench-build: run.py exited $$rc, expected 2 (3 = build failed)"; \
	  exit 1; fi

# Static-analysis smoke: `sekitei check` must accept every shipped
# feasible spec and prove the capacity-starved diamond infeasible
# (exit 2) without ever running the RG search.  Guards both directions
# of the preflight analyzer: a grounding change that kills a feasible
# spec, or one that loses the infeasibility proof, fails here.
check-smoke:
	dune build bin
	@for spec in examples/specs/*.spec; do \
	  case $$spec in \
	  *infeasible*) \
	    dune exec -- sekitei check --spec $$spec > /dev/null 2>&1; \
	    test $$? -eq 2 || \
	      { echo "check-smoke: $$spec: expected infeasibility (exit 2)"; \
	        exit 1; }; \
	    echo "check-smoke: $$spec proven infeasible";; \
	  *) \
	    dune exec -- sekitei check --spec $$spec > /dev/null || \
	      { echo "check-smoke: $$spec: expected a clean report"; exit 1; }; \
	    echo "check-smoke: $$spec clean";; \
	  esac; \
	done

# Observability smoke: plan Small-C through the metrics subcommand and
# schema-validate both exposition formats (--check exits 3 on a schema
# violation), check that a traced plan and the exposition report the
# same deterministic search counters (one counter table feeds both), then
# force a deadline failure with the flight recorder armed and assert the
# dump is written and readable.  Guards the
# always-on metrics path end to end: an encoder change that would break
# a scraper or the postmortem tooling fails here, not on a dashboard.
metrics-smoke:
	dune build bin tools
	dune exec -- sekitei metrics --network small --levels C --repeat 2 \
	  --check > /dev/null
	dune exec -- sekitei metrics --network small --levels C --format json \
	  --check > /dev/null
	dune exec -- sekitei plan --network small --levels C \
	  --trace /tmp/sekitei_agree_trace.jsonl > /dev/null
	dune exec -- sekitei metrics --network small --levels C \
	  > /tmp/sekitei_agree_metrics.txt
	@for pair in rg.created:rg_created rg.replay_pruned:rg_replay_pruned \
	  rg.duplicates:rg_duplicates slrg.cache_hits:slrg_cache_hits \
	  slrg.queries:slrg_queries; do \
	  t=$${pair%%:*}; m=$${pair##*:}; \
	  tv=$$(grep "\"name\": \"$$t\"" /tmp/sekitei_agree_trace.jsonl | tail -1 \
	    | sed 's/.*"total": \([0-9]*\).*/\1/'); \
	  mv=$$(awk -v m=$$m '$$1 == m { print $$2 }' /tmp/sekitei_agree_metrics.txt); \
	  if [ -z "$$tv" ] || [ "$$tv" != "$$mv" ]; then \
	    echo "metrics-smoke: trace $$t=$$tv but exposition $$m=$$mv"; exit 1; \
	  fi; \
	  echo "metrics-smoke: $$t = $$m = $$tv"; \
	done
	@rm -f /tmp/sekitei_flight_smoke.jsonl
	-dune exec -- sekitei plan --network small --levels C --deadline 0 \
	  --flight /tmp/sekitei_flight_smoke.jsonl > /dev/null 2>&1
	@test -s /tmp/sekitei_flight_smoke.jsonl || \
	  { echo "metrics-smoke: no flight dump written"; exit 1; }
	@dune exec -- tools/trace_report.exe /tmp/sekitei_flight_smoke.jsonl \
	  | grep -q "flight-recorder dump" || \
	  { echo "metrics-smoke: trace_report cannot read the dump"; exit 1; }
	@echo "metrics-smoke: ok"

# Full benchmark run: every paper exhibit, ablations, microbenchmarks.
bench:
	dune exec bench/main.exe

# Profile the Small-C run: trace every planner phase to JSONL and render
# the span tree / counter summary.
profile:
	dune build bin tools
	dune exec -- sekitei plan --network small --levels C \
	  --trace /tmp/sekitei_profile.jsonl > /dev/null
	dune exec -- tools/trace_report.exe /tmp/sekitei_profile.jsonl

clean:
	dune clean
