# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# steps. `make check` is the pre-push gate.

GO ?= go

.PHONY: build vet test race lint lint-json lint-only lint-fixtures lint-suppressions lint-inventory fuzz-smoke perfbench bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# wearlint walks the module and reports determinism/concurrency
# violations; see DESIGN.md "Static analysis". -json-out writes the
# byte-stable JSON artifact from the same load+typecheck, which is how
# CI gets both outputs from one run.
lint:
	$(GO) run ./cmd/wearlint -json-out wearlint.json ./...

# Same findings as machine-readable JSON on stdout; byte-stable across
# runs.
lint-json:
	$(GO) run ./cmd/wearlint -format json ./...

# Fast single-check iteration while tuning one analyzer:
#   make lint-only CHECK=randsplit
#   make lint-only CHECK=allochot,sinkretain
lint-only:
	$(GO) run ./cmd/wearlint -checks $(CHECK) ./...

# The analyzer golden-fixture suite alone: fixture rot fails here with a
# named target before the full test run.
lint-fixtures:
	$(GO) test ./internal/analysis -run 'TestGolden|TestLoadTree'

# Regenerate the committed //wearlint:ignore inventory. CI (and
# TestSuppressionInventory) diff a fresh scan against the committed file,
# so every new suppression — or silently edited justification — lands as
# a reviewed change to LINT_SUPPRESSIONS.json, run this after adding one.
lint-suppressions:
	$(GO) run ./cmd/wearlint -suppressions > LINT_SUPPRESSIONS.json

# CI's suppression-inventory gate: a fresh scan must match the committed
# LINT_SUPPRESSIONS.json byte for byte.
lint-inventory:
	$(GO) run ./cmd/wearlint -suppressions | diff -u LINT_SUPPRESSIONS.json -

# Run the native fuzz targets over their seed corpus only (no mutation):
# the mme/proxylog codec fuzzers, the collection-path parsers (httplog
# FuzzReadHead, sni FuzzReadClientHello), the nearest-sector index against
# its brute-force oracle (cells FuzzNearest), the wearlint suppression
# grammar (FuzzIgnoreDirective, FuzzSuppressionInventory), and the randx
# Split derivation (FuzzSplitLabel).
fuzz-smoke:
	$(GO) test -run='^Fuzz' ./internal/mnet/... ./internal/analysis ./internal/randx

# The benchmark (_perfbench) is its own module outside ./..., so build,
# vet and test above never compile it. It calls the public API and the
# codec ReadFile/WriteFile, so an API change that breaks it fails here.
perfbench:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

# Small-scale end-to-end benchmark: emits BENCH.json (timings, allocs,
# study peak heap, sequential-vs-parallel determinism cross-check) and
# fails when a phase timing — or study peak heap, the bounded-memory
# contract of DESIGN.md §8 — regressed more than 2x against a committed
# baseline. The repo commits
# one BENCH_PR<n>.json per PR; the glob picks the best-matching report
# (same -small flag, closest NumCPU/GOMAXPROCS to this host). The
# parallel-speedup floor is skipped on single-CPU hosts and the skip is
# recorded in the JSON.
bench-smoke:
	$(GO) run ./cmd/wearbench -small -bench-json -bench-baseline 'BENCH_*.json' -o BENCH.json
	@cat BENCH.json

check: build vet lint lint-fixtures lint-inventory race fuzz-smoke perfbench
