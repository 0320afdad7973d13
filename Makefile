# Developer entry points. `make ci` is the gate a change must pass.

GO ?= go

.PHONY: build vet staticcheck test race bench benchdiff fuzz verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short ci

build:
	$(GO) build ./...

# vet also fails when any Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# staticcheck is optional tooling: run it when the host has it, stay
# green when it does not (CI images do not install it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# The packages where concurrency now exists (the experiments worker
# pool, the shared planner cache, the dispatcher's lock-free switch
# board, the retrying planner client, the control plane's replan
# queue, the fleet's headroom board) or whose invariants those lean on.
race:
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/planner \
		./internal/dispatch ./internal/faults ./internal/plannersvc ./internal/vmm \
		./internal/trace ./internal/core ./internal/journal ./internal/fleet

# Short fuzz smoke over the untrusted-input surfaces (the binary table
# and trace decoders) and the whole generate→run→oracle pipeline. The
# corpora are committed under each package's testdata/fuzz; long local
# runs raise -fuzztime.
fuzz:
	$(GO) test ./internal/table -run '^$$' -fuzz '^FuzzTableDecode$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 10s
	$(GO) test ./internal/verify -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime 10s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime 10s

# Bounded property-based verification: generator determinism, the
# invariant oracles over generated scenarios (-short trims the seed
# counts), metamorphic planner properties, the cross-scheduler
# differential check, and a race pass over the soak fan-out.
verify-short:
	$(GO) test -short ./internal/verify
	$(GO) test -short -race ./internal/verify

# Mutation smoke: seeded scheduler/trace defects (starvation, delayed
# dispatch, phantom records, tampered dumps) must each be flagged by
# the oracle class that claims to catch them, and the four control-
# plane convictions (stale slice reuse, LS-first shed, double
# placement, BE-first evacuation) must each report their specific
# finding while a clean twin stays clean. Every defect is seeded from
# the test side, through seams the production packages already have.
mutation-smoke:
	$(GO) test ./internal/verify -run 'TestMutationSmoke|TestShrinkFindsSmallerRepro' -v

# Churn determinism gate: the churnchaos CSV must be byte-identical
# across runs and -parallel settings, with zero per-transition
# blackout-bound violations, and the churn chapter of the verify
# harness (generator shape, continuity soak, transition wiring) must
# hold under -short.
churn-short:
	$(GO) test ./internal/experiments -run 'TestChurnChaosDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestChurn|TestGenerateChurnShape'

# Crash-recovery gate: the journal codec and crash injector test
# suites, the ~120-scenario quick crash matrix (seeded crash storms →
# recovery-equivalence + crash-seam oracles, zero violations), and the
# crashchaos CSV determinism check (byte-identical across runs and
# -parallel settings).
recover-short:
	$(GO) test ./internal/journal ./internal/faults
	$(GO) test -short ./internal/verify -run 'TestCrash|TestGenerateCrashScenario|TestRunCrash'
	$(GO) test ./internal/experiments -run 'TestCrashChaosDeterminism' -v
	$(GO) test ./internal/core -run 'TestJournal|TestRecover|TestClose|TestAttachJournal|TestEmergencyRollback'

# Fleet placement gate: the arbiter's unit + protocol tests, the
# fleet CSV determinism check (byte-identical across -parallel
# settings, zero oracle violations, nonzero conflict-retry counts),
# and the cross-host continuity oracle soak + double-placement
# conviction under -short.
fleet-short:
	$(GO) test ./internal/fleet
	$(GO) test -short ./internal/experiments -run 'TestFleetDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestCheckFleet|TestMutationSmokeDoublePlace'

# Fleet failure-domain gate: host crash/recover/evacuate unit tests,
# the headroom board's coherence across every failure path, the
# failover CSV determinism check (byte-identical across -parallel
# settings, zero seam-oracle violations, both resolution paths taken),
# and the failure-seam oracle soak + BE-first mutation conviction
# under -short.
failover-short:
	$(GO) test ./internal/fleet -run 'TestHostCrash|TestFailStop|TestArbiterClose|TestArmCrashes|TestBoardCoherence'
	$(GO) test -short ./internal/experiments -run 'TestFailoverDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestFailoverSoak|TestMutationSmokeEvacuateBEFirst'

# Mixed-criticality tenancy gate: the tenancy CSV must be
# byte-identical across runs and -parallel settings (steady cell sheds
# nothing, surge cell sheds BE while LS keeps serving), and the
# class-aware chapters of the verify harness (tenancy continuity soak,
# shed-order mutation conviction) must hold under -short.
tenancy-short:
	$(GO) test ./internal/experiments -run 'TestTenancyDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestTenancyContinuity|TestMutationSmokeShedLSFirst'
	$(GO) test ./internal/workload -run 'TestSLOServer|TestScheduleBursts'

# Full micro-benchmark pass over the hot-path packages.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim ./internal/planner ./internal/table ./internal/dispatch \
		./internal/stats ./internal/netdev ./internal/periodic ./internal/trace \
		./internal/experiments ./internal/core ./internal/fleet

# Quick perf-regression check against the committed BENCH_*.json
# snapshot. Timings on shared/small machines are noisy, so the gate
# tolerance is generous; allocation metrics get only a small
# amortization slack, and a zero-alloc path gaining any alloc fails.
# Regenerate the committed snapshot with: go run ./cmd/benchdiff
# -count 3 keeps the best of three runs on both sides of the compare
# (the committed snapshot is generated the same way), so one slow
# scheduler tick on a tiny nanosecond-scale benchmark doesn't fail
# the gate.
benchdiff:
	$(GO) run ./cmd/benchdiff -count 3 -tolerance 40 -gate \
		-out /tmp/tableau-benchdiff -against $$(ls BENCH_*.json | tail -1)

ci: vet staticcheck build test race verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short fuzz benchdiff
