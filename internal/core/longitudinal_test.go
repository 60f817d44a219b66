package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simrand"
	"repro/internal/testutil"
)

// longitudinalConfig is the compact multi-epoch study the longitudinal
// tests share: small enough that a 4-epoch matrix stays cheap, large
// enough that churn, lagged intel and campaign phases all have bite.
func longitudinalConfig(seed uint64, workers int) StudyConfig {
	cfg := DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Scale = 1200
	cfg.Workers = workers
	cfg.Epochs = 3
	cfg.ChurnFrac = 0.3
	cfg.BlacklistLag = 2
	return cfg
}

// TestCheckpointHashRefusesLongitudinalMismatch is the satellite-3
// regression test: a checkpoint taken under one longitudinal
// configuration must refuse to resume under different -epochs, -epoch,
// -churn, -blacklist-lag or -blacklist-decay settings. Before the config
// hash covered those fields, every mutation below validated cleanly and
// a resume would silently fold records from a DIFFERENT universe into
// the restored accumulator.
func TestCheckpointHashRefusesLongitudinalMismatch(t *testing.T) {
	base := longitudinalConfig(7, 1)
	base.Epochs = 4
	base.Epoch = 1
	base.BlacklistDecay = 0.1
	ck := &Checkpoint{Seed: base.Seed, ConfigHash: base.checkpointHash(), kind: ckptAnalysis}
	if err := ck.Validate(base); err != nil {
		t.Fatalf("checkpoint does not validate against its own config: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*StudyConfig)
	}{
		{"epochs", func(c *StudyConfig) { c.Epochs = 2 }},
		{"epoch", func(c *StudyConfig) { c.Epoch = 2 }},
		{"churn", func(c *StudyConfig) { c.ChurnFrac = 0.31 }},
		{"blacklist-lag", func(c *StudyConfig) { c.BlacklistLag = 1 }},
		{"blacklist-decay", func(c *StudyConfig) { c.BlacklistDecay = 0.2 }},
	}
	for _, m := range mutations {
		cfg := base
		m.mut(&cfg)
		if err := ck.Validate(cfg); err == nil {
			t.Errorf("checkpoint accepted a run with mismatched %s", m.name)
		}
	}

	// "-epochs 1" and "no longitudinal flags at all" are the same run and
	// must resume into each other.
	a, b := DefaultStudyConfig(), DefaultStudyConfig()
	b.Epochs = 1
	if a.checkpointHash() != b.checkpointHash() {
		t.Error("Epochs 0 and Epochs 1 hash differently — classic checkpoints would refuse -epochs 1 resumes")
	}
}

// TestEpochDeltaCodecRoundTrip locks the kind-4 codec: encode/decode is
// a fixpoint, files survive the disk trip, and ValidateDelta enforces
// seed, epoch-index and producer-config provenance.
func TestEpochDeltaCodecRoundTrip(t *testing.T) {
	cfg := longitudinalConfig(5, 1)
	producer := cfg
	producer.Epoch = 1
	d := &EpochDelta{
		Epoch:        1,
		IntelHash:    0xfeedbeef,
		ChangedHosts: []string{"b.example", "a.example"}, // encoder sorts
		Verdicts: []DeltaVerdict{
			{Key: "http://z.example/\x001234", Malicious: true, Category: "Blacklisted domains"},
			{Key: "http://a.example/\x00abcd", Malicious: false},
		},
	}
	path := filepath.Join(t.TempDir(), "epoch001.slumdelta")
	if err := WriteEpochDelta(path, producer, d); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.KindName() != "epoch-delta" {
		t.Fatalf("kind = %s", ck.KindName())
	}

	consumer := cfg
	consumer.Epoch = 2
	got, err := ck.ValidateDelta(consumer)
	if err != nil {
		t.Fatalf("delta refused by its own consumer config: %v", err)
	}
	if got.Epoch != 1 || got.IntelHash != 0xfeedbeef {
		t.Fatalf("decoded header = %+v", got)
	}
	if !reflect.DeepEqual(got.ChangedHosts, []string{"a.example", "b.example"}) {
		t.Fatalf("changed hosts = %v", got.ChangedHosts)
	}
	if len(got.Verdicts) != 2 || got.Verdicts[0].Key >= got.Verdicts[1].Key {
		t.Fatalf("verdicts not sorted: %+v", got.Verdicts)
	}

	refusals := []struct {
		name string
		mut  func(*StudyConfig)
	}{
		{"seed", func(c *StudyConfig) { c.Seed = 6 }},
		{"epoch gap", func(c *StudyConfig) { c.Epoch = 3 }},
		{"epoch zero", func(c *StudyConfig) { c.Epoch = 0 }},
		{"blacklist lag", func(c *StudyConfig) { c.BlacklistLag = 1 }},
		{"churn", func(c *StudyConfig) { c.ChurnFrac = 0.5 }},
		{"scale", func(c *StudyConfig) { c.Scale = 1100 }},
	}
	for _, r := range refusals {
		bad := consumer
		r.mut(&bad)
		if _, err := ck.ValidateDelta(bad); err == nil {
			t.Errorf("delta accepted under mismatched %s", r.name)
		}
	}

	// A non-delta checkpoint must be rejected by kind, not crash.
	ack := &Checkpoint{kind: ckptAnalysis}
	if _, err := ack.ValidateDelta(consumer); err == nil {
		t.Error("analysis checkpoint accepted as an epoch delta")
	}
}

// TestDeltaModeMatchesFullRecrawl is the tentpole acceptance test: a
// multi-epoch study run in delta mode (each epoch preloading the prior
// epoch's verdicts) produces per-epoch Analyses deeply equal — cache
// stats included, thanks to seeded-miss mirroring — to the same study
// re-crawling and re-scanning everything. The metrics assert the run is
// non-vacuous: inside the lag window the intel layer is stable, so
// verdicts really are carried across epochs.
func TestDeltaModeMatchesFullRecrawl(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := longitudinalConfig(4, 4)
	full, err := RunLongitudinalStudy(cfg, LongitudinalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mcfg := cfg
	mcfg.Metrics = reg
	delta, err := RunLongitudinalStudy(mcfg, LongitudinalOptions{DeltaDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Epochs) != len(full.Epochs) {
		t.Fatalf("delta run spans %d epochs, full run %d", len(delta.Epochs), len(full.Epochs))
	}
	for i := range full.Epochs {
		if !reflect.DeepEqual(full.Epochs[i], delta.Epochs[i]) {
			t.Errorf("epoch %d: delta-mode outcome differs from full re-crawl", i)
		}
	}
	if n := reg.Counter("stream.delta.preloaded").Value(); n == 0 {
		t.Error("delta mode never preloaded a verdict — the incremental path is vacuous")
	}

	// With per-epoch decay the intel layer shifts every epoch: preloads
	// must be refused by the fingerprint gate, and the output must STILL
	// match a full re-crawl (the fallback is slow, never wrong).
	dcfg := cfg
	dcfg.BlacklistDecay = 0.4
	dcfg.BlacklistLag = 1
	dfull, err := RunLongitudinalStudy(dcfg, LongitudinalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dreg := obs.NewRegistry()
	dmcfg := dcfg
	dmcfg.Metrics = dreg
	ddelta, err := RunLongitudinalStudy(dmcfg, LongitudinalOptions{DeltaDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dfull.Epochs {
		if !reflect.DeepEqual(dfull.Epochs[i], ddelta.Epochs[i]) {
			t.Errorf("decayed epoch %d: delta-mode outcome differs from full re-crawl", i)
		}
	}
	if n := dreg.Counter("stream.delta.skipped_intel_shift").Value(); n == 0 {
		t.Error("intel gate never fired under per-epoch decay — unsound preloads would go unnoticed")
	}
}

// TestLongitudinalBudgetBoundaryAbort pins the abort-budget boundary
// contract. Before the fix, a study-wide budget exhausted exactly at an
// epoch boundary still constructed the next epoch and handed it
// AbortAfter=1 (the old `remaining <= 0 → 1` clamp) — and a budget equal
// to one epoch's steps even aborted INSIDE that epoch after its final
// record. Now: the epoch that exactly exhausts the budget completes
// normally and the runner aborts at the boundary before building the
// next epoch's study; a budget covering the whole study never aborts.
func TestLongitudinalBudgetBoundaryAbort(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := longitudinalConfig(6, 2)
	cfg.Epochs = 2
	base, err := RunLongitudinalStudy(cfg, LongitudinalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	steps0 := base.Epochs[0].Analysis.TotalCrawled
	total := steps0 + base.Epochs[1].Analysis.TotalCrawled

	reg := obs.NewRegistry()
	mcfg := cfg
	mcfg.Metrics = reg
	res, err := RunLongitudinalStudy(mcfg, LongitudinalOptions{Stream: StreamOptions{AbortAfter: steps0}})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("boundary-exhausted budget: got %v, want ErrAborted", err)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("boundary abort kept %d epochs, want exactly the 1 completed one", len(res.Epochs))
	}
	if !reflect.DeepEqual(res.Epochs[0].Analysis, base.Epochs[0].Analysis) {
		t.Error("the budget-exhausting epoch was truncated; it must complete untouched")
	}
	if n := reg.Counter("pipeline.records").Value(); n != int64(steps0) {
		t.Errorf("folded %d records under a %d budget — the boundary abort leaked folds into the next epoch", n, steps0)
	}
	if n := reg.Counter("study.universe.advanced").Value(); n != 0 {
		t.Errorf("built %d next-epoch universes past an exhausted budget", n)
	}

	// A budget equal to the whole study is no abort at all.
	full, err := RunLongitudinalStudy(cfg, LongitudinalOptions{Stream: StreamOptions{AbortAfter: total}})
	if err != nil {
		t.Fatalf("study-sized budget: %v", err)
	}
	if len(full.Epochs) != 2 {
		t.Fatalf("study-sized budget completed %d epochs, want 2", len(full.Epochs))
	}
}

// TestLongitudinalIncrementalInvariance pins the incremental fast path
// three ways: (1) per-epoch outcomes are deeply equal to a SerialRebuild
// run (from-scratch universes, no pipelining, disk-only deltas); (2) the
// render-memo and universe-advance counters are schedule-invariant
// across worker counts; (3) the fast path is non-vacuous — universes
// advance instead of regenerating, and cross-epoch render reuse strictly
// beats the rebuild path's hit/miss split.
func TestLongitudinalIncrementalInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	watched := []string{
		"web.render.hits", "web.render.misses", "web.render.uncached", "web.render.retired",
		"study.universe.advanced", "study.universe.advance_fallback",
	}
	run := func(workers int, serial bool) (*LongitudinalResult, map[string]int64) {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := longitudinalConfig(8, workers)
		cfg.Metrics = reg
		res, err := RunLongitudinalStudy(cfg, LongitudinalOptions{DeltaDir: t.TempDir(), SerialRebuild: serial})
		if err != nil {
			t.Fatalf("workers=%d serial=%v: %v", workers, serial, err)
		}
		vals := map[string]int64{}
		for _, c := range watched {
			vals[c] = reg.Counter(c).Value()
		}
		return res, vals
	}
	fast1, cFast1 := run(1, false)
	fast8, cFast8 := run(8, false)
	slow1, cSlow1 := run(1, true)

	for i := range fast1.Epochs {
		if !reflect.DeepEqual(fast1.Epochs[i], slow1.Epochs[i]) {
			t.Errorf("epoch %d: incremental outcome differs from serial rebuild", i)
		}
		if !reflect.DeepEqual(fast1.Epochs[i], fast8.Epochs[i]) {
			t.Errorf("epoch %d: incremental outcome differs across worker counts", i)
		}
	}
	if !reflect.DeepEqual(cFast1, cFast8) {
		t.Errorf("render/advance counters are schedule-dependent:\nworkers=1: %v\nworkers=8: %v", cFast1, cFast8)
	}
	epochs := int64(len(fast1.Epochs))
	if cFast1["study.universe.advanced"] != epochs-1 || cFast1["study.universe.advance_fallback"] != 0 {
		t.Errorf("fast path advanced %d universes (fallback %d), want %d (0)",
			cFast1["study.universe.advanced"], cFast1["study.universe.advance_fallback"], epochs-1)
	}
	if cSlow1["study.universe.advanced"] != 0 {
		t.Errorf("serial rebuild advanced %d universes, want 0", cSlow1["study.universe.advanced"])
	}
	if cFast1["web.render.uncached"] != 0 || cSlow1["web.render.uncached"] != 0 {
		t.Fatalf("render caches hit capacity (uncached fast=%d slow=%d) — hit/miss splits are no longer exact",
			cFast1["web.render.uncached"], cSlow1["web.render.uncached"])
	}
	if cFast1["web.render.misses"] == 0 {
		t.Error("no render misses at all — the counters are disconnected")
	}
	if cFast1["web.render.misses"] >= cSlow1["web.render.misses"] {
		t.Errorf("incremental path rendered %d pages, serial rebuild %d — cross-epoch reuse is vacuous",
			cFast1["web.render.misses"], cSlow1["web.render.misses"])
	}
	if cFast1["web.render.retired"] == 0 {
		t.Error("no render caches retired despite churn — the retain pass is vacuous")
	}
}

// TestLongitudinalSeriesAndRates sanity-checks the cross-epoch report
// inputs: concatenated per-exchange series are monotone with the right
// total, and the per-epoch malice-rate series has one point per epoch.
func TestLongitudinalSeriesAndRates(t *testing.T) {
	cfg := longitudinalConfig(9, 2)
	cfg.Epochs = 2
	res, err := RunLongitudinalStudy(cfg, LongitudinalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rates := res.MaliceRates(); len(rates) != 2 {
		t.Fatalf("malice rates = %v, want 2 points", rates)
	}
	name := res.Epochs[0].Analysis.PerExchange[0].Name
	s := res.ExchangeSeries(name)
	wantLen := res.Epochs[0].Analysis.Series[name].Len() + res.Epochs[1].Analysis.Series[name].Len()
	if s.Len() != wantLen {
		t.Fatalf("concat series length %d, want %d", s.Len(), wantLen)
	}
	wantFinal := res.Epochs[0].Analysis.Series[name].Final() + res.Epochs[1].Analysis.Series[name].Final()
	if s.Final() != wantFinal {
		t.Fatalf("concat series final %d, want %d", s.Final(), wantFinal)
	}
}

// TestLongitudinalKillResumeMatrix is the epoch-invariance acceptance
// matrix: for epochs {1, 2, 4}, two (seed, workers) rigs and a
// randomized kill point, aborting a checkpointed longitudinal run and
// re-launching it yields per-epoch Analyses identical to the
// uninterrupted study's (minus the resumed epoch's cache traffic, which
// a resumed run legitimately under-reports).
func TestLongitudinalKillResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume matrix is expensive; run without -short")
	}
	testutil.VerifyNoLeaks(t)
	cut := simrand.New(0x10e6).Sub("kill")
	for _, epochs := range []int{1, 2, 4} {
		for _, rig := range []struct {
			seed    uint64
			workers int
		}{{3, 8}, {11, 1}} {
			cfg := longitudinalConfig(rig.seed, rig.workers)
			cfg.Epochs = epochs
			cfg.ChurnFrac = 0.25
			cfg.BlacklistLag = 1
			want, err := RunLongitudinalStudy(cfg, LongitudinalOptions{})
			if err != nil {
				t.Fatalf("epochs=%d seed=%d: baseline: %v", epochs, rig.seed, err)
			}
			total := 0
			for _, e := range want.Epochs {
				total += e.Analysis.TotalCrawled
			}

			ckpt := filepath.Join(t.TempDir(), "study.ckpt")
			kill := 1 + cut.Intn(total-1)
			_, err = RunLongitudinalStudy(cfg, LongitudinalOptions{Stream: StreamOptions{
				CheckpointPath: ckpt, CheckpointEvery: 100, AbortAfter: kill,
			}})
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("epochs=%d seed=%d kill=%d: got %v, want ErrAborted", epochs, rig.seed, kill, err)
			}
			got, err := RunLongitudinalStudy(cfg, LongitudinalOptions{Stream: StreamOptions{
				CheckpointPath: ckpt, CheckpointEvery: 100,
			}})
			if err != nil {
				t.Fatalf("epochs=%d seed=%d kill=%d: resumed run: %v", epochs, rig.seed, kill, err)
			}
			if len(got.Epochs) != len(want.Epochs) {
				t.Fatalf("resumed run spans %d epochs, want %d", len(got.Epochs), len(want.Epochs))
			}
			for i := range want.Epochs {
				w, g := want.Epochs[i], got.Epochs[i]
				w.Analysis, g.Analysis = stripCacheStats(w.Analysis), stripCacheStats(g.Analysis)
				if !reflect.DeepEqual(w, g) {
					t.Errorf("epochs=%d seed=%d workers=%d kill=%d: epoch %d differs after kill/resume",
						epochs, rig.seed, rig.workers, kill, i)
				}
			}
		}
	}
}
