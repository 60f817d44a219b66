package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/har"
)

// crawl crawls cfg's study into memory, the way slumcrawl does.
func crawl(t *testing.T, cfg core.StudyConfig) []*crawler.Crawl {
	t.Helper()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crawls, err := st.Crawl()
	if err != nil {
		t.Fatal(err)
	}
	return crawls
}

// writeDataset writes cfg's crawl to path as a JSONL dataset.
func writeDataset(t *testing.T, path string, cfg core.StudyConfig) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteDataset(f, crawl(t, cfg)); err != nil {
		t.Fatal(err)
	}
}

// seed4Config is the study the dataset tests crawl.
func seed4Config() core.StudyConfig {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 4
	cfg.Scale = 900
	return cfg
}

func TestScanDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	writeDataset(t, path, seed4Config())
	if err := run([]string{"-in", path, "-scale", "900", "-seed", "4", "-table", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestScanMissingFile(t *testing.T) {
	if err := run([]string{"-in", "/no/such/file.jsonl"}, io.Discard); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestScanCorruptDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.jsonl")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-scale", "900"}, io.Discard); err == nil {
		t.Fatal("corrupt dataset accepted")
	}
}

func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stderr = null
		os.Stdout = null
	}
	os.Exit(m.Run())
}

func TestScanFromHARArchives(t *testing.T) {
	dir := t.TempDir()
	harDir := filepath.Join(dir, "hars")
	if err := os.MkdirAll(harDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range crawl(t, seed4Config()) {
		if c.HAR == nil {
			t.Fatal("study crawl missing HAR")
		}
		name := filepath.Join(harDir, harFileName(c.Exchange))
		f, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := har.Encode(f, c.HAR); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := run([]string{"-hardir", harDir, "-scale", "900", "-seed", "4", "-table", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Empty dir must error.
	if err := run([]string{"-hardir", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("empty HAR dir accepted")
	}
}

func harFileName(exchangeName string) string {
	out := ""
	for _, r := range exchangeName {
		switch {
		case r == ' ':
			out += "-"
		case r >= 'A' && r <= 'Z':
			out += string(r - 'A' + 'a')
		default:
			out += string(r)
		}
	}
	return out + ".har"
}

// TestScanMatchesStudy is the cross-path oracle: slumscan's report over a
// dataset crawled into memory (Study.Crawl, as slumcrawl writes it) must
// match the report of a live RunStudy at the same seed and scale, byte
// for byte, in every section but Table IV. Table IV's hit counters live
// in the crawling process's shortener registry, which slumscan rebuilds
// without the crawl's traffic.
func TestScanMatchesStudy(t *testing.T) {
	for _, profile := range []string{"off", "flaky"} {
		cfg := seed4Config()
		cfg.FaultProfile = profile
		path := filepath.Join(t.TempDir(), "ds.jsonl")
		writeDataset(t, path, cfg)
		var got bytes.Buffer
		if err := run([]string{"-in", path, "-scale", "900", "-seed", "4"}, &got); err != nil {
			t.Fatal(err)
		}

		st, err := core.RunStudy(cfg, core.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after strings.Builder
		seen := false
		for _, s := range sections(st.Analysis, st.Universe.Shorteners) {
			switch {
			case s.table == 4:
				seen = true
			case seen:
				after.WriteString(s.render() + "\n")
			default:
				before.WriteString(s.render() + "\n")
			}
		}
		out := got.String()
		if !strings.HasPrefix(out, before.String()) || !strings.HasSuffix(out, after.String()) ||
			len(out) < before.Len()+after.Len() {
			t.Fatalf("profile %s: slumscan report over the crawled dataset differs from RunStudy's outside Table IV\n--- slumscan\n%s\n--- RunStudy (Table IV omitted)\n%s%s",
				profile, out, before.String(), after.String())
		}
		if table4 := out[before.Len() : len(out)-after.Len()]; !strings.HasPrefix(table4, "TABLE IV:") {
			t.Errorf("profile %s: the section between the matching ones is not Table IV:\n%s", profile, table4)
		}
	}
}
