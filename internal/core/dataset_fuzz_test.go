package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
)

// datasetSeedInputs are JSONL inputs covering ReadDataset's surface: a
// well-formed two-exchange dataset (bodies, redirects, a failed fetch, a
// non-UTC timestamp), an empty file, and malformed lines of each kind the
// decoder can reject. They seed the fuzz target and double as the
// checked-in corpus.
func datasetSeedInputs() [][]byte {
	t0 := time.Date(2016, 1, 2, 3, 4, 5, 0, time.UTC)
	crawls := []*crawler.Crawl{
		{Exchange: "10KHits", Kind: exchange.AutoSurf, Records: []crawler.Record{
			{Exchange: "10KHits", Kind: exchange.AutoSurf, Seq: 0, Timestamp: t0,
				EntryURL: "http://a.sim/", FinalURL: "http://b.sim/x", Redirects: 2, Status: 200,
				ContentType: "text/html", Body: []byte("<html><title>t</title></html>")},
			{Exchange: "10KHits", Kind: exchange.AutoSurf, Seq: 1, Timestamp: t0.Add(time.Second),
				EntryURL: "http://gone.sim/", FetchErr: "no such host", ErrKind: "no-host", Attempts: 3},
		}},
		{Exchange: "Hit2Hit", Kind: exchange.ManualSurf, Records: []crawler.Record{
			{Exchange: "Hit2Hit", Kind: exchange.ManualSurf, Seq: 0,
				Timestamp: t0.In(time.FixedZone("", 5*3600+30*60)),
				EntryURL:  "http://c.sim/", FinalURL: "http://c.sim/", Status: 200,
				ContentType: "application/x-shockwave-flash", Body: []byte{'F', 'W', 'S', 0, 0xff}},
		}},
	}
	var good bytes.Buffer
	if err := WriteDataset(&good, crawls); err != nil {
		panic(err)
	}
	return [][]byte{
		good.Bytes(),
		{},
		[]byte("{not json"),
		[]byte(`{"exchange":"x","seq":"one"}`),
		[]byte(`{"exchange":"x","timestamp":"yesterday"}`),
		[]byte(`{"exchange":"x","body":"!!not base64"}`),
		[]byte("null\n[1,2]\n"),
	}
}

// TestUpdateDatasetFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when UPDATE_FUZZ_CORPUS=1, like the checkpoint corpus
// updaters.
func TestUpdateDatasetFuzzCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadDataset")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, in := range datasetSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(in)))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzReadDataset hardens the JSONL dataset reader slumscan runs on files
// from disk: arbitrary bytes must either fail cleanly or decode into
// crawls that WriteDataset writes back and ReadDataset reads again
// unchanged.
func FuzzReadDataset(f *testing.F) {
	for _, in := range datasetSeedInputs() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		crawls, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDataset(&buf, crawls); err != nil {
			t.Fatalf("writing back a dataset ReadDataset accepted: %v", err)
		}
		again, err := ReadDataset(&buf)
		if err != nil {
			t.Fatalf("re-reading a written dataset: %v", err)
		}
		if err := sameCrawls(crawls, again); err != nil {
			t.Fatalf("Write → Read round trip changed the dataset: %v", err)
		}
	})
}

// sameCrawls compares two datasets record by record. Timestamps compare
// as instants (the zone is not part of the record's meaning) and bodies
// by content (an empty body is written as an absent one).
func sameCrawls(a, b []*crawler.Crawl) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d crawls, then %d", len(a), len(b))
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if ca.Exchange != cb.Exchange || ca.Kind != cb.Kind || len(ca.Records) != len(cb.Records) ||
			!ca.Started.Equal(cb.Started) || !ca.Ended.Equal(cb.Ended) {
			return fmt.Errorf("crawl %d header differs", i)
		}
		for j := range ca.Records {
			ra, rb := ca.Records[j], cb.Records[j]
			if !ra.Timestamp.Equal(rb.Timestamp) || !bytes.Equal(ra.Body, rb.Body) {
				return fmt.Errorf("crawl %d record %d timestamp or body differs", i, j)
			}
			ra.Timestamp, rb.Timestamp, ra.Body, rb.Body = time.Time{}, time.Time{}, nil, nil
			if !reflect.DeepEqual(ra, rb) {
				return fmt.Errorf("crawl %d record %d differs:\n%+v\n%+v", i, j, ra, rb)
			}
		}
	}
	return nil
}
