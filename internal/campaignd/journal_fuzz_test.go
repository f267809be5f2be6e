package campaignd_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/fleet"
	"repro/internal/observatory"
)

// realJournal journals two accepted trials of a three-trial campaign, the
// shape a crashed campsrv leaves on disk.
func realJournal(f *testing.F) []byte {
	f.Helper()
	spec := testSpec(3)
	var journal bytes.Buffer
	coord, err := campaignd.New(campaignd.Config{Spec: spec, Sink: observatory.NewSink(&journal)})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l := coord.AcquireLease("w")
		res := fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed}, spec.FleetConfig(), unlockFactory)
		if err := coord.Submit(l.Trial, l.ID, res); err != nil {
			f.Fatal(err)
		}
	}
	return journal.Bytes()
}

// FuzzLoadJournal pins the journal parser that canfuzzd -resume and
// canregress add -campaigns rely on: it never panics, its durable prefix
// is empty or ends in '\n', and re-reading just that prefix recovers the
// same spec and results with no torn tail left over.
func FuzzLoadJournal(f *testing.F) {
	journal := realJournal(f)
	f.Add(journal)
	f.Add(journal[:len(journal)-1])           // final newline lost
	f.Add(journal[:len(journal)-40])          // cut mid-line
	f.Add(append([]byte("{}\n"), journal...)) // malformed line mid-stream
	f.Add([]byte("\n \n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := campaignd.LoadJournal(bytes.NewReader(b))
		if err != nil {
			return
		}
		if j.Durable < 0 || j.Durable > int64(len(b)) {
			t.Fatalf("durable prefix %d outside [0,%d]", j.Durable, len(b))
		}
		if j.Durable > 0 && b[j.Durable-1] != '\n' {
			t.Fatalf("durable prefix ends in %q, not a newline", b[j.Durable-1])
		}
		if j.TruncatedTail != (j.Durable < int64(len(b))) {
			t.Fatalf("torn=%v but durable=%d of %d bytes", j.TruncatedTail, j.Durable, len(b))
		}
		p, err := campaignd.LoadJournal(bytes.NewReader(b[:j.Durable]))
		if err != nil {
			t.Fatalf("durable prefix does not load: %v", err)
		}
		if p.TruncatedTail || p.Durable != j.Durable || p.Lines != j.Lines {
			t.Fatalf("prefix reload: torn=%v durable=%d lines=%d, want false/%d/%d",
				p.TruncatedTail, p.Durable, p.Lines, j.Durable, j.Lines)
		}
		if !bytes.Equal(p.SpecRaw, j.SpecRaw) || !reflect.DeepEqual(p.Spec, j.Spec) {
			t.Fatalf("prefix reload changed the spec: %s vs %s", p.SpecRaw, j.SpecRaw)
		}
		if !reflect.DeepEqual(p.Results, j.Results) {
			t.Fatalf("prefix reload changed the results: %d vs %d", len(p.Results), len(j.Results))
		}
	})
}
