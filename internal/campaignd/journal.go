package campaignd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fleet"
	"repro/internal/observatory"
)

// Journal is a coordinator's recovered state: what a crashed campaign had
// durably accomplished. The event log is the only durable store the
// coordinator has, and trial_result lines carry complete serialised
// results, so spec + results is everything a successor needs — in-flight
// leases at crash time are deliberately absent (they are re-dispatched
// from scratch, which is always safe because results are pure).
type Journal struct {
	// Spec is the campaign_start spec (nil when the log has none).
	Spec *CampaignSpec
	// SpecRaw is the spec's exact journal bytes, compared against the
	// resuming coordinator's canonical spec bytes by Compatible.
	SpecRaw []byte
	// Results holds the accepted trial results keyed by trial index.
	// A trial journalled twice keeps the first occurrence, matching the
	// coordinator's first-submission-wins acceptance.
	Results map[int]fleet.TrialResult
	// Lines counts complete journal lines read.
	Lines int
	// TruncatedTail reports that the final line was cut mid-write — the
	// writer died inside an append, leaving a line that is unterminated or
	// does not parse. The partial line is discarded; everything before it
	// is intact because lines are appended whole, newline included.
	TruncatedTail bool
	// Durable is the byte length of the journal's durable prefix: every
	// line up to and including the last '\n' that precedes the torn tail
	// (the whole stream when there is none). A writer resuming the journal
	// truncates it to exactly this length before appending.
	Durable int64
}

// journalScanBuf bounds one journal line; trial_result lines with a large
// guided corpus are the big case.
const journalScanBuf = 16 << 20

// scanJournalLines splits a journal into lines that keep their '\n', so
// the reader can tell a complete line from an unterminated tail.
func scanJournalLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// LoadJournal replays an event log. The final line is a torn tail write,
// discarded, when it lacks its '\n' or does not parse; any other malformed
// line is fatal.
func LoadJournal(r io.Reader) (*Journal, error) {
	j := &Journal{Results: map[int]fleet.TrialResult{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), journalScanBuf)
	sc.Split(scanJournalLines)
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// The malformed line had lines after it: corruption, not a torn
			// tail.
			return nil, pendingErr
		}
		raw := sc.Bytes()
		if raw[len(raw)-1] != '\n' {
			// Only the stream's last token can lack its newline: the append
			// that would have completed it never happened.
			j.TruncatedTail = true
			break
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			j.Durable += int64(len(raw))
			continue
		}
		ev, err := observatory.ParseLine(line)
		if err != nil {
			pendingErr = fmt.Errorf("campaignd: journal line %d: %w", j.Lines+1, err)
			continue
		}
		j.Durable += int64(len(raw))
		j.Lines++
		switch ev.Type {
		case observatory.EventCampaignStart:
			if j.Spec == nil {
				var spec CampaignSpec
				if err := json.Unmarshal(ev.Raw, &spec); err != nil {
					return nil, fmt.Errorf("campaignd: journal spec: %w", err)
				}
				j.Spec = &spec
				j.SpecRaw = append([]byte(nil), ev.Raw...)
			}
		case observatory.EventTrialResult:
			var res fleet.TrialResult
			if err := json.Unmarshal(ev.Raw, &res); err != nil {
				return nil, fmt.Errorf("campaignd: journal trial_result: %w", err)
			}
			if _, dup := j.Results[res.Trial]; !dup {
				j.Results[res.Trial] = res
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaignd: journal read: %w", err)
	}
	if pendingErr != nil {
		j.TruncatedTail = true
	}
	return j, nil
}

// Compatible reports whether the journal was written by a campaign with
// exactly this spec — byte equality of the canonical spec document, the
// strictest check and the right one: any drift (different seed, trial
// count, generator config) would silently break the determinism guarantee
// the resume is supposed to preserve.
func (j *Journal) Compatible(spec CampaignSpec) error {
	if j.Spec == nil {
		return fmt.Errorf("campaignd: journal has no campaign_start line")
	}
	canonical, err := spec.marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(j.SpecRaw, canonical) {
		return fmt.Errorf("campaignd: journal spec mismatch:\n journal: %s\n resume:  %s",
			j.SpecRaw, canonical)
	}
	return nil
}
