package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/smartgrid/aria/internal/eventlog"
)

// updatePin rewrites testdata/output_pin.golden from the current code. Use it
// only for a change that means to alter simulator output, and say so.
var updatePin = flag.Bool("update-pin", false, "rewrite testdata/output_pin.golden")

const (
	pinGolden = "testdata/output_pin.golden"
	pinScale  = 0.03
)

// pinScenarios covers one catalog scenario per protocol plane: rescheduling,
// link faults with delivery hardening, membership, journal recovery,
// directed discovery, overload control, and the shared-state arm.
var pinScenarios = []string{
	"iMixed", "iLossy", "iChurnHeal", "iCrashRestart", "iDirected", "iOverload", "iSharedState",
}

// TestOutputPin pins simulator output byte for byte: for each pinned scenario
// at seeds 1-3 it hashes the metrics.Result JSON and the traced event log an
// eventlog.Writer records, and compares both digests with the checked-in
// golden file. A refactor of the event plumbing must leave every line as is.
func TestOutputPin(t *testing.T) {
	var keys []string
	for _, name := range pinScenarios {
		for seed := 1; seed <= 3; seed++ {
			keys = append(keys, fmt.Sprintf("%s/seed%d", name, seed))
		}
	}
	lines := make([]string, len(keys))
	// The group returns only after its parallel subtests have finished.
	t.Run("runs", func(t *testing.T) {
		for i, key := range keys {
			name, seed := pinScenarios[i/3], int64(i%3+1)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				lines[i] = key + " " + pinDigests(t, name, seed) + "\n"
			})
		}
	})
	b := strings.Join(lines, "")
	if *updatePin {
		if err := os.WriteFile(pinGolden, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinGolden)
	if err != nil {
		t.Fatal(err)
	}
	if b != string(want) {
		t.Fatalf("output digests changed:\ngot:\n%s\nwant:\n%s", b, want)
	}
}

// pinDigests runs one scenario repetition with an event-log writer attached
// and returns the result and log digests.
func pinDigests(t *testing.T, name string, seed int64) string {
	cfg, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(pinScale)
	cfg.Seed = seed
	var log bytes.Buffer
	w := eventlog.NewWriter(&log)
	d, err := prepare(cfg, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("result=%x log=%x", sha256.Sum256(js), sha256.Sum256(log.Bytes()))
}
