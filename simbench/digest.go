package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"strconv"
	"time"

	"bgsched/internal/experiments"
	"bgsched/internal/sim"
)

// defaultSeed is the seed the recorded digests belong to. Other seeds
// are checked for repeatability instead: every run of a unit must
// match that unit's first run.
const defaultSeed = 1

// digests.json maps workload -> unit -> digest of the unit's output at
// defaultSeed. Regenerate with --record after an intended change of
// simulation output.
//
//go:embed digests.json
var recordedJSON []byte

type digestBook map[string]map[string]string

func loadRecorded() (digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(recordedJSON, &b); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

// checker decides whether each run's output is correct.
type checker struct {
	want   map[string]string // recorded digests; nil checks repeatability only
	got    map[string]string // first digest seen per unit
	ok     int
	failed int
	bad    []string // units that failed, for the report
}

// newChecker compares against the recorded digests at the default seed
// (unless recording them) and checks repeatability at any other seed.
func newChecker(book digestBook, wl string, seed int64, record bool) *checker {
	c := &checker{got: map[string]string{}}
	if seed == defaultSeed && !record {
		c.want = book[wl]
		if c.want == nil {
			c.want = map[string]string{}
		}
	}
	return c
}

// check books one run of unit with output digest d (empty when the
// run returned an error).
func (c *checker) check(unit, d string) bool {
	first, seen := c.got[unit]
	if !seen && d != "" {
		c.got[unit] = d
	}
	pass := d != ""
	if c.want != nil {
		want, known := c.want[unit]
		pass = pass && known && d == want
	} else if seen {
		pass = pass && d == first
	}
	if pass {
		c.ok++
	} else {
		c.failed++
		if len(c.bad) < 8 {
			c.bad = append(c.bad, unit)
		}
	}
	return pass
}

// writeRecord stores the learnt digests of wl into the digest book at
// path, keeping the other workloads' entries.
func writeRecord(path, wl string, got map[string]string) error {
	book := digestBook{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &book); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	book[wl] = got
	out, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// resultDigest fingerprints everything a run reports: the summary, the
// failure/kill/backfill/checkpoint counts and the dispatched events,
// plus the digests of whatever the run emitted.
func resultDigest(r sim.Result, emitted ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|%d|%d|%d|%d", r.Summary, r.FailureEvents, r.JobKills,
		r.Backfills, r.Checkpoints, r.EventsDispatched)
	for _, e := range emitted {
		fmt.Fprintf(h, "|%s", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tablesDigest fingerprints a figure's rendered tables and their exact
// values.
func tablesDigest(tables []*experiments.Table) (string, error) {
	h := sha256.New()
	for _, t := range tables {
		if err := t.Render(h); err != nil {
			return "", err
		}
		for _, s := range t.Series {
			for _, y := range s.Y {
				h.Write(strconv.AppendFloat(nil, y, 'g', -1, 64))
				h.Write([]byte{' '})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// filledSlots counts the table values a figure run produced.
func filledSlots(tables []*experiments.Table) int {
	n := 0
	for _, t := range tables {
		for _, s := range t.Series {
			for _, y := range s.Y {
				if !math.IsNaN(y) {
					n++
				}
			}
		}
	}
	return n
}

// sink is an in-memory emission target: it counts and digests what the
// simulator writes and, when timed, how long the writes take.
type sink struct {
	h      hash.Hash
	bytes  int64
	writes int64
	timed  bool
	spent  time.Duration
}

func newSink(timed bool) *sink { return &sink{h: sha256.New(), timed: timed} }

func (s *sink) Write(p []byte) (int, error) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	s.h.Write(p)
	s.bytes += int64(len(p))
	s.writes++
	if s.timed {
		s.spent += time.Since(t0)
	}
	return len(p), nil
}

func (s *sink) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }
