// Package trace is the causal tracing layer of the experiment stack:
// a deterministic, allocation-light span/event tracer (NDJSON, one
// record per line), a bounded in-kernel flight recorder dumped on
// crashes, and a Chrome trace_event exporter.
//
// The tracer complements internal/telemetry: telemetry answers "how
// many / how fast" in aggregate, the trace answers "what happened to
// THIS job, and what caused it". Records fall into two classes:
//
//   - Domain records carry a simulated-time timestamp and are fully
//     deterministic: the same configuration produces byte-identical
//     record streams, whatever the build cache state or partition
//     finder. Golden tests pin these bytes, which makes the tracer
//     itself a determinism oracle.
//   - Wall-clock spans (build pipeline stages, the simulator run as
//     a whole) carry real durations
//     and are inherently non-deterministic. They are emitted only when
//     Options.WallSpans is set, so a tracer in its default
//     configuration stays deterministic end to end.
//
// Records within one tracer carry a monotonically increasing sequence
// number; the Cause field of a record holds the sequence number of the
// record that causally triggered it (a job kill points at the failure
// record that delivered the fault), so the chain behind any one
// outcome can be walked without timestamps ever being ambiguous.
//
// Design points mirror internal/telemetry: a nil *Tracer is valid
// everywhere and disables collection; records are hand-encoded into a
// reused buffer (no reflection, no maps) so the simulator hot path
// pays one mutexed append per record.
package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Field is one extra key/value attribute of a record, rendered in the
// order given. Values are either strings or JSON numbers.
type Field struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// F builds a string-valued field.
func F(key, val string) Field { return Field{Key: key, Str: val} }

// Num builds a number-valued field, rendered in Go's shortest
// round-trip form (deterministic for a given value).
func Num(key string, val float64) Field { return Field{Key: key, Num: val, IsNum: true} }

// Fint builds an integer-valued field.
func Fint(key string, val int64) Field { return Field{Key: key, Num: float64(val), IsNum: true} }

// Rec is one domain record: an instantaneous event at a simulated-time
// timestamp, attributed to a category and optionally a job and a cause.
type Rec struct {
	Cat  string  // record category: "job", "sim", "meta", ...
	Name string  // event name within the category
	T    float64 // domain timestamp (simulated seconds); NaN omits the field
	Job  int64   // subject job id; 0 = none
	// Cause is the sequence number of the record that causally
	// triggered this one (0 = none): a kill points at its failure, a
	// requeue at its kill, and ordinary lifecycle records chain to the
	// job's previous record.
	Cause  uint64
	Fields []Field
}

// Options tunes a Tracer.
type Options struct {
	// WallSpans enables wall-clock span records (Begin/End) and the
	// wall-time fields they carry. Off by default: a default tracer
	// emits only deterministic domain records, the form pinned by the
	// golden-trace tests.
	WallSpans bool
}

// Tracer serialises records to a writer as NDJSON. Create with New; a
// nil *Tracer is valid and discards everything. Safe for concurrent
// use.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	seq   uint64
	err   error
	opt   Options
	start time.Time // wall origin for span offsets
}

// New returns a tracer writing NDJSON records to w. A nil w returns a
// nil tracer, so call sites need no guards.
func New(w io.Writer, opt Options) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, opt: opt, start: time.Now(), buf: make([]byte, 0, 256)}
}

// Emit writes one domain record, stamping and returning its sequence
// number. Returns 0 on a nil tracer or after a write error.
func (t *Tracer) Emit(r Rec) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0
	}
	t.seq++
	seq := t.seq
	b := t.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	if !math.IsNaN(r.T) {
		b = append(b, `,"t":`...)
		b = strconv.AppendFloat(b, r.T, 'g', -1, 64)
	}
	b = append(b, `,"cat":`...)
	b = appendString(b, r.Cat)
	b = append(b, `,"name":`...)
	b = appendString(b, r.Name)
	if r.Job != 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, r.Job, 10)
	}
	if r.Cause != 0 {
		b = append(b, `,"cause":`...)
		b = strconv.AppendUint(b, r.Cause, 10)
	}
	b = appendFields(b, r.Fields)
	b = append(b, '}', '\n')
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return 0
	}
	return seq
}

// Meta emits a metadata record describing the traced run (workload,
// finder, seed, ...). Meta records are deterministic for a fixed
// configuration but naturally differ across configurations, so
// byte-identity oracles simply do not emit them.
func (t *Tracer) Meta(fields ...Field) uint64 {
	return t.Emit(Rec{Cat: "meta", Name: "meta", T: math.NaN(), Fields: fields})
}

// Span is an in-progress wall-clock span started by Begin. The zero
// Span (returned by a nil or deterministic-only tracer) no-ops.
type Span struct {
	t      *Tracer
	cat    string
	name   string
	start  time.Time
	fields []Field
}

// Begin opens a wall-clock span. The span record is emitted by End;
// nothing is written if WallSpans is off.
func (t *Tracer) Begin(cat, name string, fields ...Field) Span {
	if t == nil || !t.opt.WallSpans {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, start: time.Now(), fields: fields}
}

// End closes the span and emits its record, carrying the wall start
// offset and duration in milliseconds plus the Begin and End fields.
// Returns the record's sequence number (0 when suppressed).
func (sp Span) End(fields ...Field) uint64 {
	t := sp.t
	if t == nil {
		return 0
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0
	}
	t.seq++
	seq := t.seq
	b := t.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"cat":`...)
	b = appendString(b, sp.cat)
	b = append(b, `,"name":`...)
	b = appendString(b, sp.name)
	b = append(b, `,"span":true,"wall_start_ms":`...)
	b = strconv.AppendFloat(b, float64(sp.start.Sub(t.start).Microseconds())/1000, 'g', -1, 64)
	b = append(b, `,"wall_ms":`...)
	b = strconv.AppendFloat(b, float64(end.Sub(sp.start).Microseconds())/1000, 'g', -1, 64)
	b = appendFields(b, sp.fields)
	b = appendFields(b, fields)
	b = append(b, '}', '\n')
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return 0
	}
	return seq
}

// Err surfaces the first write error, for end-of-run checks.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return fmt.Errorf("trace: %w", t.err)
	}
	return nil
}

// Seq returns the sequence number of the last record written.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// AdvanceTo moves the sequence counter forward to n, so the next record
// is stamped n+1. A restored simulation uses it to continue its trace
// stream exactly where the snapshotted prefix stopped (byte-identity
// across the snapshot boundary depends on it). The counter never moves
// backwards — a tracer that already emitted past n keeps its position,
// preserving monotone, collision-free sequence numbers.
func (t *Tracer) AdvanceTo(n uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.seq {
		t.seq = n
	}
}

// appendFields renders extra attributes in the order given.
func appendFields(b []byte, fields []Field) []byte {
	for _, f := range fields {
		b = append(b, ',')
		b = appendString(b, f.Key)
		b = append(b, ':')
		if f.IsNum {
			b = strconv.AppendFloat(b, f.Num, 'g', -1, 64)
		} else {
			b = appendString(b, f.Str)
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal. The fast path
// copies byte-wise; quotes, backslashes and control characters are
// escaped (\u00XX for controls), which is all JSON requires.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(b, '"')
}
