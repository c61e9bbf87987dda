package main

import (
	"sort"
	"time"
)

// span is one traced interval. Offsets are from the recorder's origin;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps the spans of one traced operation in memory. Spans are
// recorded by the benchmark around its calls into each layer; the stage
// times a layer already returns (core.StageTimes, stamp's StampNs and
// AssembleNs) become child spans laid end to end from their parent's
// start, since those stages run one after another inside the call.
type recorder struct {
	origin time.Time
	spans  []span
	// cursor is where the next stage-record child of a span starts.
	cursor map[int]time.Duration
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), cursor: map[int]time.Duration{}}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) { r.spans[id].end = time.Since(r.origin) }

// stage adds a child of parent lasting ns, placed after the previous
// stage child of the same parent.
func (r *recorder) stage(parent int, name string, ns int64) {
	at, ok := r.cursor[parent]
	if !ok {
		at = r.spans[parent].start
	}
	d := time.Duration(ns)
	r.spans = append(r.spans, span{name: name, parent: parent, start: at, end: at + d})
	r.cursor[parent] = at + d
}

// find returns the id of the first span called name, or -1.
func (r *recorder) find(name string) int {
	for i, s := range r.spans {
		if s.name == name {
			return i
		}
	}
	return -1
}

// seconds returns the duration of the first span called name in
// seconds, 0 when there is none.
func (r *recorder) seconds(name string) float64 {
	if i := r.find(name); i >= 0 {
		return r.spans[i].dur().Seconds()
	}
	return 0
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover: overlapping children count once, and any part of a
// child outside its parent counts not at all.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.parent != id {
			continue
		}
		a, b := max(s.start, p.start), min(s.end, p.end)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var cover, hi time.Duration
	hi = p.start
	for _, k := range kids {
		if k.a > hi {
			hi = k.a
		}
		if k.b > hi {
			cover += k.b - hi
			hi = k.b
		}
	}
	return p.dur() - cover
}

// coverage is the share of a root span's wall time its children cover.
func coverage(spans []span, root int) float64 {
	d := spans[root].dur()
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTime(spans, root))/float64(d)
}
