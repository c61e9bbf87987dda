package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	pact "repro"
)

const (
	// setupReps is how many times a run sets up; it reports the median.
	setupReps = 3
	// minOps is the fewest timed operations of each kind a run makes,
	// however short its measurement time.
	minOps = 3
)

// runReduce runs one reduction workload: set up, reduce in a closed
// loop for the measurement time, then, off the clock and after peak
// memory is read, check the accuracy.
func runReduce(ctx context.Context, w reduceWorkload, cfg config) (*report, error) {
	rep := newReport(cfg.log)
	opts := w.opts
	opts.Seed = cfg.seed

	// A set-up generates the seeded deck and makes one untimed warm-up
	// reduction of it: the reference every timed reduction must
	// reproduce exactly. The reference keeps the deck text, model and
	// counts only, so no reduction's state stays live past its own.
	var text string
	var ref *opResult
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		t, err := seededDeck(w.deck, cfg.seed)
		var o *opResult
		if err == nil {
			o, err = untracedOp(ctx, t, opts)
		}
		if ref == nil {
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		} else {
			// Later set-ups are operations checked against the first.
			rep.attempted++
			if err == nil && (t != text || o.text != ref.text) {
				err = errors.New("set-up gave a different deck or reduction from the same seed")
			}
			if err != nil {
				rep.fail(fmt.Errorf("set-up %d: %w", i+1, err))
				continue
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.red = nil
		text, ref = t, o
	}
	rep.values["setup_s"] = median(setups)
	rep.note("set-ups %d, seconds %s", len(setups), spreadNote(setups))
	want := ref.counts()
	rep.note("deck %d bytes -> %d bytes, %d poles", len(text), len(ref.text), ref.model.K())
	rep.note("counts %+v", want)
	if len(ref.stats.Recoveries) > 0 {
		rep.note("recoveries %d", len(ref.stats.Recoveries))
	}

	check := func(o *opResult) error {
		if err := checkOutput(o); err != nil {
			return err
		}
		if c := o.counts(); c != want {
			return fmt.Errorf("work counts drifted: %+v, reference %+v", c, want)
		}
		if !sameModel(o.model, ref.model) {
			return errors.New("model is not Float64bits-identical to the reference reduction's")
		}
		if o.text != ref.text {
			return errors.New("reduced deck differs from the reference reduction's")
		}
		return nil
	}
	var last *opResult
	var err error
	if cfg.trace {
		last, err = traceReduce(ctx, rep, cfg, text, opts, check)
	} else {
		last, err = timeReduce(ctx, rep, cfg, text, opts, check)
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.values["peak_rss_mb"] = rss

	// Off the clock: the accuracy of the loop's last reduction, and of
	// further draws of the same deck from the seed, for max_rel_err
	// only.
	t0 := time.Now()
	var errs []float64
	for i := 0; i < max(1, w.errDraws); i++ {
		o := last
		if i > 0 || o == nil {
			t, err := text, error(nil)
			if i > 0 {
				t, err = seededDeck(w.deck, cfg.seed+int64(i)<<32)
			}
			if err == nil {
				o, err = untracedOp(ctx, t, opts)
			}
			if err != nil {
				rep.attempted++
				rep.fail(fmt.Errorf("accuracy draw %d: %w", i, err))
				continue
			}
		}
		last = nil
		if e, ok := accuracy(rep, o, opts); ok {
			errs = append(errs, e)
		}
	}
	if len(errs) == 0 {
		return nil, errors.New("no accuracy draw could be checked")
	}
	rep.values["max_rel_err"] = mean(errs)
	rep.note("verify_s %.6g (%d draws)", time.Since(t0).Seconds(), len(errs))
	return rep, nil
}

// timeReduce is the untraced closed loop of a reduction workload. It
// returns the last reduction, when it passed its checks, for the
// accuracy step.
func timeReduce(ctx context.Context, rep *report, cfg config, text string, opts pact.Options, check func(*opResult) error) (*opResult, error) {
	var durs []float64
	var last *opResult
	deadline := time.Now().Add(cfg.seconds)
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		// Each reduction starts from a collected heap, as in a fresh
		// rcfit process, not inside the previous one's garbage.
		last = nil
		runtime.GC()
		rep.attempted++
		o, err := untracedOp(ctx, text, opts)
		if err == nil {
			err = check(o)
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		durs = append(durs, o.dur.Seconds())
		last = o
	}
	if len(durs) == 0 {
		return nil, errors.New("every timed reduction failed")
	}
	p99, q := tailPercentile(durs, 0.99)
	rep.values["reduce_s_p50"] = median(durs)
	rep.values["req_ms_p50"] = median(durs) * 1e3
	rep.values["req_ms_p99"] = p99 * 1e3
	// One reduction at a time: the throughput is that of the median
	// reduction, so a slow stretch of the run moves it no more than it
	// moves the median.
	rep.values["req_per_s"] = 1 / median(durs)
	rep.note("reductions %d, tail percentile p%g, seconds %s", len(durs), 100*q, spreadNote(durs))
	return last, nil
}

// traceReduce is the traced run of a reduction workload. It alternates
// untraced reductions through the public flow with traced ones through
// the layers, so the two differ only by tracing; each traced
// reduction's pole analysis is replayed to split operator from check
// time. It returns the last untraced reduction, when it passed its
// checks, for the accuracy step.
func traceReduce(ctx context.Context, rep *report, cfg config, text string, opts pact.Options, check func(*opResult) error) (*opResult, error) {
	layers := newLayerSum()
	var plain, traced []float64
	var allocs, gcs []float64
	var last *opResult
	// traceOne makes one traced reduction and, off its clock, replays
	// its pole analysis.
	traceOne := func() {
		last = nil
		runtime.GC()
		rep.attempted++
		o, r, err := tracedOp(ctx, text, opts)
		if err == nil {
			err = check(o)
		}
		if err != nil {
			rep.fail(fmt.Errorf("traced: %w", err))
			return
		}
		v := layerValues(o, r)
		if o.replayable() {
			runtime.GC()
			if v["lanczos.op_apply_s"], v["lanczos.check_s"], err = replayLanczos(ctx, o, opts); err != nil {
				rep.fail(err)
			}
		}
		layers.add(v)
		traced = append(traced, o.dur.Seconds())
	}

	// plainOne makes one untraced reduction, counting its allocations.
	plainOne := func() {
		var before, after runtime.MemStats
		last = nil
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep.attempted++
		o, err := untracedOp(ctx, text, opts)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = check(o)
		}
		if err != nil {
			rep.fail(err)
			return
		}
		plain = append(plain, o.dur.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
		last = o
	}

	deadline := time.Now().Add(cfg.seconds)
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		// Alternate which path goes first, so neither always follows
		// the other.
		if n%2 == 0 {
			plainOne()
			traceOne()
		} else {
			traceOne()
			plainOne()
		}
	}
	if len(plain) == 0 {
		return nil, errors.New("every untraced reduction failed")
	}
	layers.into(rep.values)
	rep.values["runtime.alloc_mb_per_op"] = mean(allocs)
	rep.values["runtime.gc_cycles_per_op"] = mean(gcs)
	rep.values["trace.overhead_frac"] = median(traced)/median(plain) - 1
	rep.note("untraced reductions %d, traced %d", len(plain), len(traced))
	shareNotes(rep, median(traced))
	return last, nil
}

// shareNotes prints the shares of the operation time the acceptance
// profile names.
func shareNotes(rep *report, opS float64) {
	v := rep.values
	rep.note("share front end (parse+extract+transform1) %.3f", (v["netlist.parse_s"]+v["stamp.extract_s"]+v["core.transform1_s"])/opS)
	rep.note("share lanczos.check_s %.3f", v["lanczos.check_s"]/opS)
	rep.note("share core.basis_union_s %.3f", v["core.basis_union_s"]/opS)
}

// layerSum averages per-layer values over traced operations. Every
// per-layer metric starts at zero, so a layer an operation does not
// pass through reads 0.
type layerSum struct {
	n   int
	sum map[string]float64
}

func newLayerSum() *layerSum { return &layerSum{sum: map[string]float64{}} }

func (l *layerSum) add(v map[string]float64) {
	l.n++
	for k, x := range v {
		l.sum[k] += x
	}
}

// into writes the per-operation means into values, leaving values
// already set (by the replay, the service or the runtime) alone.
func (l *layerSum) into(values map[string]float64) {
	for _, d := range perLayer {
		if _, ok := values[d.name]; ok {
			continue
		}
		if l.n > 0 {
			values[d.name] = l.sum[d.name] / float64(l.n)
		} else {
			values[d.name] = 0
		}
	}
}

// accuracy checks an untimed reduction's output and returns its
// max_rel_err, and whether it could be measured; the tolerance holds
// only when no pole cap overrides it.
func accuracy(rep *report, o *opResult, opts pact.Options) (float64, bool) {
	rep.attempted++
	err := checkOutput(o)
	if err != nil {
		rep.fail(err)
		return 0, false
	}
	e, err := maxRelErr(o.red, opts.FMax)
	if err != nil {
		rep.fail(err)
		return 0, false
	}
	if opts.MaxPoles == 0 && e > opts.Tol {
		rep.fail(fmt.Errorf("max relative error %.4g exceeds the tolerance %g", e, opts.Tol))
	}
	return e, true
}

// spreadNote renders the minimum, quartiles and maximum of xs.
func spreadNote(xs []float64) string {
	s := sorted(xs)
	at := func(f float64) float64 { return s[int(math.Round(f*float64(len(s)-1)))] }
	return fmt.Sprintf("min %.4g q1 %.4g med %.4g q3 %.4g max %.4g", s[0], at(0.25), median(s), at(0.75), s[len(s)-1])
}
