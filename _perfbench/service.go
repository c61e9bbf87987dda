package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/service"
)

// svcHarness is the reduction daemon's server in this process, behind
// a loopback listener, exactly as cmd/rcfitd serves it.
type svcHarness struct {
	svc  *service.Server
	hs   *http.Server
	base string
	done chan error // Serve's return value
}

func startService() (*svcHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &svcHarness{
		svc:  service.New(service.Config{}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	h.hs = &http.Server{Handler: h.svc, ReadHeaderTimeout: time.Minute}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the listener down, waits for in-flight requests and for
// the serving goroutine, then releases the service.
func (h *svcHarness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	h.svc.Close()
	return err
}

// conn is one keep-alive client connection.
type conn struct {
	tr *http.Transport
	hc *http.Client
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply is one POST /reduce outcome; lat runs from sending the request
// to reading the last byte of the response.
type reply struct {
	lat  time.Duration
	resp service.ReduceResponse
	err  error
}

func (c *conn) post(ctx context.Context, base, query, body string) reply {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/reduce?"+query, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{lat: time.Since(t0)}
	switch {
	case err != nil:
		r.err = fmt.Errorf("read reply: %w", err)
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	default:
		if err := json.Unmarshal(b, &r.resp); err != nil {
			r.err = fmt.Errorf("decode reply: %w", err)
		} else if r.resp.Result == nil {
			r.err = errors.New("reply carries no result")
		}
	}
	return r
}

// serviceOptions are the options the service reduces a request with;
// a direct reduction with them must give the same deck text.
func serviceOptions(o pact.Options) pact.Options {
	return pact.Options{FMax: o.FMax, Tol: o.Tol, MaxPoles: o.MaxPoles, Shifts: o.Shifts, PortClusters: o.PortClusters}
}

// query renders the service parameters of o, shifts in listing order.
func query(o pact.Options) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	q := url.Values{"fmax": {f(o.FMax)}}
	if o.Tol != 0 {
		q.Set("tol", f(o.Tol))
	}
	if o.MaxPoles > 0 {
		q.Set("maxpoles", strconv.Itoa(o.MaxPoles))
	}
	if len(o.Shifts) > 0 {
		s := make([]string, len(o.Shifts))
		for i, x := range o.Shifts {
			s[i] = f(x)
		}
		q.Set("shifts", strings.Join(s, ","))
	}
	return q.Encode()
}

// serviceTally classifies the replies of a measured phase for the
// service.* metrics.
type serviceTally struct {
	hits, misses, followers int
	hitMs, missMs           []float64
	reduceMs, overheadMs    []float64
}

func (t *serviceTally) add(r reply) {
	ms := r.lat.Seconds() * 1e3
	switch r.resp.Cache {
	case "hit":
		t.hits++
		t.hitMs = append(t.hitMs, ms)
	case "miss":
		t.misses++
		t.missMs = append(t.missMs, ms)
		red := float64(r.resp.ElapsedNs) / 1e6
		t.reduceMs = append(t.reduceMs, red)
		t.overheadMs = append(t.overheadMs, ms-red)
	case "follower":
		t.followers++
	}
}

// into writes the service metrics; before and after are the server's
// counters around the phase.
func (t *serviceTally) into(v map[string]float64, before, after service.Stats) {
	v["service.hits"] = float64(t.hits)
	v["service.misses"] = float64(t.misses)
	v["service.followers"] = float64(t.followers)
	if n := t.hits + t.misses + t.followers; n > 0 {
		v["service.hit_ratio"] = float64(t.hits) / float64(n)
	} else {
		v["service.hit_ratio"] = 0
	}
	v["service.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	v["service.shed"] = float64(after.Shed - before.Shed)
	v["service.hit_ms_p50"] = median(t.hitMs)
	v["service.miss_ms_p50"] = median(t.missMs)
	v["service.reduce_ms_p50"] = median(t.reduceMs)
	v["service.overhead_ms_p50"] = median(t.overheadMs)
}

// The rcfitd-mix request stream. Each round posts one request on each
// of two keep-alive connections at the same moment and waits for both
// (a closed loop). Rounds come in blocks of blockRounds whose make-up is
// fixed and whose order the seed shuffles, so every run asks for the
// same mix of work:
//   - blockPairs rounds post one fresh deck on both connections, so
//     singleflight makes one of them a follower;
//   - of the other rounds' requests, blockGrid post the ~10k-node grid,
//     whose hits re-parse and re-serialize a 1 MB deck, blockShifts
//     post the shifts= request, half in each listing order, blockFresh
//     post a fresh deck (a miss, then a store that evicts once the cache
//     is full), and the rest cycle over the small hot decks (hits).
//
// The make-up is synthetic: no recorded rcfitd traffic stands behind
// it. Each count is sized to keep one path or metric visible (README.md
// gives the measured shares): hits, about 70% of requests, hold the
// median request on the read path; the grid10k share, above 1%, puts
// req_ms_p99 among its hits; the misses pass the cache's 256 entries
// within a run, so stores and evictions are measured; the pairs and
// the shifts requests keep singleflight followers and the canonical
// shifts key in every block.
const (
	blockRounds = 100
	blockPairs  = 5
	blockGrid   = 13
	blockShifts = 6
	blockFresh  = 51
	// freshPool distinct fresh decks are generated per set-up, four
	// times the 256 entries the service caches: the stream cycles
	// through them, and each is evicted long before it comes round
	// again, so fresh requests keep missing.
	freshPool = 1024
	// traceFresh fresh decks join the hot set in the traced pipeline
	// run that charges the mix to the layers.
	traceFresh = 32
)

// mixDeck is one distinct request of the stream: a deck text and the
// options it is posted with.
type mixDeck struct {
	name string
	text string
	opts pact.Options
}

// mixInputs are the decks of one rcfitd-mix set-up. decks holds the hot
// set, then the two listing orders of the shifts request, then the
// fresh pool.
type mixInputs struct {
	decks  []mixDeck
	hot    int // decks[:hot] are the hot set
	shiftA int // decks[shiftA], decks[shiftA+1]: one shift set, two orders
	fresh  int // decks[fresh:] are the fresh pool
}

func mixDecks(seed int64) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInputs{}
	add := func(name string, d *netlist.Deck, err error, opts ...pact.Options) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		jitter(d, rng)
		text := d.String()
		for _, o := range opts {
			in.decks = append(in.decks, mixDeck{name: name, text: text, opts: o})
		}
		return nil
	}
	grid, _, err := netgen.PowerGrid(netgen.PowerGridPreset(10_000))
	if err := add("grid10k", grid, err, pact.Options{FMax: 1e9}); err != nil {
		return nil, err
	}
	if err := add("ladder100", netgen.Ladder(100, 250, 1.35e-12), nil, pact.Options{FMax: 1e9}); err != nil {
		return nil, err
	}
	mesh, err := meshDeck(8, 8, 4, 9)
	if err := add("mesh8x8x4", mesh, err, pact.Options{FMax: 3e9}); err != nil {
		return nil, err
	}
	if err := add("multiplier", netgen.Multiplier(4, 3, 10, 4, 7), nil, pact.Options{FMax: 1e9}); err != nil {
		return nil, err
	}
	in.hot = len(in.decks)
	in.shiftA = len(in.decks)
	if err := add("ladder60-shifts", netgen.Ladder(60, 250, 1.35e-12), nil,
		pact.Options{FMax: 1e9, Shifts: []float64{0, 1e9}},
		pact.Options{FMax: 1e9, Shifts: []float64{1e9, 0}}); err != nil {
		return nil, err
	}
	in.fresh = len(in.decks)
	for i := 0; i < freshPool; i++ {
		var d *netlist.Deck
		var err error
		o := pact.Options{FMax: 1e9}
		switch i % 3 {
		case 0:
			d = netgen.Ladder(20+rng.Intn(61), 200+200*rng.Float64(), (1+rng.Float64())*1e-12)
		case 1:
			d, err = meshDeck(4+rng.Intn(3), 4+rng.Intn(3), 2+rng.Intn(2), 4)
			o.FMax = 3e9
		default:
			d = netgen.Multiplier(2+rng.Intn(3), 2+rng.Intn(2), 4+rng.Intn(5), 1+rng.Intn(3), rng.Int63())
		}
		if err := add(fmt.Sprintf("fresh%d", i), d, err, o); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// class names the part of the stream decks[i] belongs to.
func (in *mixInputs) class(i int) string {
	switch {
	case i == 0:
		return "grid10k"
	case i < in.hot:
		return "hot"
	case i < in.fresh:
		return "shifts"
	}
	return "fresh"
}

// mixSchedule deals the rounds of the request stream, block by block.
type mixSchedule struct {
	in        *mixInputs
	rng       *rand.Rand
	pairs     map[int]bool // rounds of the current block that are pairs
	slots     []int        // deck indices for the current block's other rounds
	round     int          // next round of the current block
	nextFresh int
}

func newMixSchedule(in *mixInputs, seed int64) *mixSchedule {
	return &mixSchedule{in: in, rng: rand.New(rand.NewSource(seed)), round: blockRounds}
}

func (m *mixSchedule) fresh() int {
	i := m.in.fresh + m.nextFresh%freshPool
	m.nextFresh++
	return i
}

// next returns the decks of the next round, one per connection, and
// whether the round is a singleflight pair.
func (m *mixSchedule) next() ([2]int, bool) {
	if m.round == blockRounds {
		m.deal()
	}
	r := m.round
	m.round++
	if m.pairs[r] {
		d := m.fresh()
		return [2]int{d, d}, true
	}
	pick := [2]int{m.slots[0], m.slots[1]}
	m.slots = m.slots[2:]
	for i, d := range pick {
		if d < 0 {
			pick[i] = m.fresh()
		}
	}
	return pick, false
}

// deal lays out one block: which rounds are pairs, and the shuffled
// requests of the others (-1 marks a fresh deck, drawn when posted).
func (m *mixSchedule) deal() {
	m.round = 0
	m.pairs = map[int]bool{}
	for _, r := range m.rng.Perm(blockRounds)[:blockPairs] {
		m.pairs[r] = true
	}
	in := m.in
	n := 2 * (blockRounds - blockPairs)
	m.slots = m.slots[:0]
	for i := 0; i < blockGrid; i++ {
		m.slots = append(m.slots, 0) // grid10k
	}
	for i := 0; i < blockShifts; i++ {
		m.slots = append(m.slots, in.shiftA+i%2)
	}
	for i := 0; i < blockFresh; i++ {
		m.slots = append(m.slots, -1)
	}
	for i := 0; len(m.slots) < n; i++ {
		m.slots = append(m.slots, 1+i%(in.hot-1))
	}
	m.rng.Shuffle(n, func(i, j int) { m.slots[i], m.slots[j] = m.slots[j], m.slots[i] })
}

// setupMix generates the inputs, starts the service and warms it with
// every hot deck and both shifts orders, leaving them cached.
func setupMix(ctx context.Context, seed int64) (*mixInputs, *svcHarness, error) {
	in, err := mixDecks(seed)
	if err != nil {
		return nil, nil, err
	}
	h, err := startService()
	if err != nil {
		return nil, nil, err
	}
	c := newConn()
	defer c.close()
	for _, d := range in.decks[:in.fresh] {
		if r := c.post(ctx, h.base, query(d.opts), d.text); r.err != nil {
			err = errors.Join(fmt.Errorf("warm-up %s: %w", d.name, r.err), h.stop())
			return nil, nil, err
		}
	}
	return in, h, nil
}

// runMix runs the rcfitd-mix workload.
func runMix(ctx context.Context, cfg config) (*report, error) {
	rep := newReport(cfg.log)
	var in *mixInputs
	var h *svcHarness
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		nin, nh, err := setupMix(ctx, cfg.seed)
		dur := time.Since(t0).Seconds()
		if h == nil {
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		} else {
			// Later set-ups are operations checked against the first;
			// each replaces the server of the one before.
			rep.attempted++
			if err == nil {
				err = h.stop()
				if !sameInputs(nin, in) {
					err = errors.Join(err, errors.New("set-up gave different decks from the same seed"))
				}
			}
			if err != nil {
				rep.fail(fmt.Errorf("set-up %d: %w", i+1, err))
				if nh == nil {
					continue
				}
			}
		}
		setups = append(setups, dur)
		in, h = nin, nh
	}
	rep.values["setup_s"] = median(setups)
	rep.note("set-ups %d, seconds %s", len(setups), spreadNote(setups))

	conns := [2]*conn{newConn(), newConn()}
	sched := newMixSchedule(in, cfg.seed)
	var (
		lats      []float64
		blockRate []float64 // requests per second of round time, per complete block
		blockBusy time.Duration
		blockReqs int
		tally     serviceTally
		digests   = map[int][32]byte{} // first reply's deck digest per deck
		replies   = map[int]int{}      // successful replies per deck
		memBefore runtime.MemStats
		byClass   = map[string][]float64{} // latencies by request class
	)
	runtime.ReadMemStats(&memBefore)
	before := h.svc.Snapshot()
	deadline := time.Now().Add(cfg.seconds)
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		pick, pair := sched.next()
		var got [2]reply
		var wg sync.WaitGroup
		t0 := time.Now()
		for s := range pick {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				d := in.decks[pick[s]]
				got[s] = conns[s].post(ctx, h.base, query(d.opts), d.text)
			}(s)
		}
		wg.Wait()
		blockBusy += time.Since(t0)
		for s, r := range got {
			rep.attempted++
			if r.err != nil {
				rep.fail(fmt.Errorf("%s: %w", in.decks[pick[s]].name, r.err))
				continue
			}
			sum := sha256.Sum256([]byte(r.resp.Deck))
			if first, ok := digests[pick[s]]; ok && first != sum {
				rep.fail(fmt.Errorf("%s: the service returned two different decks", in.decks[pick[s]].name))
				continue
			}
			digests[pick[s]] = sum
			replies[pick[s]]++
			lats = append(lats, r.lat.Seconds()*1e3)
			tally.add(r)
			c := in.class(pick[s])
			if pair {
				c = "pair"
			}
			byClass[c] = append(byClass[c], r.lat.Seconds()*1e3)
			blockReqs++
		}
		if (n+1)%blockRounds == 0 {
			blockRate = append(blockRate, float64(blockReqs)/blockBusy.Seconds())
			blockBusy, blockReqs = 0, 0
		}
	}
	if len(blockRate) == 0 && blockBusy > 0 {
		// A run too short for one whole block reports its part block.
		blockRate = append(blockRate, float64(blockReqs)/blockBusy.Seconds())
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	after := h.svc.Snapshot()
	for _, c := range conns {
		c.close()
	}
	if err := h.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	if len(lats) == 0 {
		return nil, errors.New("every request failed")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.values["peak_rss_mb"] = rss
	p99, q := tailPercentile(lats, 0.99)
	// Every block asks for the same make-up of work, so the median
	// block's rate is the stream's throughput, and a slow stretch of
	// the run moves it no more than it moves the median.
	rep.values["req_per_s"] = median(blockRate)
	rep.values["req_ms_p50"] = median(lats)
	rep.values["req_ms_p99"] = p99
	rep.values["reduce_s_p50"] = median(tally.reduceMs) / 1e3
	tally.into(rep.values, before, after)
	rep.values["runtime.alloc_mb_per_op"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / (1 << 20) / float64(len(lats))
	rep.values["runtime.gc_cycles_per_op"] = float64(memAfter.NumGC-memBefore.NumGC) / float64(len(lats))
	rep.note("requests %d (%d hits, %d misses, %d followers), tail percentile p%g, distinct decks %d",
		len(lats), tally.hits, tally.misses, tally.followers, 100*q, len(digests))
	rep.note("blocks %d, requests per second %s", len(blockRate), spreadNote(blockRate))
	for _, c := range []string{"hot", "grid10k", "shifts", "fresh", "pair"} {
		ms := byClass[c]
		rep.note("class %-7s requests %5d (%.3f), ms p50 %.4g, share of time %.3f",
			c, len(ms), float64(len(ms))/float64(len(lats)), median(ms), sum(ms)/sum(lats))
	}

	// Off the clock: every deck the service answered must match a
	// direct reduction of the same text with the same options.
	maxErr := 0.0
	for i, d := range in.decks {
		dg, asked := digests[i]
		hot := i < in.fresh
		if !asked && !hot {
			continue
		}
		rep.attempted++
		red, err := directReduce(ctx, d)
		if err == nil && asked && sha256.Sum256([]byte(red.Deck.String())) != dg {
			err = errors.New("service reply differs from a direct reduction")
		}
		if err == nil {
			var e float64
			e, err = maxRelErr(red, d.opts.FMax)
			if hot {
				maxErr = max(maxErr, e)
			}
		}
		if err != nil {
			// The check failed, and so did every reply for this deck.
			rep.failed += replies[i]
			rep.fail(fmt.Errorf("%s: %w", d.name, err))
		}
	}
	rep.values["max_rel_err"] = maxErr
	if cfg.trace {
		return rep, traceMix(ctx, rep, in)
	}
	return rep, nil
}

// traceMix charges the mix's reductions to the layers: the hot set, the
// shifts request and the first traceFresh fresh decks each go through
// the traced pipeline and the untraced flow once.
func traceMix(ctx context.Context, rep *report, in *mixInputs) error {
	layers := newLayerSum()
	var plain, traced []float64
	replayed := 0
	for i, d := range in.decks[:in.fresh+traceFresh] {
		if i == in.shiftA+1 {
			continue // the same set of shifts as decks[shiftA]
		}
		o := serviceOptions(d.opts)
		var u, t *opResult
		var r *recorder
		var uerr, terr error
		// Alternate which path reduces a deck first, so neither always
		// finds the deck warm in cache.
		if i%2 == 0 {
			u, uerr = untracedOp(ctx, d.text, o)
			t, r, terr = tracedOp(ctx, d.text, o)
		} else {
			t, r, terr = tracedOp(ctx, d.text, o)
			u, uerr = untracedOp(ctx, d.text, o)
		}
		rep.attempted++
		if err := errors.Join(uerr, terr); err != nil {
			rep.fail(fmt.Errorf("%s: %w", d.name, err))
			continue
		}
		if !sameModel(u.model, t.model) || u.text != t.text {
			rep.fail(fmt.Errorf("%s: traced model is not Float64bits-identical to the untraced one", d.name))
		}
		v := layerValues(t, r)
		if t.replayable() {
			var err error
			if v["lanczos.op_apply_s"], v["lanczos.check_s"], err = replayLanczos(ctx, t, o); err != nil {
				rep.fail(fmt.Errorf("%s: %w", d.name, err))
			}
			replayed++
		}
		layers.add(v)
		plain = append(plain, u.dur.Seconds())
		traced = append(traced, t.dur.Seconds())
	}
	if len(plain) == 0 {
		return errors.New("every traced reduction failed")
	}
	rep.values["trace.overhead_frac"] = sum(traced)/sum(plain) - 1
	layers.into(rep.values)
	rep.note("traced reductions %d, %d replayed", layers.n, replayed)
	return nil
}

// sameInputs reports whether two set-ups generated the same decks.
func sameInputs(a, b *mixInputs) bool {
	if len(a.decks) != len(b.decks) || a.hot != b.hot || a.shiftA != b.shiftA || a.fresh != b.fresh {
		return false
	}
	for i := range a.decks {
		if a.decks[i].text != b.decks[i].text || query(a.decks[i].opts) != query(b.decks[i].opts) {
			return false
		}
	}
	return true
}

// directReduce reduces a mix deck through the public flow with the
// options the service uses.
func directReduce(ctx context.Context, d mixDeck) (*pact.Reduction, error) {
	deck, err := pact.ParseString(d.text)
	if err != nil {
		return nil, err
	}
	return pact.ReduceDeckContext(ctx, deck, serviceOptions(d.opts))
}
