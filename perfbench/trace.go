package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"mad"
	"mad/internal/mql"
)

// The traced run drives the workload's cycle in process through the same
// public calls the server makes for a request — mql.ParseScript,
// Session.ExecuteStream, Cursor.Next/NextRec, the render functions —
// with a span around each call and the program's own counters read at
// the request boundaries. Spans stay in memory until the run ends.

type spanName uint8

const (
	spanRequest spanName = iota
	spanParse            // mql.ParseScript
	spanOpen             // Session.ExecuteStream: plan lookup/compile and access entry, or a whole eager statement
	spanCommit           // Session.ExecuteStream of COMMIT: validation, WAL encode, group commit
	spanDrain            // Cursor.Next / NextRec
	spanRender           // RenderMoleculeAt, RenderRecMoleculeAt, Result.Render
	numSpanNames
)

type span struct {
	name       spanName
	parent     int32 // -1 for a request span
	req        int32 // statement id: one per request
	start, end time.Duration
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name spanName, parent, req int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.t0) }

// counts are the program's counters at one request boundary.
type counts struct {
	atoms, links, indexLookups int64
	hits, misses, compiles     uint64
	walSyncs, walBytes         int64
	allocBytes, gcCycles       uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounts(db *mad.Database) counts {
	st := db.Stats().Snapshot()
	h, m, c := mad.PlanCacheFor(db).Counters()
	_, syncs := db.WALCounters()
	metrics.Read(runtimeSamples)
	return counts{
		atoms: st.AtomsFetched, links: st.LinksTraversed, indexLookups: st.IndexLookups,
		hits: h, misses: m, compiles: c,
		walSyncs: syncs, walBytes: db.LiveWALBytes(),
		allocBytes: runtimeSamples[0].Value.Uint64(), gcCycles: runtimeSamples[1].Value.Uint64(),
	}
}

func (b counts) sub(a counts) counts {
	return counts{
		atoms: b.atoms - a.atoms, links: b.links - a.links, indexLookups: b.indexLookups - a.indexLookups,
		hits: b.hits - a.hits, misses: b.misses - a.misses, compiles: b.compiles - a.compiles,
		walSyncs: b.walSyncs - a.walSyncs, walBytes: b.walBytes - a.walBytes,
		allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles,
	}
}

// request is what the traced run keeps per request besides its spans.
type request struct {
	span      int32
	delta     counts
	rendered  int // bytes
	delivered int // atoms in the molecules handed out
	molecules int // molecules streamed through Next/NextRec
}

// inproc executes requests in process exactly as the server's request
// handler does, minus the framing. With a nil tracer it records nothing.
type inproc struct {
	db   *mad.Database
	sess *mql.Session
	tr   *tracer
	reqs []request
	out  bytes.Buffer
}

// openInproc loads a dataset and opens a prepared session on it.
func openInproc(w *workload, seed uint64, dataDir string) (*inproc, *dataset, error) {
	d, err := openDataset(w, seed, dataDir)
	if err != nil {
		return nil, nil, err
	}
	ip := &inproc{db: d.db, sess: mad.NewSession(d.db)}
	if err := execAll(ip, w.prepare...); err != nil {
		ip.close(d)
		return nil, nil, err
	}
	return ip, d, nil
}

func (p *inproc) close(d *dataset) error {
	p.sess.Close()
	return d.close()
}

func (p *inproc) do(req string) (reply, error) {
	p.out.Reset()
	start := time.Now()
	var rq request
	id := int32(len(p.reqs))
	var before counts
	if p.tr != nil {
		before = readCounts(p.db)
		rq.span = p.tr.begin(spanRequest, -1, id)
	}
	err := p.exec(req, &rq, id)
	rp := reply{total: time.Since(start)}
	if p.tr != nil {
		p.tr.end(rq.span)
		rq.delta = readCounts(p.db).sub(before)
		rq.rendered = p.out.Len()
		p.reqs = append(p.reqs, rq)
	}
	if err != nil {
		rp.remoteErr = err.Error()
		return rp, nil
	}
	rp.body = p.out.Bytes()
	rp.bytes = len(rp.body)
	return rp, nil
}

// call runs fn inside a span when tracing.
func (p *inproc) call(name spanName, rq *request, id int32, fn func()) {
	if p.tr == nil {
		fn()
		return
	}
	s := p.tr.begin(name, rq.span, id)
	fn()
	p.tr.end(s)
}

// exec mirrors server.execStream statement by statement.
func (p *inproc) exec(req string, rq *request, id int32) error {
	var stmts []mql.Stmt
	var err error
	p.call(spanParse, rq, id, func() { stmts, err = mql.ParseScript(req) })
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, st := range stmts {
		name := spanOpen
		if _, ok := st.(*mql.CommitStmt); ok {
			name = spanCommit
		}
		var cur *mql.Cursor
		p.call(name, rq, id, func() { cur, err = p.sess.ExecuteStream(ctx, st) })
		if err != nil {
			return err
		}
		switch {
		case !cur.Streaming():
			r, err := cur.Result()
			if err != nil {
				return err
			}
			for _, m := range r.Set {
				rq.delivered += m.Size()
			}
			for _, m := range r.RecSet {
				rq.delivered += m.Size()
			}
			p.call(spanRender, rq, id, func() { p.out.WriteString(r.Render(p.db)) })
		case cur.RecStreaming():
			n := 0
			for {
				var m *mad.RecursiveMolecule
				p.call(spanDrain, rq, id, func() { m, err = cur.NextRec() })
				if err != nil {
					cur.Close()
					return err
				}
				if m == nil {
					break
				}
				n++
				rq.molecules++
				rq.delivered += m.Size()
				p.call(spanRender, rq, id, func() {
					p.out.WriteString(mql.RenderRecMoleculeAt(p.db, cur.SnapshotTS(), n, m, cur.RecAtomType()))
				})
			}
			fmt.Fprintf(&p.out, "%d recursive molecule(s)\n", n)
			if err := cur.Close(); err != nil {
				return err
			}
		default:
			n := 0
			for {
				var m *mad.Molecule
				p.call(spanDrain, rq, id, func() { m, err = cur.Next() })
				if err != nil {
					cur.Close()
					return err
				}
				if m == nil {
					break
				}
				n++
				rq.molecules++
				rq.delivered += m.Size()
				p.call(spanRender, rq, id, func() {
					p.out.WriteString(mql.RenderMoleculeAt(p.db, cur.SnapshotTS(), n, m, cur.Attrs()))
				})
			}
			fmt.Fprintf(&p.out, "%d molecule(s) of %s\n", n, cur.Desc())
			if err := cur.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// kindSample gathers one kind's requests on one environment of a traced
// run.
type kindSample struct {
	total  []float64 // ms per request
	chunks int
	bytes  int
	reqs   []int // indexes into inproc.reqs (traced session only)
}

// runTraced reports the per-layer metrics. It opens three environments
// on freshly generated datasets of the same seed — the server with one
// connection, an untraced in-process session and a traced one — and
// runs their cycles interleaved, so all three see identical inputs and
// the same machine conditions: the wire gives the client's latencies,
// frames and bytes, the untraced session the baseline of the tracing
// overhead, the traced session the spans and counts.
func runTraced(w *workload, seed uint64, dataDir string, cycles int) (*result, error) {
	var runners []*runner
	var closers []func() error
	closeAll := func() error {
		var first error
		for i, c := range closers {
			if err := finish(runners[i], c); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	e, err := openWire(w, seed, dataDir)
	if err != nil {
		return nil, err
	}
	runners, closers = append(runners, newRunner(w, e.d, e.c, seed)), append(closers, e.close)
	var traced *inproc
	for i := 0; i < 2; i++ {
		ip, d, err := openInproc(w, seed, dataDir)
		if err != nil {
			closeAll()
			return nil, err
		}
		runners, closers = append(runners, newRunner(w, d, ip, seed)), append(closers, func() error { return ip.close(d) })
		traced = ip
	}
	for i := 0; i < w.warmup; i++ {
		for _, dr := range runners {
			if err := dr.cycle(nil); err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	traced.tr = &tracer{t0: time.Now()}
	var ks [3][3]kindSample // [wire, untraced, traced][slot]
	for i := 0; i < cycles; i++ {
		for p, dr := range runners {
			err := dr.cycle(func(o *op, rp *reply) {
				if o.slot < 0 {
					return
				}
				k := &ks[p][o.slot]
				k.total = append(k.total, ms(rp.total))
				k.chunks += rp.chunks
				k.bytes += rp.bytes
				if p == 2 {
					k.reqs = append(k.reqs, len(traced.reqs)-1)
				}
			})
			if err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	res := &result{metrics: layerMetrics(ks[0], ks[1], ks[2], traced)}
	for _, dr := range runners {
		res.attempted += dr.attempted
		res.failed += dr.failed
		res.wrong += dr.wrong
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of each kind: span self
// times (medians per request), counter deltas (means per request) and
// the client-observed remainder attributed to the server and framing.
func layerMetrics(wire, plain, traced [3]kindSample, ip *inproc) []metric {
	spans := ip.tr.spans
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make([][numSpanNames]time.Duration, len(ip.reqs))
	openStart := make([]time.Duration, len(ip.reqs))
	firstDrain := make([]time.Duration, len(ip.reqs))
	for i, s := range spans {
		self[s.req][s.name] += s.end - s.start - child[i]
		switch {
		case (s.name == spanOpen || s.name == spanCommit) && openStart[s.req] == 0:
			openStart[s.req] = s.start
		case s.name == spanDrain && firstDrain[s.req] == 0:
			firstDrain[s.req] = s.end
		}
	}
	var out []metric
	for k := 0; k < 3; k++ {
		suffix := fmt.Sprintf(".k%d", k+1)
		add := func(name string, v float64, unit string) { out = append(out, metric{name + suffix, v, unit}) }
		t := traced[k]
		n := float64(len(t.reqs))
		spanMS := func(name spanName) float64 {
			xs := make([]float64, len(t.reqs))
			for i, r := range t.reqs {
				xs[i] = ms(self[r][name])
			}
			return quantile(xs, 0.5)
		}
		var sum counts
		var rendered, delivered int
		var firsts []float64
		for _, r := range t.reqs {
			rq := &ip.reqs[r]
			d := rq.delta
			sum.atoms += d.atoms
			sum.links += d.links
			sum.indexLookups += d.indexLookups
			sum.hits += d.hits
			sum.misses += d.misses
			sum.compiles += d.compiles
			sum.walSyncs += d.walSyncs
			sum.walBytes += d.walBytes
			sum.allocBytes += d.allocBytes
			sum.gcCycles += d.gcCycles
			rendered += rq.rendered
			delivered += rq.delivered
			if rq.molecules > 0 {
				firsts = append(firsts, ms(firstDrain[r]-openStart[r]))
			}
		}
		tracedP50 := quantile(t.total, 0.5)
		add("server.self_ms", quantile(wire[k].total, 0.5)-tracedP50, "ms")
		add("server.chunks", float64(wire[k].chunks)/n, "count")
		add("server.response_kb", float64(wire[k].bytes)/1024/n, "KB")
		add("mql.parse_us", spanMS(spanParse)*1000, "us")
		add("mql.open_ms", spanMS(spanOpen), "ms")
		add("mql.render_ms", spanMS(spanRender), "ms")
		add("mql.rendered_kb", float64(rendered)/1024/n, "KB")
		add("plan.compiles", float64(sum.compiles)/n, "count")
		add("plan.cache_hit_ratio", ratio(float64(sum.hits), float64(sum.hits+sum.misses)), "ratio")
		add("plan.drain_ms", spanMS(spanDrain), "ms")
		add("plan.first_molecule_ms", quantile(firsts, 0.5), "ms")
		add("storage.atoms_fetched", float64(sum.atoms)/n, "count")
		add("storage.links_traversed", float64(sum.links)/n, "count")
		add("storage.index_lookups", float64(sum.indexLookups)/n, "count")
		add("core.fetch_yield", ratio(float64(delivered), float64(sum.atoms)), "ratio")
		add("storage.commit_ms", spanMS(spanCommit), "ms")
		add("storage.wal_syncs", float64(sum.walSyncs)/n, "count")
		add("storage.wal_kb", float64(sum.walBytes)/1024/n, "KB")
		add("runtime.alloc_kb", float64(sum.allocBytes)/1024/n, "KB")
		add("runtime.gc_cycles_per_1k", float64(sum.gcCycles)*1000/n, "count")
		add("trace.overhead_pct", (tracedP50/quantile(plain[k].total, 0.5)-1)*100, "%")
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
