package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"mad/internal/server"
)

// executor runs one request and returns the response as a client sees
// it: over the wire (wireClient) or in process (inproc).
type executor interface {
	do(req string) (reply, error)
}

// runner runs whole cycles of one workload against one executor, checks
// every answer and counts what it attempted and what failed.
type runner struct {
	w         *workload
	d         *dataset
	ex        executor
	rng       *rand.Rand
	attempted int
	failed    int
	wrong     int // failed because the answer was wrong, not refused
}

func newRunner(w *workload, d *dataset, ex executor, seed uint64) *runner {
	return &runner{w: w, d: d, ex: ex, rng: newRNG(seed, 2)}
}

// maxReported bounds the failures printed to standard error per run.
const maxReported = 5

func (dr *runner) fail(o *op, err error) {
	dr.failed++
	if dr.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %q: %v\n", dr.w.name, o.req, err)
	}
}

// cycle runs one cycle; record sees every request that succeeded. An
// error means the transport broke and the run cannot go on.
func (dr *runner) cycle(record func(o *op, rp *reply)) error {
	ops := dr.w.cycle(dr.d, dr.rng)
	for i := range ops {
		o := &ops[i]
		rp, err := dr.ex.do(o.req)
		if err != nil {
			return fmt.Errorf("%s: %w", o.req, err)
		}
		dr.attempted++
		if rp.remoteErr != "" {
			dr.fail(o, errors.New(rp.remoteErr))
			continue
		}
		if err := o.check(rp.body); err != nil {
			dr.wrong++
			dr.fail(o, err)
			continue
		}
		if o.after != nil {
			o.after()
		}
		if record != nil {
			record(o, &rp)
		}
	}
	return nil
}

// execAll runs requests that must all succeed, such as a workload's
// per-session statements.
func execAll(ex executor, reqs ...string) error {
	for _, req := range reqs {
		rp, err := ex.do(req)
		if err != nil {
			return err
		}
		if rp.remoteErr != "" {
			return fmt.Errorf("%s: %s", req, rp.remoteErr)
		}
	}
	return nil
}

// wireEnv is a loaded dataset served by server.Server on loopback in
// this process, with one client connection.
type wireEnv struct {
	d      *dataset
	srv    *server.Server
	served chan error
	c      *wireClient
}

// openWire is the set-up a user pays before the first statement: data
// generated and loaded, indexes built and analyzed, the server started,
// the connection dialed and the session's statements prepared.
func openWire(w *workload, seed uint64, dataDir string) (*wireEnv, error) {
	d, err := openDataset(w, seed, dataDir)
	if err != nil {
		return nil, err
	}
	e := &wireEnv{d: d, srv: server.New(d.db), served: make(chan error, 1)}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	go func() { e.served <- e.srv.Serve() }()
	if e.c, err = dial(addr.(*net.TCPAddr).String()); err == nil {
		err = execAll(e.c, w.prepare...)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the server and waits for it, then closes the database.
func (e *wireEnv) close() error {
	if e.c != nil {
		e.c.close()
	}
	err := e.srv.Close()
	if serveErr := <-e.served; err == nil {
		err = serveErr
	}
	if cerr := e.d.close(); err == nil {
		err = cerr
	}
	return err
}

func openDataset(w *workload, seed uint64, dataDir string) (*dataset, error) {
	dir := ""
	if w.durable {
		var err error
		if dir, err = newDurableDir(dataDir); err != nil {
			return nil, err
		}
	}
	d, err := w.build(seed, dir)
	if err != nil && dir != "" {
		os.RemoveAll(dir)
	}
	return d, err
}

// finish closes a dataset's environment; for a durable dataset it then
// checks the recovered directory (one more checked operation) and
// removes it.
func finish(dr *runner, closeEnv func() error) error {
	if err := closeEnv(); err != nil {
		return err
	}
	if dr.d.dir == "" {
		return nil
	}
	defer os.RemoveAll(dr.d.dir)
	dr.attempted++
	if err := verifyRecovered(dr.d); err != nil {
		dr.wrong++
		dr.fail(&op{req: "recover " + dr.d.dir}, err)
	}
	return nil
}

// heapLive reads the live heap as of the last garbage collection and the
// number of collections so far.
func heapLive() (live, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// setupRepeats is how many times a run sets up its environment; setup_s
// is their median and the last one is measured.
const setupRepeats = 3

// result is what one run reports.
type result struct {
	attempted, failed, wrong int
	metrics                  []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// minSamples is the k1 sample count the timed window extends to, so a
// slow period cannot leave the k1 median resting on a handful of scans.
const minSamples = 100

// runUntraced measures the end-to-end metrics over the wire.
func runUntraced(w *workload, seed uint64, seconds int, dataDir string) (*result, error) {
	var setups []float64
	var e *wireEnv
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = openWire(w, seed, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			if e.d.dir != "" {
				os.RemoveAll(e.d.dir)
			}
		}
	}
	dr := newRunner(w, e.d, e.c, seed)
	for i := 0; i < w.warmup; i++ {
		if err := dr.cycle(nil); err != nil {
			e.close()
			return nil, err
		}
	}
	var lat [3][]float64
	var first []float64
	var k1Bytes, k1Secs float64
	stmts := 0
	var peak uint64
	record := func(o *op, rp *reply) {
		stmts++
		if o.slot < 0 {
			return
		}
		lat[o.slot] = append(lat[o.slot], ms(rp.total))
		if o.slot == 0 {
			first = append(first, ms(rp.firstFrame))
			k1Bytes += float64(rp.bytes)
			k1Secs += rp.total.Seconds()
		}
	}
	// Only collections that finish inside the window count: the first
	// reading after set-up still reflects the loading transients.
	_, gcStart := heapLive()
	start := time.Now()
	window := time.Duration(seconds) * time.Second
	for time.Since(start) < window || len(lat[0]) < minSamples {
		if err := dr.cycle(record); err != nil {
			e.close()
			return nil, err
		}
		if live, gcs := heapLive(); gcs > gcStart {
			peak = max(peak, live)
		}
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %.1fs window, samples k1=%s %d, k2=%s %d, k3=%s %d\n", w.name, elapsed,
		w.kinds[0], len(lat[0]), w.kinds[1], len(lat[1]), w.kinds[2], len(lat[2]))
	if peak == 0 {
		runtime.GC()
		peak, _ = heapLive()
	}
	if err := finish(dr, e.close); err != nil {
		return nil, err
	}
	return &result{
		attempted: dr.attempted, failed: dr.failed, wrong: dr.wrong,
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"stmts_per_s", float64(stmts) / elapsed, "1/s"},
			{"k1_p50_ms", quantile(lat[0], 0.5), "ms"},
			{"k2_p50_ms", quantile(lat[1], 0.5), "ms"},
			{"k3_p50_ms", quantile(lat[2], 0.5), "ms"},
			{"first_chunk_p50_ms", quantile(first, 0.5), "ms"},
			{"result_mb_per_s", k1Bytes / 1e6 / k1Secs, "MB/s"},
			{"peak_heap_mb", float64(peak) / (1 << 20), "MB"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
