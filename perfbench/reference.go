package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"mad"
	"mad/internal/experiments"
)

// runReference prints the reference figures the README quotes: costs the
// timed cycles deliberately leave out or that show a known waste, each
// measured in process through the same path the server runs.
func runReference(out io.Writer, seed uint64, dataDir string) error {
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "figure\tstatements\tp50 ms\tmin ms\tmax ms\tatoms fetched/stmt\tcompiles/stmt\n")
	row := func(label string, r refSample) {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.1f\t%.3f\n", label, len(r.ms),
			quantile(r.ms, 0.5), r.ms[0], r.ms[len(r.ms)-1], r.fetched, r.compiles)
	}

	// A literal lookup that misses the plan cache compiles; the same
	// literal repeated or the prepared form hits. A lookup inside a
	// transaction that holds buffered writes bypasses the planner and
	// derives every assembly.
	rw, _ := workloadByName("rw")
	ip, d, err := openInproc(rw, seed, dataDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)
	literal := func(i int) string {
		return fmt.Sprintf("SELECT ALL FROM asm-unit-part WHERE asm.code = '%s';", asmCode(i*7%rwAsms))
	}
	one := func(int) string { return literal(5) }
	var cold, hot, prepared, dirty refSample
	cold, err = refRepeat(ip, 1000, literal)
	if err == nil {
		hot, err = refRepeat(ip, 1000, one)
	}
	if err == nil {
		prepared, err = refRepeat(ip, 1000, func(i int) string {
			return fmt.Sprintf("EXECUTE byCode ('%s');", asmCode(i*7%rwAsms))
		})
	}
	if err == nil {
		err = execAll(ip, "BEGIN;", "INSERT INTO unit VALUES (-1, 9);")
	}
	if err == nil {
		dirty, err = refRepeat(ip, 50, one)
	}
	if err == nil {
		err = execAll(ip, "ROLLBACK;")
	}
	if cerr := ip.close(d); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	row(fmt.Sprintf("literal lookup, distinct keys (%d asm)", rwAsms), cold)
	row("literal lookup, one key repeated", hot)
	row("prepared lookup, distinct keys", prepared)
	row("literal lookup, one key, transaction with buffered writes", dirty)

	// The unfiltered recursive COUNT derives every closure to count the
	// roots; kept out of the timed cycle.
	db, err := experiments.BuildBOM(200)
	if err != nil {
		return err
	}
	rec := &inproc{db: db, sess: mad.NewSession(db)}
	count, err := refRepeat(rec, 8, func(int) string { return "SELECT COUNT FROM RECURSIVE parts VIA composition;" })
	rec.sess.Close()
	mad.ReleasePlanCache(db)
	if err != nil {
		return err
	}
	row("unfiltered recursive COUNT, experiments.BuildBOM(200)", count)
	return tw.Flush()
}

type refSample struct {
	ms                []float64 // sorted
	fetched, compiles float64   // per statement
}

// refRepeat runs n statements through the traced in-process path and
// reports their latencies and per-statement work.
func refRepeat(ip *inproc, n int, req func(i int) string) (refSample, error) {
	ip.tr, ip.reqs = &tracer{t0: time.Now()}, nil
	defer func() { ip.tr = nil }()
	var r refSample
	for i := 0; i < n; i++ {
		rp, err := ip.do(req(i))
		if err != nil {
			return r, err
		}
		if rp.remoteErr != "" {
			return r, fmt.Errorf("%s: %s", req(i), rp.remoteErr)
		}
		r.ms = append(r.ms, ms(rp.total))
	}
	for _, q := range ip.reqs {
		r.fetched += float64(q.delta.atoms) / float64(n)
		r.compiles += float64(q.delta.compiles) / float64(n)
	}
	quantile(r.ms, 0.5) // sorts
	return r, nil
}
