package main

import (
	"strings"
	"testing"
)

// deterministic names the per-layer counts that must repeat exactly
// between two traced runs of one seed: logical work, plan compiles,
// rendered and framed bytes, and log syncs.
var deterministic = []string{
	"storage.atoms_fetched", "storage.links_traversed", "storage.index_lookups",
	"plan.compiles", "plan.cache_hit_ratio", "mql.rendered_kb",
	"server.chunks", "server.response_kb", "storage.wal_syncs", "storage.wal_kb",
}

func isDeterministic(name string) bool {
	for _, p := range deterministic {
		if strings.HasPrefix(name, p+".") {
			return true
		}
	}
	return false
}

// TestTracedCountsRepeat runs a short traced cycle twice with one seed
// and requires identical deterministic counts.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				res, err := runTraced(w, 7, t.TempDir(), 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.wrong != 0 {
					t.Fatalf("run %d: %d of %d failed", i, res.failed, res.attempted)
				}
				runs[i] = make(map[string]float64)
				for _, m := range res.metrics {
					if isDeterministic(m.name) {
						runs[i][m.name] = m.value
					}
				}
			}
			if len(runs[0]) != 3*len(deterministic) {
				t.Fatalf("%d deterministic metrics, want %d", len(runs[0]), 3*len(deterministic))
			}
			for name, v := range runs[0] {
				if runs[1][name] != v {
					t.Errorf("%s: %v then %v", name, v, runs[1][name])
				}
			}
		})
	}
}

// TestOtherSeedPasses drives every workload over the wire and in
// process with a seed the code was not written against; every answer
// must check.
func TestOtherSeedPasses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTraced(w, 4242, t.TempDir(), 5)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d failed", res.failed, res.attempted)
			}
		})
	}
}

// TestCorruptedExpectationFails corrupts the generator's model after the
// data is loaded; the checks must then reject the program's answers.
func TestCorruptedExpectationFails(t *testing.T) {
	corrupt := map[string]func(d *dataset){
		// The scan tally, the group counts and the BFS oracle all move.
		"bulk": func(d *dataset) {
			d.asm.asms[0].grp = (d.asm.asms[0].grp + 1) % groups
			for n := range d.bom.children {
				if len(d.bom.children[n]) > 0 {
					d.bom.children[n] = d.bom.children[n][1:]
				}
			}
		},
		// The transaction's own read, the lookups and the recovered
		// directory disagree with a model that changed a part weight of
		// every assembly.
		"rw": func(d *dataset) {
			for i := range d.asm.asms {
				d.asm.asms[i].units[0].parts[0].w++
			}
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ip, d, err := openInproc(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			corrupt[w.name](d)
			dr := newRunner(w, d, ip, 7)
			for i := 0; i < 3; i++ {
				if err := dr.cycle(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := finish(dr, func() error { return ip.close(d) }); err != nil {
				t.Fatal(err)
			}
			if dr.wrong == 0 || dr.wrong != dr.failed {
				t.Fatalf("%d wrong, %d failed of %d: corrupted expectations went unnoticed", dr.wrong, dr.failed, dr.attempted)
			}
		})
	}
}
