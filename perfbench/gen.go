package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// The generator owns every input the benchmark sends and every answer it
// expects. Both derive from the workload seed alone, so a figure can be
// re-checked on a seed that was not used while writing the code.

const (
	unitsPerAsm  = 4
	partsPerUnit = 4
	groups       = 16 // distinct asm.grp values, the GROUP BY buckets
	bomLevels    = 12 // depth of the bill-of-material graph
	bomFan       = 3  // children per BOM item
)

// newRNG returns the seeded stream for one purpose: data and the
// statement cycle draw from separate streams, so changing a cycle never
// changes the data it runs on.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

type part struct {
	serial string
	lot    int64 // the owning unit's uid
	w      int64
}

type unit struct {
	uid, slot int64
	parts     []part
}

type assembly struct {
	code  string
	grp   int64
	units []unit
}

// asmData is the generator's model of the assembly database: asm → 4
// units → 4 parts each. Workloads that write mutate it in step with the
// commits the program acknowledges.
type asmData struct {
	asms    []assembly
	nextUID int64
	rng     *rand.Rand
}

func genAssemblies(rng *rand.Rand, n int) *asmData {
	d := &asmData{asms: make([]assembly, n), rng: rng}
	for i := range d.asms {
		a := assembly{code: asmCode(i), grp: int64(rng.IntN(groups))}
		for u := 0; u < unitsPerAsm; u++ {
			a.units = append(a.units, d.newUnit(int64(u)))
		}
		d.asms[i] = a
	}
	return d
}

func asmCode(i int) string { return "A" + strconv.Itoa(i) }

// newUnit draws a unit with fresh uid and its parts.
func (d *asmData) newUnit(slot int64) unit {
	u := unit{uid: d.nextUID, slot: slot}
	d.nextUID++
	for k := 0; k < partsPerUnit; k++ {
		u.parts = append(u.parts, part{
			serial: fmt.Sprintf("S%d-%d", u.uid, k),
			lot:    u.uid,
			w:      int64(d.rng.IntN(1000)),
		})
	}
	return u
}

// canon is the rendering-independent form of one asm-unit-part molecule:
// one line per atom, "<depth> <type>{<attrs>}", sorted. The rendered
// output is brought into the same form by canonLines.
func (a *assembly) canon() []string {
	out := []string{fmt.Sprintf("0 asm{code=%s, grp=%d}", strconv.Quote(a.code), a.grp)}
	for _, u := range a.units {
		out = append(out, fmt.Sprintf("1 unit{uid=%d, slot=%d}", u.uid, u.slot))
		for _, p := range u.parts {
			out = append(out, fmt.Sprintf("2 part{serial=%s, lot=%d, w=%d}", strconv.Quote(p.serial), p.lot, p.w))
		}
	}
	sort.Strings(out)
	return out
}

// tally is what a full scan of the assembly structure must deliver.
type tally struct {
	molecules         int
	asms, units, prts int
	grpSum, slotSum   int64
	wSum              int64
}

func (d *asmData) tally() tally {
	t := tally{molecules: len(d.asms), asms: len(d.asms)}
	for _, a := range d.asms {
		t.grpSum += a.grp
		for _, u := range a.units {
			t.units++
			t.slotSum += u.slot
			for _, p := range u.parts {
				t.prts++
				t.wSum += p.w
			}
		}
	}
	return t
}

// groupCounts is the oracle of SELECT COUNT ... GROUP BY grp, rendered
// the way the answer lists its buckets (ascending value).
func (d *asmData) groupCounts() string {
	counts := make(map[int64]int)
	for _, a := range d.asms {
		counts[a.grp]++
	}
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%d group(s) by grp\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, "grp = %d: %d\n", k, counts[k])
	}
	return b.String()
}

// bomData is a reconvergent bill-of-material graph: bomLevels levels of
// width items, each item composed of bomFan distinct items of the next
// level drawn from the seed, so sub-assemblies are shared by many
// parents. Item (l, i) has part number l*10000+i.
type bomData struct {
	width    int
	children [][]int32 // node index → child node indexes
}

func genBOM(rng *rand.Rand, width int) *bomData {
	b := &bomData{width: width, children: make([][]int32, bomLevels*width)}
	for l := 0; l < bomLevels-1; l++ {
		for i := 0; i < width; i++ {
			seen := make(map[int]bool, bomFan)
			for len(seen) < bomFan {
				j := rng.IntN(width)
				if seen[j] {
					continue
				}
				seen[j] = true
				b.children[l*width+i] = append(b.children[l*width+i], int32((l+1)*width+j))
			}
		}
	}
	return b
}

func (b *bomData) pn(node int) int64 { return int64(node/b.width*10000 + node%b.width) }

// explosion is the BFS oracle of FROM RECURSIVE item VIA contains WHERE
// pn = pn(root): the part numbers first reached at each level, each
// level sorted.
func (b *bomData) explosion(root int) [][]int64 {
	seen := map[int]bool{root: true}
	frontier := []int{root}
	var levels [][]int64
	for len(frontier) > 0 {
		lv := make([]int64, len(frontier))
		for i, n := range frontier {
			lv[i] = b.pn(n)
		}
		sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
		levels = append(levels, lv)
		var next []int
		for _, n := range frontier {
			for _, c := range b.children[n] {
				if !seen[int(c)] {
					seen[int(c)] = true
					next = append(next, int(c))
				}
			}
		}
		frontier = next
	}
	return levels
}
