package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The checks read the answer the way a client reads it — rendered text —
// and compare it with what the generator computed on its own. Atom ids
// are the program's, so they are stripped; everything else must match.

// canonLines splits a rendered molecule result into molecules, each in
// the generator's canonical form (see assembly.canon).
func canonLines(body []byte) [][]string {
	var mols [][]string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "-- molecule ") {
			mols = append(mols, nil)
			continue
		}
		c, ok := canonAtom(line)
		if !ok || len(mols) == 0 {
			continue
		}
		mols[len(mols)-1] = append(mols[len(mols)-1], c)
	}
	for _, m := range mols {
		sort.Strings(m)
	}
	return mols
}

// canonAtom turns "    part: t3#7{serial="S1-0", lot=1, w=5}" into
// "2 part{serial="S1-0", lot=1, w=5}".
func canonAtom(line string) (string, bool) {
	trimmed := strings.TrimLeft(line, " ")
	depth := (len(line) - len(trimmed)) / 2
	typ, rest, ok := strings.Cut(trimmed, ": ")
	if !ok {
		return "", false
	}
	brace := strings.IndexByte(rest, '{')
	if brace < 0 {
		return "", false
	}
	return strconv.Itoa(depth) + " " + strings.TrimPrefix(typ, "^") + rest[brace:], true
}

// checkMolecules compares a rendered result with the expected molecules
// in any order.
func checkMolecules(body []byte, want ...*assembly) error {
	got := canonLines(body)
	if len(got) != len(want) {
		return fmt.Errorf("%d molecule(s), want %d", len(got), len(want))
	}
	exp := make([][]string, len(want))
	for i, a := range want {
		exp[i] = a.canon()
	}
	key := func(m []string) string { return strings.Join(m, "\n") }
	sort.Slice(got, func(i, j int) bool { return key(got[i]) < key(got[j]) })
	sort.Slice(exp, func(i, j int) bool { return key(exp[i]) < key(exp[j]) })
	for i := range got {
		if !slices.Equal(got[i], exp[i]) {
			return fmt.Errorf("molecule differs:\ngot  %q\nwant %q", got[i], exp[i])
		}
	}
	return nil
}

// scanTally counts a rendered full scan in one pass over its bytes: the
// molecules, the atoms per type and the sums of the integer attributes.
func scanTally(body []byte) tally {
	var t tally
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			nl = len(body)
		}
		line := bytes.TrimLeft(body[:nl], " ")
		body = body[min(nl+1, len(body)):]
		switch {
		case bytes.HasPrefix(line, []byte("-- molecule ")):
			t.molecules++
		case bytes.HasPrefix(line, []byte("asm: ")):
			t.asms++
			t.grpSum += intAttr(line, "grp=")
		case bytes.HasPrefix(line, []byte("unit: ")):
			t.units++
			t.slotSum += intAttr(line, "slot=")
		case bytes.HasPrefix(line, []byte("part: ")):
			t.prts++
			t.wSum += intAttr(line, "w=")
		}
	}
	return t
}

// intAttr reads the integer following name in a rendered atom line (-1
// when absent, which no generated value is).
func intAttr(line []byte, name string) int64 {
	i := bytes.Index(line, []byte(name))
	if i < 0 {
		return -1
	}
	v := line[i+len(name):]
	end := bytes.IndexAny(v, ",}")
	if end < 0 {
		return -1
	}
	n, err := strconv.ParseInt(string(v[:end]), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func checkScan(body []byte, want tally) error {
	if got := scanTally(body); got != want {
		return fmt.Errorf("scan tally %+v, want %+v", got, want)
	}
	return nil
}

func checkCount(body []byte, want string) error {
	if string(body) != want {
		return fmt.Errorf("count answer %q, want %q", body, want)
	}
	return nil
}

// checkExplosion compares a rendered recursive molecule with the BFS
// oracle's levels.
func checkExplosion(body []byte, want [][]int64) error {
	var levels [][]int64
	mols := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "-- molecule ") {
			mols++
			continue
		}
		rest, ok := strings.CutPrefix(line, "level ")
		if !ok {
			continue
		}
		_, members, _ := strings.Cut(rest, ":")
		var lv []int64
		for _, f := range strings.Fields(members) {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("level member %q is not a part number", f)
			}
			lv = append(lv, n)
		}
		slices.Sort(lv)
		levels = append(levels, lv)
	}
	if mols != 1 {
		return fmt.Errorf("%d recursive molecule(s), want 1", mols)
	}
	if len(levels) != len(want) {
		return fmt.Errorf("%d level(s), want %d", len(levels), len(want))
	}
	for d := range want {
		if !slices.Equal(levels[d], want[d]) {
			return fmt.Errorf("level %d has %d member(s), want %d (or members differ)", d, len(levels[d]), len(want[d]))
		}
	}
	return nil
}

// checkPrefix accepts any answer that starts with prefix (acknowledged
// writes and transaction control).
func checkPrefix(prefix string) func([]byte) error {
	return func(body []byte) error {
		if !bytes.HasPrefix(body, []byte(prefix)) {
			return fmt.Errorf("answer %q, want prefix %q", body, prefix)
		}
		return nil
	}
}
