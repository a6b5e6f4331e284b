package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strings"

	"mad"
)

// op is one request of a cycle. slot names the reported kind (0..2 for
// k1..k3, -1 for the writes and transaction control that only count
// towards stmts_per_s). check validates the rendered answer; after runs
// once the program acknowledged the request (a commit updates the
// generator's model there).
type op struct {
	slot  int
	req   string
	check func(body []byte) error
	after func()
}

// workload is one traffic mix over one generated database.
type workload struct {
	name  string
	kinds [3]string
	// build generates the data for seed and loads it into a fresh
	// database, in memory or, when durable is set, opened in dir.
	build   func(seed uint64, dir string) (*dataset, error)
	durable bool
	// prepare runs once per session before the cycle starts.
	prepare []string
	cycle   func(d *dataset, rng *rand.Rand) []op
	// warmup cycles run before timing; traceCycles is the fixed length of
	// a traced run, so its counts repeat exactly.
	warmup, traceCycles int
}

// dataset is a loaded database together with the generator's model of
// what it holds.
type dataset struct {
	db  *mad.Database
	dir string
	asm *asmData
	bom *bomData
}

func (d *dataset) close() error {
	mad.ReleasePlanCache(d.db)
	return d.db.Close()
}

const (
	bulkAsms = 1024
	bomWidth = 200
	rwAsms   = 1024
)

var workloads = []*workload{
	{
		name:  "bulk",
		kinds: [3]string{"scan", "count", "explode"},
		build: func(seed uint64, dir string) (*dataset, error) {
			return buildAssemblies(seed, dir, bulkAsms, true)
		},
		cycle:       bulkCycle,
		warmup:      3,
		traceCycles: 25,
	},
	{
		name:  "rw",
		kinds: [3]string{"txn_read", "commit", "lookup"},
		build: func(seed uint64, dir string) (*dataset, error) {
			return buildAssemblies(seed, dir, rwAsms, false)
		},
		durable:     true,
		prepare:     []string{"PREPARE byCode AS SELECT ALL FROM asm-unit-part WHERE asm.code = ?;"},
		cycle:       rwCycle,
		warmup:      10,
		traceCycles: 120,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const asmSchema = `
CREATE ATOM TYPE asm (code STRING NOT NULL, grp INT);
CREATE ATOM TYPE unit (uid INT, slot INT);
CREATE ATOM TYPE part (serial STRING, lot INT, w INT);
CREATE LINK TYPE asm-unit BETWEEN asm AND unit;
CREATE LINK TYPE unit-part BETWEEN unit AND part;
`

const asmIndexes = `
CREATE INDEX ON asm(code);
CREATE INDEX ON unit(uid);
CREATE INDEX ON part(serial);
`

const bomSchema = `
CREATE ATOM TYPE item (pn INT);
CREATE LINK TYPE contains BETWEEN item AND item;
`

// loadBatch is how many assemblies one load transaction carries.
const loadBatch = 256

// buildAssemblies generates n assemblies (and the BOM graph when withBOM
// is set) and loads them into a database opened in dir (in memory when
// dir is empty): the schema, indexes and ANALYZE as MQL, the occurrences
// through buffered transactions of the public API.
func buildAssemblies(seed uint64, dir string, n int, withBOM bool) (*dataset, error) {
	rng := newRNG(seed, 1)
	d := &dataset{asm: genAssemblies(rng, n), dir: dir}
	if withBOM {
		d.bom = genBOM(rng, bomWidth)
	}
	var err error
	if dir != "" {
		d.db, err = mad.Open(dir)
	} else {
		d.db = mad.NewDatabase()
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*dataset, error) {
		d.close()
		return nil, err
	}
	sess := mad.NewSession(d.db)
	defer sess.Close()
	schema := asmSchema
	if withBOM {
		schema += bomSchema
	}
	if _, err := sess.ExecScript(schema); err != nil {
		return fail(fmt.Errorf("schema: %w", err))
	}
	for lo := 0; lo < n; lo += loadBatch {
		if err := loadAssemblies(d.db, d.asm.asms[lo:min(lo+loadBatch, n)]); err != nil {
			return fail(err)
		}
	}
	indexes := asmIndexes
	if withBOM {
		if err := loadBOM(d.db, d.bom); err != nil {
			return fail(err)
		}
		indexes += "CREATE INDEX ON item(pn);\n"
	}
	if _, err := sess.ExecScript(indexes + "ANALYZE;"); err != nil {
		return fail(fmt.Errorf("indexes: %w", err))
	}
	return d, nil
}

func loadAssemblies(db *mad.Database, asms []assembly) error {
	txn := db.Begin()
	for _, a := range asms {
		aid, err := txn.InsertAtom("asm", mad.Str(a.code), mad.Int(a.grp))
		if err != nil {
			txn.Rollback()
			return err
		}
		for _, u := range a.units {
			uid, err := txn.InsertAtom("unit", mad.Int(u.uid), mad.Int(u.slot))
			if err == nil {
				err = txn.Connect("asm-unit", aid, uid)
			}
			if err != nil {
				txn.Rollback()
				return err
			}
			for _, p := range u.parts {
				pid, err := txn.InsertAtom("part", mad.Str(p.serial), mad.Int(p.lot), mad.Int(p.w))
				if err == nil {
					err = txn.Connect("unit-part", uid, pid)
				}
				if err != nil {
					txn.Rollback()
					return err
				}
			}
		}
	}
	return txn.Commit()
}

func loadBOM(db *mad.Database, b *bomData) error {
	txn := db.Begin()
	ids := make([]mad.AtomID, len(b.children))
	for n := range ids {
		id, err := txn.InsertAtom("item", mad.Int(b.pn(n)))
		if err != nil {
			txn.Rollback()
			return err
		}
		ids[n] = id
	}
	for n, cs := range b.children {
		for _, c := range cs {
			if err := txn.Connect("contains", ids[n], ids[c]); err != nil {
				txn.Rollback()
				return err
			}
		}
	}
	return txn.Commit()
}

func lookupOp(slot int, req string, d *dataset, i int) op {
	return op{slot: slot, req: req, check: func(body []byte) error {
		return checkMolecules(body, &d.asm.asms[i])
	}}
}

// bulkCycle: a full scan rendered to the client, a grouped count that
// derives everything and renders nothing, and a full part explosion
// (every level of the BOM graph) seeded from the pn index at a random
// top-level item.
func bulkCycle(d *dataset, rng *rand.Rand) []op {
	root := rng.IntN(d.bom.width)
	return []op{
		{slot: 0, req: "SELECT ALL FROM asm-unit-part;", check: func(body []byte) error {
			return checkScan(body, d.asm.tally())
		}},
		{slot: 1, req: "SELECT COUNT FROM asm-unit-part GROUP BY grp;", check: func(body []byte) error {
			return checkCount(body, d.asm.groupCounts())
		}},
		{slot: 2, req: fmt.Sprintf("SELECT ALL FROM RECURSIVE item VIA contains WHERE pn = %d;", d.bom.pn(root)),
			check: func(body []byte) error { return checkExplosion(body, d.bom.explosion(root)) }},
	}
}

// rwCycle is one transaction that replaces the last unit of a random
// assembly — delete the old unit and its parts, insert a new unit with
// parts, connect them — sent as separate requests, with a read of its
// own writes before COMMIT. A prepared lookup then reads the committed
// assembly back (checked, not reported), and a literal lookup of a
// random assembly follows: its keys range over every assembly, four
// times the plan cache's 256 entries, so most of them compile.
// Replacing instead of only adding keeps the database the same size
// however long the run, so latencies do not drift with throughput.
func rwCycle(d *dataset, rng *rand.Rand) []op {
	t := rng.IntN(len(d.asm.asms))
	old := d.asm.asms[t].units[unitsPerAsm-1]
	nu := d.asm.newUnit(unitsPerAsm - 1)
	pending := d.asm.asms[t]
	pending.units = append(append([]unit(nil), pending.units[:unitsPerAsm-1]...), nu)
	code := asmCode(t)
	a := rng.IntN(len(d.asm.asms))

	rows := make([]string, len(nu.parts))
	for i, p := range nu.parts {
		rows[i] = fmt.Sprintf("('%s', %d, %d)", p.serial, p.lot, p.w)
	}
	return []op{
		{slot: -1, req: "BEGIN;", check: checkPrefix("transaction started")},
		{slot: -1, req: fmt.Sprintf("DELETE FROM part WHERE lot = %d;", old.uid), check: checkPrefix(fmt.Sprintf("%d affected\n", partsPerUnit))},
		{slot: -1, req: fmt.Sprintf("DELETE FROM unit WHERE uid = %d;", old.uid), check: checkPrefix("1 affected\n")},
		{slot: -1, req: fmt.Sprintf("INSERT INTO unit VALUES (%d, %d);", nu.uid, nu.slot), check: checkPrefix("inserted 1 atom(s)")},
		{slot: -1, req: "INSERT INTO part VALUES " + strings.Join(rows, ", ") + ";", check: checkPrefix(fmt.Sprintf("inserted %d atom(s)", partsPerUnit))},
		{slot: -1, req: fmt.Sprintf("CONNECT asm WHERE code = '%s' TO unit WHERE uid = %d VIA asm-unit;", code, nu.uid), check: checkPrefix("1 affected\n")},
		{slot: -1, req: fmt.Sprintf("CONNECT unit WHERE uid = %d TO part WHERE lot = %d VIA unit-part;", nu.uid, nu.uid), check: checkPrefix(fmt.Sprintf("%d affected\n", partsPerUnit))},
		{slot: 0, req: fmt.Sprintf("SELECT ALL FROM asm-unit-part WHERE asm.code = '%s';", code), check: func(body []byte) error {
			return checkMolecules(body, &pending)
		}},
		{slot: 1, req: "COMMIT;", check: checkPrefix("committed "), after: func() {
			d.asm.asms[t] = pending
		}},
		lookupOp(-1, fmt.Sprintf("EXECUTE byCode ('%s');", code), d, t),
		lookupOp(2, fmt.Sprintf("SELECT ALL FROM asm-unit-part WHERE asm.code = '%s';", asmCode(a)), d, a),
	}
}

// verifyRecovered reopens a durable directory read-only with mad.Recover
// and checks that it holds exactly the acknowledged commits: every
// assembly with the units and parts the generator's model says it has.
func verifyRecovered(d *dataset) error {
	db, err := mad.Recover(d.dir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer mad.ReleasePlanCache(db)
	sess := mad.NewSession(db)
	defer sess.Close()
	r, err := sess.Exec("SELECT ALL FROM asm-unit-part;")
	if err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	want := make([]*assembly, len(d.asm.asms))
	for i := range d.asm.asms {
		want[i] = &d.asm.asms[i]
	}
	if err := checkMolecules([]byte(r.Render(db)), want...); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	return nil
}

// newDurableDir makes a fresh directory for one durable database under
// the benchmark's build directory, inside the checkout.
func newDurableDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "rw-")
}
