package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tuple"
)

// Table and index names, and the covered projection. The index caches
// a and b, so a query projecting id,a,b never needs the heap row.
const (
	tableName = "bench"
	indexName = "by_id"
)

var coveredFields = []string{"id", "a", "b"}

var schemaFields = []tuple.Field{
	{Name: "id", Kind: tuple.KindInt64},
	{Name: "a", Kind: tuple.KindInt64},
	{Name: "b", Kind: tuple.KindInt32},
	{Name: "note", Kind: tuple.KindString},
}

// dataset derives every row's values from the seed and the row id, so
// a checker can recompute what any reply must hold without storing the
// rows. Preloaded rows have the even ids 0, 2, …, 2(rows-1); ingest
// inserts the odd ids in between.
type dataset struct {
	seed uint64
	rows int
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d *dataset) hash(id int64, salt uint64) uint64 {
	return splitmix(d.seed*0x100000001b3 ^ uint64(id)*0x2545f4914f6cdd1d ^ salt)
}

// a is the row's initial a value (mix updates replace it).
func (d *dataset) a(id int64) int64 { return int64(d.hash(id, 1) >> 1) }

func (d *dataset) b(id int64) int32 { return int32(d.hash(id, 2)) }

// noteLen is 56–72 bytes, 64 on average.
func (d *dataset) noteLen(id int64) int { return 56 + int(d.hash(id, 3)%17) }

func (d *dataset) note(id int64) string {
	buf := make([]byte, d.noteLen(id))
	h := d.hash(id, 4)
	for i := range buf {
		if i%12 == 0 {
			h = splitmix(h)
		}
		buf[i] = 'a' + byte(h%26)
		h /= 26
	}
	return string(buf)
}

// logicalBytes is the row's user payload: two int64s, one int32 and
// the note's bytes.
func (d *dataset) logicalBytes(id int64) int64 { return 8 + 8 + 4 + int64(d.noteLen(id)) }

func (d *dataset) row(id, a int64) tuple.Row {
	return tuple.Row{tuple.Int64(id), tuple.Int64(a), tuple.Int32(d.b(id)), tuple.String(d.note(id))}
}

type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opGet
	opPoint
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"apply", "apply", "get", "point", "scan"}

// op is one client request. id is the row key, or the first key of a
// scan; a is the new value of an update.
type op struct {
	kind opKind
	id   int64
	a    int64
}

// Mix shares in percent: covered point reads and full-row gets; the
// remaining 10% are updates.
const (
	mixPointPct = 60
	mixGetPct   = 30
	zipfS       = 1.1
)

// generator yields one connection's seeded op sequence. Two generators
// built from the same arguments yield the same ops, so the embedded
// replay runs exactly the op stream the served run sent.
type generator struct {
	d        *dataset
	workload string
	conn     int
	conns    int
	scanKeys int
	rng      *rand.Rand
	zipf     *rand.Zipf
	hot      []int32 // mix: Zipf rank → row index, shared by every connection
	ids      []int64 // ingest: this connection's odd ids in seeded order
	pos      int
}

// hotOrder scatters Zipf ranks over the key space, so hot keys are not
// all in the first leaves. Every connection shares it: both read and
// write the same hot leaves.
func hotOrder(d *dataset) []int32 {
	perm := make([]int32, d.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	r := rand.New(rand.NewPCG(d.seed, 0x686f74))
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

func newGenerator(d *dataset, workload string, conn, conns, scanKeys int, hot []int32) *generator {
	g := &generator{
		d: d, workload: workload, conn: conn, conns: conns, scanKeys: scanKeys, hot: hot,
		rng: rand.New(rand.NewPCG(d.seed, uint64(conn)+1)),
	}
	switch workload {
	case "ingest":
		// Odd ids across the preloaded range, disjoint per connection:
		// every insert is a distinct new row by construction.
		for i := conn; i < d.rows; i += conns {
			g.ids = append(g.ids, int64(2*i+1))
		}
		g.rng.Shuffle(len(g.ids), func(i, j int) { g.ids[i], g.ids[j] = g.ids[j], g.ids[i] })
	case "mix":
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(d.rows-1))
	}
	return g
}

// owns reports whether this connection may update row index i. Each
// connection updates only its own rows, so its RID map stays exact.
func (g *generator) owns(i int) bool { return i%g.conns == g.conn }

// next returns the next op, or false when an ingest connection has
// inserted every id it owns.
func (g *generator) next() (op, bool) {
	switch g.workload {
	case "ingest":
		if g.pos == len(g.ids) {
			return op{}, false
		}
		g.pos++
		return op{kind: opInsert, id: g.ids[g.pos-1]}, true
	case "scan":
		lo := g.rng.IntN(g.d.rows - g.scanKeys + 1)
		return op{kind: opScan, id: int64(2 * lo)}, true
	default:
		pct := g.rng.IntN(100)
		i := int(g.hot[g.zipf.Uint64()])
		switch {
		case pct < mixPointPct:
			return op{kind: opPoint, id: int64(2 * i)}, true
		case pct < mixPointPct+mixGetPct:
			return op{kind: opGet, id: int64(2 * i)}, true
		}
		if !g.owns(i) {
			i = i - i%g.conns + g.conn
			if i >= g.d.rows {
				i -= g.conns
			}
		}
		return op{kind: opUpdate, id: int64(2 * i), a: int64(g.rng.Uint64() >> 1)}, true
	}
}

// model is what one connection knows the table must hold: its own
// acked updates and the current RID of every row it updates.
type model struct {
	d    *dataset
	rids []uint64 // preloaded rows' RIDs, by row index; shared, read-only
	own  map[int64]ownRow
}

type ownRow struct {
	rid uint64
	a   int64
}

func newModel(d *dataset, rids []uint64) *model {
	return &model{d: d, rids: rids, own: make(map[int64]ownRow)}
}

func (m *model) rid(id int64) uint64 {
	if r, ok := m.own[id]; ok {
		return r.rid
	}
	return m.rids[id/2]
}

// wantA returns the a value a read of id must return, or false when
// another connection may have changed it.
func (m *model) wantA(g *generator, id int64) (int64, bool) {
	if r, ok := m.own[id]; ok {
		return r.a, true
	}
	if g.workload == "mix" && !g.owns(int(id/2)) {
		return 0, false
	}
	return m.d.a(id), true
}

// covered is the id, a and b of a reply row projected to id,a,b.
type covered [3]int64

// coveredOf extracts a projected reply row. Copying three integers out
// keeps the check itself outside the timed call.
func coveredOf(row tuple.Row) (covered, error) {
	var c covered
	if len(row) != 3 {
		return c, fmt.Errorf("%d fields, want 3", len(row))
	}
	for i, v := range row {
		if v.Null {
			return c, fmt.Errorf("field %s is null", coveredFields[i])
		}
		c[i] = v.Int
	}
	return c, nil
}

// checkCovered checks a projected reply row. checkA is false when
// another connection may have updated a.
func checkCovered(d *dataset, id int64, c covered, wantA int64, checkA bool) error {
	switch {
	case c[0] != id:
		return fmt.Errorf("id = %d, want %d", c[0], id)
	case checkA && c[1] != wantA:
		return fmt.Errorf("id %d: a = %d, want %d", id, c[1], wantA)
	case c[2] != int64(d.b(id)):
		return fmt.Errorf("id %d: b = %d, want %d", id, c[2], d.b(id))
	}
	return nil
}

// checkFull checks a full-row reply: id, b and note always, a when the
// reader knows it.
func checkFull(d *dataset, id int64, row tuple.Row, wantA int64, checkA bool) error {
	if len(row) != 4 {
		return fmt.Errorf("id %d: %d fields, want 4", id, len(row))
	}
	c, err := coveredOf(row[:3])
	if err != nil {
		return fmt.Errorf("id %d: %w", id, err)
	}
	if err := checkCovered(d, id, c, wantA, checkA); err != nil {
		return err
	}
	if row[3].Null || row[3].Str != d.note(id) {
		return fmt.Errorf("id %d: note = %q, want %q", id, row[3].Str, d.note(id))
	}
	return nil
}

// checkScan checks that a scan from lo returned exactly the next n
// preloaded ids, in order, with the generator's a and b.
func checkScan(d *dataset, lo int64, n int, got []covered) error {
	if len(got) != n {
		return fmt.Errorf("scan from %d: %d rows, want %d", lo, len(got), n)
	}
	for i, c := range got {
		id := lo + int64(2*i)
		if err := checkCovered(d, id, c, d.a(id), true); err != nil {
			return fmt.Errorf("scan from %d, row %d: %w", lo, i, err)
		}
	}
	return nil
}
