package experiments

import (
	"fmt"

	"espresso/internal/jpab"
)

// The PJO commit experiment counts what the Figure 16 path (a JPAB test
// on the PJO provider over H2) costs its two devices — the persistent
// heap holding the DBPersistables and their strings, and the database's
// undo log and row pages — per operation of each mutating phase. It is
// the source of BENCH_pjo.json. Retrieve is not a row: a Find stores,
// flushes and fences nothing on either device, which the run checks.

// PJORow is one JPAB test × phase, per operation (one MakeBatch entity,
// one Touch, one Drop — CollectionTest's Drop is five transactions).
type PJORow struct {
	Op         string  `json:"op"`
	Series     string  `json:"series"`
	HeapLines  float64 `json:"heap_flushed_lines_per_op"`
	HeapFences float64 `json:"heap_fences_per_op"`
	H2Lines    float64 `json:"h2_flushed_lines_per_op"`
	H2Fences   float64 `json:"h2_fences_per_op"`
}

// pjoBatch is the create batch size, the wall-clock benchmark's.
const pjoBatch = 50

// PJOCommit runs the four JPAB tests, each on a fresh stack, and reports
// the device cost of create (in batches of pjoBatch), update and delete.
func PJOCommit(scale Scale) ([]PJORow, error) {
	n := max(scale.div(6000), 2*pjoBatch)
	var rows []PJORow
	for _, test := range jpab.AllTests() {
		s, err := newPJOStack(scale)
		if err != nil {
			return nil, err
		}
		for _, def := range test.Defs {
			if err := s.em.EnsureSchema(def); err != nil {
				return nil, err
			}
		}
		for _, p := range []struct {
			op   string
			step int
			body func(id int64) error
		}{
			{"create", pjoBatch, func(id int64) error { return test.MakeBatch(s.em, id, min(pjoBatch, n-int(id))) }},
			{"retrieve", 1, func(id int64) error { return test.Fetch(s.em, id) }},
			{"update", 1, func(id int64) error { return test.Touch(s.em, id) }},
			{"delete", 1, func(id int64) error { return test.Drop(s.em, id) }},
		} {
			heap0, db0 := s.heap.Stats(), s.db.Stats()
			for id := 0; id < n; id += p.step {
				if err := p.body(int64(id)); err != nil {
					return nil, fmt.Errorf("pjo %s %s: %w", test.Name, p.op, err)
				}
			}
			heap, db := s.heap.Stats().Sub(heap0), s.db.Stats().Sub(db0)
			if p.op == "retrieve" {
				if heap.Flushes+heap.Fences+heap.Writes+db.Flushes+db.Fences+db.Writes != 0 {
					return nil, fmt.Errorf("pjo %s retrieve wrote to a device: heap %+v, h2 %+v", test.Name, heap, db)
				}
				continue
			}
			rows = append(rows, PJORow{
				Op: p.op, Series: test.Name,
				HeapLines:  float64(heap.FlushedLines) / float64(n),
				HeapFences: float64(heap.Fences) / float64(n),
				H2Lines:    float64(db.FlushedLines) / float64(n),
				H2Fences:   float64(db.Fences) / float64(n),
			})
		}
	}
	return rows, nil
}
