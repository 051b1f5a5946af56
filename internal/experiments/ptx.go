package experiments

import (
	"errors"
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pcollections"
	"espresso/internal/pheap"
	"espresso/internal/ptx"
)

// The ptx experiment counts what a transaction of the heap's undo log
// (internal/ptx over internal/undolog) costs the heap's device: raw
// transactions of a given shape first, then the pcollections operations
// Figure 15 times on the Espresso side, each per operation, allocation
// included. It is the source of BENCH_ptx.json.

// PtxCost runs every row n = 1000/scale times on one heap.
func PtxCost(scale Scale) ([]FastpathRow, error) {
	w, check, err := ptxWalk(scale.div(1000))
	if err != nil {
		return nil, fmt.Errorf("ptx fixtures: %w", err)
	}
	cells, err := w.observe()
	if err != nil {
		return nil, fmt.Errorf("ptx %w", err)
	}
	return perOpRows(cells), check()
}

// ptxWalk builds the fixtures — a long array and the transfer's two
// accounts among them — and returns the loops, n operations each, with
// the accounts' check to run after the last. A header the fixtures or
// the previous loop left deferred is settled ahead of each loop: each
// row pays for its own objects.
func ptxWalk(n int) (*walk, func() error, error) {
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 64 << 20, Mode: nvm.Direct})
	if err != nil {
		return nil, nil, err
	}
	w, err := pcollections.NewWorld(h)
	if err != nil {
		return nil, nil, err
	}
	const balance = 1 << 40
	words, e0 := h.Alloc(h.Registry().PrimArray(layout.FTLong), 256)
	a, e1 := w.NewLong(balance)
	b, e2 := w.NewLong(0)
	box, e3 := w.NewLong(0)
	tup, e4 := w.NewTuple(a, a, a)
	list, e5 := w.NewList(n)
	m, e6 := w.NewMap(n)
	if err := errors.Join(e0, e1, e2, e3, e4, e5, e6); err != nil {
		return nil, nil, err
	}
	elem := func(i int) int { return layout.ElemOff(layout.FTLong, i) }
	value := func(ref layout.Ref) uint64 { return uint64(w.LongValue(ref)) }

	// writeWords is one transaction storing i into the first k words.
	writeWords := func(k int, declare bool) func(i int) error {
		return func(i int) error {
			return w.TX.Run(func(tx *ptx.Tx) error {
				if declare {
					if err := tx.Declare(words, elem(0), k*layout.WordSize); err != nil {
						return err
					}
				}
				for j := 0; j < k; j++ {
					if err := tx.WriteWord(words, elem(j), uint64(i)); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	// transfer moves one unit from a to b; failing afterwards aborts it.
	errAbort := errors.New("abort")
	transfer := func(fail error) func(int) error {
		return func(int) error {
			err := w.TX.Run(func(tx *ptx.Tx) error {
				if err := tx.WriteWord(a, layout.FieldOff(0), value(a)-1); err != nil {
					return err
				}
				if err := tx.WriteWord(b, layout.FieldOff(0), value(b)+1); err != nil {
					return err
				}
				return fail
			})
			if err == errAbort {
				return nil
			}
			return err
		}
	}

	wk := &walk{devs: []*nvm.Device{h.Device()}, settle: h.PersistTops}
	for _, r := range []struct {
		op   string
		body func(i int) error
	}{
		{"tx/empty", func(int) error { w.TX.Begin().Commit(); return nil }},
		{"tx/1-word", writeWords(1, false)},
		{"tx/transfer", transfer(nil)},
		{"tx/16-words", writeWords(16, false)},
		{"tx/256-words", writeWords(256, false)},
		{"tx/256-words-declared", writeWords(256, true)},
		{"tx/transfer-abort", transfer(errAbort)},
		{"PLong/create", func(i int) error { _, err := w.NewLong(int64(i)); return err }},
		{"PLong/set", func(i int) error { return w.SetLongValue(box, int64(i)) }},
		{"PTuple3/create", func(int) error { _, err := w.NewTuple(a, a, a); return err }},
		{"PTuple3/set", func(i int) error { return w.TupleSet(tup, i%3, b) }},
		{"PArrayList/add", func(int) error { return w.ListAdd(list, a) }},
		{"PHashMap/put-fresh", func(i int) error { return w.MapPut(m, int64(i), a) }},
		{"PHashMap/put-update", func(i int) error { return w.MapPut(m, int64(i), b) }},
		{"PHashMap/remove", func(i int) error { _, err := w.MapRemove(m, int64(i)); return err }},
	} {
		wk.loops = append(wk.loops, loop{r.op, "", n, r.body})
	}
	check := func() error {
		if value(b) != uint64(n) || value(a)+value(b) != balance {
			return fmt.Errorf("ptx: after %d transfers and %d aborted ones the accounts hold %d and %d", n, n, value(a), value(b))
		}
		return nil
	}
	return wk, check, nil
}
