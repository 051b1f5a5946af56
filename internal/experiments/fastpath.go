package experiments

import (
	"fmt"
	"strings"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// The fast-path experiment measures the resolved-accessor layer in
// accounted device traffic (BenchmarkContract/fastpath times the same
// loops). It is the source of BENCH_fastpath.json, which the contract
// test holds exactly.

// FastpathRow is one operation's cost, per op.
type FastpathRow struct {
	Op           string  `json:"op"`
	DevReads     float64 `json:"dev_reads_per_op"`
	DevWrites    float64 `json:"dev_writes_per_op"`
	FlushedLines float64 `json:"flushed_lines_per_op"`
	Fences       float64 `json:"fences_per_op"`
}

// perOpRows is one FastpathRow a cell, its devices summed.
func perOpRows(cells []cell) []FastpathRow {
	rows := make([]FastpathRow, len(cells))
	for i, c := range cells {
		d := c.total()
		rows[i] = FastpathRow{Op: c.key, DevReads: c.per(d.Reads), DevWrites: c.per(d.Writes),
			FlushedLines: c.per(d.FlushedLines), Fences: c.per(d.Fences)}
	}
	return rows
}

// Fastpath measures named vs resolved field access, persistent-string
// round trips, per-object vs coalesced transitive flushes, and
// obj_graph's create.
func Fastpath(scale Scale) ([]FastpathRow, error) {
	w, err := fastpathWalk(scale)
	if err != nil {
		return nil, fmt.Errorf("fastpath: %w", err)
	}
	cells, err := w.observe()
	if err != nil {
		return nil, fmt.Errorf("fastpath %w", err)
	}
	return perOpRows(cells), nil
}

// fastpathWalk builds a Person, a 64-node chain and obj_graph's directory,
// each on a runtime of its own — the strings the round trips leave
// behind move nothing the flushes or the creates touch — then the loops
// over them: n field accesses of each kind, n/10 string round trips,
// n/100 flushes of the chain each way and pnewFlushPublishIters creates.
func fastpathWalk(scale Scale) (*walk, error) {
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 64 << 20})
	if err != nil {
		return nil, err
	}
	h, err := rt.CreateHeap("fastpath", 0)
	if err != nil {
		return nil, err
	}
	n := scale.div(1000000)

	person := klass.MustInstance("fastpath/Person", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: core.StringKlassName},
	)
	p, err := rt.PNew(person, 0)
	if err != nil {
		return nil, err
	}
	idF, err := rt.ResolveField(person, "id")
	if err != nil {
		return nil, err
	}
	crt, err := core.NewRuntime(core.Config{PJHDataSize: 4 << 20})
	if err != nil {
		return nil, err
	}
	ch, err := crt.CreateHeap("fastpath-chain", 0)
	if err != nil {
		return nil, err
	}
	node := klass.MustInstance("fastpath/Node", nil,
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fastpath/Node"},
		klass.Field{Name: "v", Type: layout.FTLong},
	)
	var head layout.Ref
	chain := make([]layout.Ref, 64)
	for i := range chain {
		r, err := crt.PNew(node, 0)
		if err != nil {
			return nil, err
		}
		if err := crt.SetRef(r, "next", head); err != nil {
			return nil, err
		}
		chain[i] = r
		head = r
	}
	graph, create, err := pnewFlushPublish()
	if err != nil {
		return nil, fmt.Errorf("pnew-flush-publish: %w", err)
	}

	payload := strings.Repeat("s", 256)
	strN, flushN := max(n/10, 1), max(n/100, 1)
	return &walk{devs: []*nvm.Device{h.Device(), ch.Device(), graph}, loops: []loop{
		{"named-get", "", n, func(int) error { _, err := rt.GetLong(p, "id"); return err }},
		{"resolved-get", "", n, func(int) error { rt.GetLongFast(p, idF); return nil }},
		{"named-set", "", n, func(i int) error { return rt.SetLong(p, "id", int64(i)) }},
		{"resolved-set", "", n, func(i int) error { rt.SetLongFast(p, idF, int64(i)); return nil }},
		{"string-roundtrip", "", strN, func(int) error {
			ref, err := rt.NewString(payload, true)
			if err == nil {
				_, err = rt.GetString(ref)
			}
			return err
		}},
		{"flush-per-object", "", flushN, func(int) error {
			for _, r := range chain {
				if err := crt.FlushObject(r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"flush-transitive", "", flushN, func(int) error { return crt.FlushTransitive(head) }},
		{"pnew-flush-publish", "", pnewFlushPublishIters, create},
	}}, nil
}

// pnewFlushPublishIters creates fit one PLAB (48 bytes each), so the row
// holds no retire or dispense, and are a multiple of four, the period at
// which 48-byte nodes cross cache lines (1.5 lines a node on average).
const pnewFlushPublishIters = 4096

// pnewFlushPublish is obj_graph's create (benchmark/obj_graph.go), on a
// runtime of its own, returned with its heap's device: a mutator PNews a
// 4-field node, stores two longs and the reference that links it to the
// chain, the runtime flushes it (FlushObject), the mutator publishes it
// in a directory slot (SetElem) and the runtime flushes the slot
// (FlushArrayElem). The node's header is deferred by PNew and settled by
// FlushObject, whose lines cover it, so a create costs the node's lines
// and the slot's line under two fences.
func pnewFlushPublish() (*nvm.Device, func(i int) error, error) {
	const slots = 64
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 4 << 20})
	if err != nil {
		return nil, nil, err
	}
	h, err := rt.CreateHeap("fastpath-graph", 0)
	if err != nil {
		return nil, nil, err
	}
	node := klass.MustInstance("fastpath/GraphNode", nil,
		klass.Field{Name: "val", Type: layout.FTLong},
		klass.Field{Name: "aux", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fastpath/GraphNode"},
		klass.Field{Name: "peer", Type: layout.FTRef, RefKlass: "fastpath/GraphNode"},
	)
	if _, err := rt.Reg.Define(node); err != nil {
		return nil, nil, err
	}
	var fields [3]core.FieldRef
	for i, name := range []string{"val", "aux", "next"} {
		if fields[i], err = rt.ResolveField(node, name); err != nil {
			return nil, nil, err
		}
	}
	dir, err := rt.PNew(rt.Reg.ObjArray(node.Name), slots)
	if err != nil {
		return nil, nil, err
	}
	if err := rt.SetRoot("fastpath/graph", dir); err != nil {
		return nil, nil, err
	}
	m, err := rt.NewMutator()
	if err != nil {
		return nil, nil, err
	}
	// The chain starts with the PLAB's first object, ahead of the loop.
	prev, err := m.PNew(node, 0)
	if err != nil {
		return nil, nil, err
	}
	return h.Device(), func(i int) error {
		n, err := m.PNew(node, 0)
		if err != nil {
			return err
		}
		m.SetLongFast(n, fields[0], int64(i))
		m.SetLongFast(n, fields[1], -int64(i))
		if err := m.SetRefFast(n, fields[2], prev); err != nil {
			return err
		}
		if err := rt.FlushObject(n); err != nil {
			return err
		}
		if err := m.SetElem(dir, i%slots, n); err != nil {
			return err
		}
		prev = n
		return rt.FlushArrayElem(dir, i%slots)
	}, nil
}
